import doctest

import oracles


def test_oracle_doctests():
    failures, attempted = doctest.testmod(oracles)
    assert attempted > 0
    assert failures == 0
