import doctest
import importlib

import pytest


@pytest.mark.parametrize("module", ["oracles", "shufflemix.perms", "shufflemix.flows"])
def test_oracle_doctests(module):
    failures, attempted = doctest.testmod(importlib.import_module(module))
    assert attempted > 0
    assert failures == 0
