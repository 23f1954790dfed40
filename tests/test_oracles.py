import doctest
import importlib
import pkgutil

import pytest

import shufflemix

# every module's examples run in tier-1; the modules in WITH_EXAMPLES must
# keep at least one, so losing all of them fails rather than passing empty
MODULES = ["oracles", "shufflemix"] + sorted(
    f"shufflemix.{m.name}" for m in pkgutil.iter_modules(shufflemix.__path__))
WITH_EXAMPLES = {"oracles", "shufflemix.perms", "shufflemix.flows", "shufflemix.exact"}


@pytest.mark.parametrize("module", MODULES)
def test_oracle_doctests(module):
    failures, attempted = doctest.testmod(importlib.import_module(module))
    assert attempted > 0 or module not in WITH_EXAMPLES
    assert failures == 0
