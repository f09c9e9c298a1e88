import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["estimators", "bounds", "regression", "harness", "synthdata"]
)
def test_every_public_name_exists(module):
    # a stale __all__ entry breaks `from trimreg.<module> import *`
    mod = importlib.import_module(f"trimreg.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
