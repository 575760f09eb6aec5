"""Every name a qperiod module exports in __all__ exists."""

import pkgutil

import pytest

import qperiod

MODULES = ["qperiod"] + [f"qperiod.{info.name}"
                         for info in pkgutil.iter_modules(qperiod.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_finds_every_exported_name(name):
    # `import *` looks up each name in __all__ (importing submodules of the
    # package) and raises AttributeError for a stale one
    exec(f"from {name} import *", {})
