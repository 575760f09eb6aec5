"""Every name a qperiod module exports in __all__ exists, and the modules
export exactly the functions and classes they define."""

import importlib
import inspect
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


def is_function_or_class(value) -> bool:
    value = inspect.unwrap(value)  # a cached function counts as its function
    return inspect.isfunction(value) or inspect.isclass(value)


@pytest.mark.parametrize("layer", ["linalg", "circuit", "training", "analysis", "classifier", "io"])
def test_all_lists_exactly_the_public_functions_and_classes_defined_in_the_module(layer):
    # perfbench's tracer wraps the functions this list names; constants are not checked
    module = importlib.import_module(f"qperiod.{layer}")
    defined = {name for name, value in vars(module).items()
               if not name.startswith("_") and is_function_or_class(value)
               and value.__module__ == module.__name__}
    exported = {name for name in module.__all__ if is_function_or_class(getattr(module, name))}
    assert exported == defined
