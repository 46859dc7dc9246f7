import importlib
import pkgutil

import pytest

import bmlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(bmlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    # a name left in __all__ after its definition goes breaks `import *`
    mod = importlib.import_module(f"bmlab.{name}")
    exported = getattr(mod, "__all__", [])
    assert [n for n in exported if not hasattr(mod, n)] == []
    namespace = {}
    exec(f"from bmlab.{name} import *", namespace)
    assert set(exported) <= set(namespace)
