import importlib
import pkgutil

import pytest

import psilon

MODULES = ["psilon", *(f"psilon.{m.name}" for m in pkgutil.iter_modules(psilon.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_public_name(name):
    # a name deleted from a module but left in its __all__ fails here
    namespace = {}
    exec(f"from {name} import *", namespace)
    missing = [n for n in getattr(importlib.import_module(name), "__all__", []) if n not in namespace]
    assert missing == []
