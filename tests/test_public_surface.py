import builtins
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

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


# --- call signatures in README.md ------------------------------------------------
#
# Every code span of the form `name(a, b=None)` in the README names a psilon
# function or method, or one outside psilon (a builtin or a standard
# library name, such as `max` or `json.dumps`).  A psilon name's parameters,
# without `self`/`cls` and annotations, must be written exactly as its
# signature has them, defaults included.

README = Path(__file__).resolve().parents[1] / "README.md"
SPANS = re.findall(r"`([A-Za-z_][\w.]*)\(([^`]*)\)`", README.read_text())
PSILON = [importlib.import_module(name) for name in MODULES]


def _objects(name: str) -> list:
    """The psilon functions and methods that `name` ("f", "Class.f",
    "module.f" or "instance.f") can mean."""
    *qualifier, attr = name.split(".")
    if qualifier:
        owners = [vars(m)[qualifier[0]] for m in PSILON if qualifier[0] in vars(m)]
    else:
        owners = [m for m in PSILON if attr in vars(m)]
    if not owners:  # a method called on an instance, such as `layer.backward`
        owners = [c for m in PSILON for c in vars(m).values()
                  if isinstance(c, type) and c.__module__ == m.__name__ and attr in vars(c)]
    return list({id(f): f for f in (getattr(o, attr) for o in owners if hasattr(o, attr))}.values())


def _written(obj) -> str:
    params = [p.replace(annotation=inspect.Parameter.empty)
              for p in inspect.signature(obj).parameters.values() if p.name not in ("self", "cls")]
    return str(inspect.Signature(params))[1:-1]


@pytest.mark.parametrize("name, args", SPANS, ids=[f"{n}({a})" for n, a in SPANS])
def test_readme_signature_matches_the_code(name, args):
    top = name.split(".")[0]
    if hasattr(builtins, top) or top in sys.stdlib_module_names:
        pytest.skip(f"{name} is not a psilon name")
    objects = _objects(name)
    assert objects, f"README.md names {name}, which psilon does not define"
    assert {_written(obj) for obj in objects} == {args}
