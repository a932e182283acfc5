"""Export consistency: every name a module lists in ``__all__`` exists, and
the package re-exports exactly the library modules' public names."""

import importlib

import pytest

import qracah

LIBRARY = ("model", "bethe", "qnum", "transition", "leonard")


@pytest.mark.parametrize("name", LIBRARY + ("cli",))
def test_all_names_resolve(name):
    # a stale entry in __all__ survives a plain import; only
    # `from ... import *` or an explicit lookup would fail on it
    mod = importlib.import_module(f"qracah.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"qracah.{name}.__all__ names missing attributes: {missing}"


def test_package_reexports_the_library_modules():
    union = set()
    for name in LIBRARY:
        union |= set(importlib.import_module(f"qracah.{name}").__all__)
    exported = set(qracah.__all__) - {"__version__"}
    assert exported == union, (
        f"re-exported but not public: {sorted(exported - union)}; "
        f"public but not re-exported: {sorted(union - exported)}"
    )
    missing = [n for n in qracah.__all__ if not hasattr(qracah, n)]
    assert not missing
