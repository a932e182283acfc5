"""Numerical realization of a tridiagonal generator pair, its polynomial
transition matrices, and the Bethe-root description of its spectra.

The package re-exports the public names of its library modules lazily (PEP
562): the first lookup of a name the package does not hold imports them all.
A bare ``import qracah``, and so every ``python -m qracah`` launch, loads none
of them; each command imports only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_LIBRARY = ("qnum", "model", "leonard", "transition", "bethe")


def _namespace() -> dict:
    """The package namespace, with every library module's ``__all__`` bound in
    it (and listed in the package's ``__all__``) from the first call on."""
    namespace = globals()
    if "__all__" not in namespace:
        names = []
        for name in _LIBRARY:
            module = import_module(f"{__name__}.{name}")
            namespace.update((n, getattr(module, n)) for n in module.__all__)
            names += module.__all__
        namespace["__all__"] = [*names, "__version__"]
    return namespace


def __getattr__(name):
    try:
        return _namespace()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    return sorted(_namespace())
