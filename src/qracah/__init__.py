"""Numerical realization of a tridiagonal generator pair, its polynomial
transition matrices, and the Bethe-root description of its spectra."""

from . import bethe, leonard, model, qnum, transition
from .qnum import *  # noqa: F403
from .model import *  # noqa: F403
from .leonard import *  # noqa: F403
from .transition import *  # noqa: F403
from .bethe import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for mod in (qnum, model, leonard, transition, bethe) for name in mod.__all__]
__all__.append("__version__")
