"""Two-slit Gaussian interference in quantum phase space.

Closed-form and discrete Wigner fields of a Gaussian slit pair, free-flight
shear propagation, position/momentum marginals, Aharonov-Bohm phase
injection, and quantitative fringe-shift measurement.

The package re-exports each module's ``__all__``; the engines are reached as
``analytic.simulate`` and ``numeric.simulate``.
"""

__version__ = "0.1.0"

from . import analysis, analytic, errors, model, numeric
from .analysis import *
from .analytic import *
from .errors import *
from .model import *
from .numeric import *

__all__ = ["__version__", *errors.__all__, *model.__all__, *analytic.__all__, *numeric.__all__, *analysis.__all__]
