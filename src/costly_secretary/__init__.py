"""Secretary problem with applicant-borne interview costs: solver,
simulator, asymptotics, and exact verification oracle."""

from . import asymptotics, equilibrium, oracle, simulator
from .asymptotics import *
from .equilibrium import *
from .oracle import *
from .simulator import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *sorted(asymptotics.__all__ + equilibrium.__all__ + oracle.__all__ + simulator.__all__),
]
