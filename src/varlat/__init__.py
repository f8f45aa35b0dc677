"""Variation seminorms of operator families on lattice-valued step functions.

The package is organized in layers:

- ``corefn``: step functions, trapezoid weights, and power-law fitting.
- ``operators``: differential averages, heat smoothing, and a logarithmic
  singular transform acting on step functions.
- ``variation``: q-variation certificates along decreasing radius sets.
- ``witnesses``: the lacunary sign pattern whose heat evolution separates
  scales, with certified truncation control.
- ``experiments``: reproducible growth and transfer experiments built from
  the layers above.
- ``cli``: the ``varlat`` command.
"""

__version__ = "0.1.0"

from . import corefn, errors, experiments, operators, variation, witnesses
from .errors import *
from .corefn import *
from .operators import *
from .variation import *
from .witnesses import *
from .experiments import *

#: The public API: every module's own export list, in layer order.
__all__ = [
    "__version__",
    *errors.__all__,
    *corefn.__all__,
    *operators.__all__,
    *variation.__all__,
    *witnesses.__all__,
    *experiments.__all__,
]
