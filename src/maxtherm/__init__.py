"""Max-plus thermodynamic numerics.

Modules by topic:

- ``semiring``: max-plus scalars and the array pressure, the max of
  density plus observable over a table
- ``simplex``: pressures and equilibria on the probability simplex
- ``shift``: cylinder measures, the transfer operator and its dual on
  shift spaces
- ``transport``: exact W1 between cylinder tables and its LP oracle
- ``ifs``: weighted kernel families, attractors and their density entropy,
  pushforward invariance, max-plus IFS operators
- ``dynamics``: running-max Birkhoff sums and large-deviation bounds
- ``goldens``: the golden verification battery, one check per closed-form
  result
- ``cli``: reproducible experiment runner

Every public function and class is reached from a golden check or a
subcommand; the package re-exports the max-plus scalars, the pressure and
the shift-space layer that the others build on.
"""

from .semiring import BOTTOM, MaxPlus, pressure
from .shift import (
    CylinderMeasure,
    DepthKFunction,
    Jacobian,
    ShiftSpace,
    compose_duals,
    dual_apply,
    lipschitz_constant,
    make_bernoulli_jacobian,
    pushforward_apply,
)
from .transport import w1_lp_oracle, w1_tree

__version__ = "0.1.0"

__all__ = [
    "BOTTOM",
    "MaxPlus",
    "pressure",
    "CylinderMeasure",
    "DepthKFunction",
    "Jacobian",
    "ShiftSpace",
    "compose_duals",
    "dual_apply",
    "lipschitz_constant",
    "make_bernoulli_jacobian",
    "pushforward_apply",
    "w1_lp_oracle",
    "w1_tree",
    "__version__",
]
