"""Max-plus thermodynamic numerics.

Subpackages by topic:

- ``semiring``: max-plus scalars and the array pressure of a density table
- ``simplex``: pressures and equilibria on the probability simplex
- ``shift``: cylinder measures and transfer operators on shift spaces
- ``transport``: exact W1 between cylinder tables, contraction checks
- ``ifs``: weighted kernel families, attractors, max-plus IFS operators
- ``dynamics``: running-max Birkhoff sums and large-deviation bounds
- ``goldens``: the golden verification battery
- ``cli``: reproducible experiment runner
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
    transfer_apply,
    word_metric,
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
    "transfer_apply",
    "word_metric",
    "w1_lp_oracle",
    "w1_tree",
    "__version__",
]
