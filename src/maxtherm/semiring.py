"""Max-plus scalars and the idempotent pressure of a density table.

The max-plus semiring is the reals together with a bottom element, IEEE
-inf, that is neutral for its addition (max) and absorbing for its
multiplication (+).  A density entropy on a finite point set is a 1-D
table with -inf off the support.  Its idempotent pressure is the max over
the table of density + observable, and ``pressure`` is that max and
nothing more, on an array, for one observable or a column batch of them
at once.  The points attaining it, the equilibrium states, need not be
unique; ``simplex.SimplexMax.argmax`` collects them on the simplex.

Every number or float table from a caller is read by ``check_numbers``,
which the value checks call, and which refuses text, bools, None and
complex values by name.  A max-plus value is real or bottom, never NaN or
+inf, which would score NaN against bottom; ``check_maxplus_values`` is
the one test of that rule for every max-plus table of the package.  An
idempotent probability, or max-plus density, has values <= 0 with bottom
allowed and sup equal to 0.  Every table of that kind (kernel family
weights, max-plus IFS weights per point, the inverse problem's density,
max-plus convexity weights) goes through ``check_maxplus_probability``,
the one max-plus counterpart of ``shift.check_probability_rows``; both
read the tolerance ``NORMALIZATION_TOL`` defined here.  Once a table has
passed, it holds no NaN and no +inf, so sums of its entries never produce
NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

_NEG_INF = float("-inf")
NORMALIZATION_TOL = 1e-12  # slack of both probability normalizations


def check_numbers(name: str, value) -> np.ndarray:
    """``value`` as a new float array, 0-d for a number, once its dtype is integer
    or float and, for a list or tuple, which numpy would upcast, no entry is a bool."""
    table = np.asarray(value)
    mixed = isinstance(value, (list, tuple)) and not {bool, np.bool_}.isdisjoint(
        map(type, np.asarray(value, dtype=object).flat))
    if mixed or table.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a number, got {value!r}")
    return table.astype(float)


def check_maxplus_values(values, what: str) -> np.ndarray:
    """``values`` read by ``check_numbers``, once each is real or -inf;
    NaN or +inf raise ``ValueError`` naming the table as ``what``."""
    values = check_numbers(what, values)
    if not (values < math.inf).all():   # false exactly at NaN and +inf
        raise ValueError(f"{what} must be real or -inf, not NaN or +inf")
    return values


@dataclass(frozen=True)
class MaxPlus:
    """A max-plus scalar: a finite real, or bottom stored as IEEE -inf.

    IEEE -inf is a distinct float state, not a large-negative sentinel:
    max() keeps it neutral and + keeps it absorbing, so finite values are
    never contaminated by it.  NaN and +inf are rejected at construction.
    """

    value: float

    def __post_init__(self):
        v = float(check_maxplus_values(self.value, "a max-plus value"))
        object.__setattr__(self, "value", v)

    @property
    def is_bottom(self) -> bool:
        return self.value == _NEG_INF

    def __repr__(self):
        return "BOTTOM" if self.is_bottom else f"MaxPlus({self.value!r})"


BOTTOM = MaxPlus(_NEG_INF)


def pressure(density, g) -> Union[float, np.ndarray]:
    """The pressure: the max over points of density + g.

    ``density`` is a 1-D table of max-plus values, -inf off a nonempty
    support.  ``g`` has shape ``(n,)`` for one observable or ``(n, k)``
    for one observable per column, its values max-plus values too.  The
    value is a float for 1-D ``g`` and a ``(k,)`` array otherwise.
    """
    dens = check_maxplus_values(density, "density values")
    if dens.ndim != 1:
        raise ValueError("density must be a 1-D table")
    if dens.size == 0:
        raise ValueError("empty density")
    if not np.isfinite(dens).any():
        raise ValueError("density has empty support")
    g = check_maxplus_values(g, "observables")
    if g.ndim not in (1, 2) or g.shape[0] != dens.size:
        raise ValueError(
            f"{dens.size} density values but observables of shape {g.shape}"
        )
    best = ((dens if g.ndim == 1 else dens[:, None]) + g).max(axis=0)
    return float(best) if g.ndim == 1 else best


def check_maxplus_probability(table) -> np.ndarray:
    """Check that ``table`` is an idempotent probability along axis 0 and
    return it as a new float array with every value within
    NORMALIZATION_TOL of 0 set to exactly 0, so that each column max is 0.

    Every value must be real or -inf and at most NORMALIZATION_TOL,
    and the max over axis 0 (of each column of a 2-D table) must be 0
    within NORMALIZATION_TOL.  Bottom, -inf, is allowed anywhere else.
    """
    table = check_maxplus_values(table, "max-plus weights")
    if (table > NORMALIZATION_TOL).any():
        raise ValueError("max-plus weights must be <= 0")
    tops = np.atleast_1d(table.max(axis=0))
    worst = float(tops[np.abs(tops).argmax()])
    if abs(worst) > NORMALIZATION_TOL:
        raise ValueError(f"the largest weight must attain 0, not {worst!r}")
    return np.where(np.abs(table) <= NORMALIZATION_TOL, 0.0, table)
