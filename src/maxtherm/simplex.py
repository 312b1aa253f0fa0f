"""Pressure on the probability simplex of a finite alphabet.

A level-1 observable, a function on the alphabet {1..d}, is a float array
of shape ``(d,)``; a family of them is one ``(k, d)`` array, one
observable per row.  A level-2 observable, a function on the simplex, is
a plain function evaluated row-wise: ``(N, d)`` points to ``N`` values.
The inclusion j(phi)(p) = p . phi takes the first kind to the second.
The convex pressure Gamma(phi) = max_p h(p) + p . phi of a density h is
a ``(k,)`` table over a family, built once by ``convex_pressure_gamma``;
``entropy_recovery`` is its conjugate at a target mu, min over the rows
of Gamma(phi) - mu . phi, and runs no maximization.
A probability vector handed in by a caller goes through
``as_prob_vector``, which is ``shift.check_probability_rows`` on one row.
Every pressure on the simplex is one ``level2_pressure(h, g, grid)``, a
coarse lattice scan followed by local refinement, which handles
non-concave objectives whose maximizer set may be disconnected.  A
measure family is a density on its own simplex, its KS entropy:
``shannon_entropy_table`` for Bernoulli measures on the symbol simplex,
``markov_entropy_table`` for one-step Markov measures on {1, 2} on the
pair simplex ``MARKOV_GRID``.  A nonlinear pressure is g = F(integral of
A), taken against the symbol masses or ``markov_marginal``.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .semiring import NORMALIZATION_TOL
from .shift import MAX_CELLS, check_count, check_probability_rows

ZERO_MASS = 1e-15  # masses at or below this count as zero for the minimizer log mu


def as_prob_vector(masses) -> np.ndarray:
    """Validate and return a probability vector as a float array."""
    p = np.array(masses, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("probability vector must be a nonempty 1-D array")
    return check_probability_rows(p[None])[0]


def shannon_entropy_table(points: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy -sum p log p in nats, with 0 log 0 = 0, of
    an (N, d) array of probability vectors."""
    pts = np.asarray(points, dtype=float)
    safe = np.where(pts > 0.0, pts, 1.0)
    return -(np.where(pts > 0.0, pts * np.log(safe), 0.0)).sum(axis=1)


def shannon_entropy(p) -> float:
    """Shannon entropy of one checked probability vector."""
    return float(shannon_entropy_table(as_prob_vector(p)[None])[0])


def gibbs_solution(g) -> np.ndarray:
    """The softmax vector e^{g_j} / sum_k e^{g_k} of a level-1 observable.

    This is the unique maximizer of Shannon entropy + j(g), and the
    pressure value there is log sum_k e^{g_k}.
    """
    a = np.asarray(g, dtype=float)
    w = np.exp(a - a.max())
    return w / w.sum()


def log_sum_exp(g) -> float:
    a = np.asarray(g, dtype=float)
    m = a.max()
    return float(m + np.log(np.exp(a - m).sum()))


# ---------------------------------------------------------------------------
# Simplex lattice + local refinement search
# ---------------------------------------------------------------------------


def _compositions(m: int, d: int) -> np.ndarray:
    """All length-d tuples of nonnegative ints summing to m, lexicographic."""
    if d == 1:
        return np.array([[m]], dtype=np.int64)
    rows = []
    for first in range(m + 1):
        rest = _compositions(m - first, d - 1)
        block = np.empty((rest.shape[0], d), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = rest
        rows.append(block)
    return np.vstack(rows)


@functools.lru_cache(maxsize=8)
def _lattice(m: int, d: int) -> np.ndarray:
    """The 1/m lattice on the d-simplex, built once per (m, d)."""
    pts = _compositions(m, d) / float(m)
    pts.flags.writeable = False
    return pts


@dataclass(frozen=True)
class SimplexGrid:
    """Lattice of probability vectors with masses in multiples of 1/m.

    ``d`` and ``m`` are integers, and the C(m+d-1, d-1) points' d masses
    must fit in ``shift.MAX_CELLS`` cells."""

    d: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "d", check_count("simplex dimension d", self.d, 2))
        object.__setattr__(self, "m", check_count("grid resolution m", self.m, 1))

        def cells(m: int) -> int:
            return math.comb(m + self.d - 1, self.d - 1) * self.d

        if cells(self.m) > MAX_CELLS:
            fits = bisect.bisect_right(range(self.m), MAX_CELLS, key=cells) - 1
            raise ValueError(
                f"the (d={self.d}, m={self.m}) lattice has {cells(self.m)} cells, "
                f"over the budget of {MAX_CELLS}; use m <= {fits}"
            )

    def points(self) -> np.ndarray:
        """The lattice as an (N, d) array, shared and read-only."""
        return _lattice(self.m, self.d)


def _spread_candidates(
    points: np.ndarray, values: np.ndarray, k: int, min_sep: float
) -> List[int]:
    """Pick up to k high-value indices pairwise separated in sup norm.

    Plain top-k would pile every candidate onto the same bump; the
    separation keeps distinct near-maximizers alive for refinement.
    """
    order = np.argsort(values)[::-1]
    order = order[np.isfinite(values[order])]
    chosen: List[int] = []
    for i in order.tolist():
        if not chosen or np.abs(points[chosen] - points[i]).max(axis=1).min() >= min_sep:
            chosen.append(i)
            if len(chosen) == k:
                break
    return chosen


@dataclass
class SimplexMax:
    value: float
    argmax: np.ndarray          # (k, d) all near-maximizers found
    evaluations: int = 0


PATCH_AXIS = 9      # patch points per free axis in each refinement round
REFINE_ROUNDS = 6   # refinement rounds after the lattice scan
SHRINK = 0.2        # patch half-width factor per round, from one lattice cell
TOP_K = 8           # spread-out lattice candidates that are refined
DEDUP_TOL = 1e-6    # near-maximizers closer than this in sup norm are one


def _scores(objective: Callable[[np.ndarray], np.ndarray], points: np.ndarray) -> np.ndarray:
    """The objective on (N, d) points as a float array, real or -inf."""
    vals = np.asarray(objective(points), dtype=float)
    if not (vals < np.inf).all():   # false exactly at NaN and +inf
        raise ValueError("objective values must be real or -inf, not NaN or +inf")
    return vals


def _refine(
    objective: Callable[[np.ndarray], np.ndarray],
    centers: np.ndarray,
    bests: np.ndarray,
    width: float,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Refine all candidates in lock-step; returns (centers, bests, evaluations).

    Each of ``REFINE_ROUNDS`` rounds rescans, around every candidate, a
    patch of ``PATCH_AXIS`` points per free axis with half-width ``width``
    clipped to [0, 1], the candidate itself being the patch's last row.
    All patches go to the objective in one stacked call.  The last
    coordinate is 1 - sum of the others, and patch rows that would make it
    negative are not evaluated: they are masked to -inf, so ``argmax``
    sees the same rows in the same order as a per-candidate scan.
    ``width`` shrinks by ``SHRINK`` per round.
    """
    k, n_free = len(centers), centers.shape[1] - 1
    # (R, n_free) axis indices of the R patch rows, in meshgrid "ij" order
    ij = np.indices((PATCH_AXIS,) * n_free).reshape(n_free, -1).T
    rows_k = np.arange(k)
    n_eval = 0
    for _ in range(REFINE_ROUNDS):
        c = centers[:, :n_free]
        axes = np.linspace(
            np.maximum(0.0, c - width), np.minimum(1.0, c + width), PATCH_AXIS, axis=-1
        )
        free = axes[:, np.arange(n_free), ij]                 # (k, R, n_free)
        last = 1.0 - free.sum(axis=2)
        patch = np.concatenate([free, np.clip(last, 0.0, 1.0)[..., None]], axis=2)
        patch = np.concatenate([patch, centers[:, None, :]], axis=1)
        keep = np.concatenate([last >= -NORMALIZATION_TOL, np.ones((k, 1), bool)], axis=1)
        pv = np.full(keep.shape, -np.inf)
        pv[keep] = _scores(objective, patch[keep])
        n_eval += int(keep.sum())
        j = pv.argmax(axis=1)
        top = pv[rows_k, j]
        better = top > bests
        centers = np.where(better[:, None], patch[rows_k, j], centers)
        bests = np.where(better, top, bests)
        width *= SHRINK
    return centers, bests, n_eval


def maximize_on_simplex(
    objective: Callable[[np.ndarray], np.ndarray],
    grid: SimplexGrid,
    argmax_tol: float = 1e-9,
) -> SimplexMax:
    """Maximize a row-wise objective over the simplex.

    Coarse lattice scan, then ``REFINE_ROUNDS`` rounds of local rescans
    around the ``TOP_K`` spread-out candidates.  The objective is real, or
    -inf off the support; NaN or +inf at any scanned point, on the lattice
    or in a patch, is a ``ValueError``.  The incumbent point is
    carried into every local patch, so the result can never fall below
    the coarse-grid max.  Returns all refined candidates within
    ``argmax_tol`` of the best, deduplicated at ``DEDUP_TOL``.
    """
    points = grid.points()
    vals = _scores(objective, points)
    cand_idx = _spread_candidates(points, vals, TOP_K, min_sep=2.5 / grid.m)
    if not cand_idx:
        raise ValueError("objective is -inf on the whole grid")
    centers, bests, n_refine = _refine(
        objective, points[cand_idx], vals[cand_idx], 1.0 / grid.m
    )

    top = float(bests.max())
    near = np.flatnonzero(bests >= top - argmax_tol)
    near = near[np.argsort(-bests[near], kind="stable")]
    argmax: List[np.ndarray] = []
    for p in centers[near]:
        if all(np.max(np.abs(p - q)) > DEDUP_TOL for q in argmax):
            argmax.append(p)
    return SimplexMax(value=top, argmax=np.array(argmax), evaluations=len(vals) + n_refine)


# ---------------------------------------------------------------------------
# Level-2 pressure and the convex-pressure projection
# ---------------------------------------------------------------------------


def level2_pressure(
    h: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    grid: SimplexGrid,
    argmax_tol: float = 1e-9,
) -> SimplexMax:
    """max over the simplex of h(p) + g(p) with the equilibrium set.

    h is a density table evaluator and g a level-2 observable, both
    row-wise over (N, d) points; h may be -inf outside its support.  The
    returned set of near-maximizers may have several elements and need
    not be convex.
    """

    def obj(pts: np.ndarray) -> np.ndarray:
        return np.asarray(h(pts), dtype=float) + g(pts)

    return maximize_on_simplex(obj, grid, argmax_tol=argmax_tol)


def convex_pressure_gamma(
    h: Callable[[np.ndarray], np.ndarray],
    family,
    grid: SimplexGrid,
) -> np.ndarray:
    """The Gamma table of a ``(k, d)`` family: row i is the pressure of
    the included observable j(phi_i)(p) = p . phi_i, a ``(k,)`` array."""
    phis = np.asarray(family, dtype=float)
    if phis.ndim != 2 or phis.shape[1] != grid.d:
        raise ValueError(f"family must be a (k, {grid.d}) array, got shape {phis.shape}")
    return np.array([level2_pressure(h, lambda pts: pts @ phi, grid).value
                     for phi in phis])


@dataclass
class PressureAxiomsReport:
    """Worst violations of monotonicity, translation invariance, convexity."""

    monotonicity: float
    translation: float
    convexity: float

    @property
    def worst(self) -> float:
        return max(self.monotonicity, self.translation, self.convexity)


def pressure_axioms_check(
    h: Callable[[np.ndarray], np.ndarray],
    grid: SimplexGrid,
    trials: int = 20,
    seed: int = 0,
) -> PressureAxiomsReport:
    """Property-check the three convex-pressure axioms on random observables
    with coefficients uniform in [-2, 2].

    Violations are bounded by the grid error of the maximization, so they
    must be small but need not be exactly zero.
    """
    check_count("trials", trials, 1)
    rng = np.random.default_rng(seed)
    worst_mono = worst_trans = worst_conv = 0.0
    for _ in range(trials):
        a = rng.uniform(-2.0, 2.0, grid.d)
        b = rng.uniform(-2.0, 2.0, grid.d)
        bigger = a + np.abs(rng.uniform(0, 1, grid.d))
        c = float(rng.uniform(-3, 3))
        t = float(rng.uniform(0, 1))
        gam_phi, gam_psi, gam_bigger, shifted, mix = convex_pressure_gamma(
            h, np.array([a, b, bigger, a + c, t * a + (1 - t) * b]), grid
        ).tolist()
        worst_mono = max(worst_mono, gam_phi - gam_bigger)
        worst_trans = max(worst_trans, abs(shifted - gam_phi - c))
        worst_conv = max(worst_conv, mix - t * gam_phi - (1 - t) * gam_psi)
    return PressureAxiomsReport(worst_mono, worst_trans, worst_conv)


def affine_observable_family(
    d: int, lo: float = -6.0, hi: float = 6.0, num: int = 241
) -> np.ndarray:
    """Coefficient grid of observables with last coordinate pinned to 0, as
    a ``(k, d)`` array with one observable per row.

    Translation invariance makes the pinned coordinate harmless: adding a
    constant changes the recovered value by nothing.
    """
    per_axis = max(3, int(round(num ** (1.0 / (d - 1)))))
    mesh = np.meshgrid(*[np.linspace(lo, hi, per_axis)] * (d - 1), indexing="ij")
    free = np.column_stack([m.ravel() for m in mesh])
    return np.column_stack([free, np.zeros(len(free))])


def shannon_recovery_minimizer(mu) -> np.ndarray:
    """The analytic minimizer log mu for recovering Shannon entropy."""
    p = as_prob_vector(mu)
    if (p <= ZERO_MASS).any():
        raise ValueError("analytic minimizer needs strictly positive masses")
    return np.log(p)


def entropy_recovery(gamma, family, mu) -> float:
    """Recover the concave entropy bound at mu from a Gamma table.

    Returns min over the rows phi of the ``(k, d)`` family of
    Gamma(phi) - integral of phi d(mu), where ``gamma`` is the family's
    table from ``convex_pressure_gamma``.  This is an upper approximation
    that decreases as the family grows; it majorizes h(mu) whenever mu is
    one of the scanned lattice points.
    """
    p = as_prob_vector(mu)
    phis = np.asarray(family, dtype=float)
    gam = np.asarray(gamma, dtype=float)
    if phis.shape[1:] != p.shape or len(phis) == 0 or gam.shape != (len(phis),):
        raise ValueError(f"recovery at mu in R^{p.size} needs a nonempty (k, {p.size}) "
                         f"family and its (k,) Gamma table, got {phis.shape}, {gam.shape}")
    # one 1-D dot per row: a matrix product may change the last bit
    return float(min(g - float(phi @ p) for g, phi in zip(gam, phis)))


def concave_envelope_1d(xs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Upper concave envelope of finite values tabulated on a 1-D grid.

    Computed as the upper convex hull of the graph, then interpolated back
    onto the grid.  Only d=2 simplices reduce to this 1-D case.
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if xs.ndim != 1 or xs.shape != vals.shape:
        raise ValueError("xs and vals must be equal-length 1-D arrays")
    if not np.isfinite(vals).all():
        raise ValueError("envelope needs finite values")
    order = np.argsort(xs)
    hull: List[Tuple[float, float]] = []
    for i in order:
        x, y = float(xs[i]), float(vals[i])
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append((x, y))
    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    return np.interp(xs, hx, hy)


# ---------------------------------------------------------------------------
# The one-step Markov family on {1, 2} as a density on its pair simplex
# ---------------------------------------------------------------------------

MARKOV_GRID = SimplexGrid(3, 60)  # pair simplex of the one-step Markov family


def markov_marginal(points: np.ndarray) -> np.ndarray:
    """Stationary marginal (x + w/2, z + w/2) of one-step Markov measures
    on {1, 2}, one per row (x, w, z) = (pi11, pi12 + pi21, pi22) of pair
    masses, as an (N, 2) array."""
    half = points[:, 1] / 2.0
    return np.column_stack([points[:, 0] + half, points[:, 2] + half])


def markov_entropy_table(points: np.ndarray) -> np.ndarray:
    """KS entropy H(pair) - H(marginal) of the one-step Markov measures at
    (N, 3) pair points (x, w, z), whose pair distribution is
    (x, w/2, w/2, z)."""
    pair = points[:, [0, 1, 1, 2]] * [1.0, 0.5, 0.5, 1.0]
    return shannon_entropy_table(pair) - shannon_entropy_table(markov_marginal(points))
