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
Every number table from a caller or its objective is read by
``semiring.check_numbers``.  A probability vector goes through
``as_prob_vector``, ``shift.check_probability_rows`` on one row;
observables, families and grids, tables of finite reals, through
``shift.check_real``; objective values and Gamma tables, max-plus values,
real or -inf, through ``semiring.check_maxplus_values``.
Every pressure on the simplex comes from one lock-step search, a coarse
lattice scan followed by local refinement around spread-out candidates,
which handles non-concave objectives whose maximizer set may be
disconnected.  It maximizes h(p) + p . phi for a family of k tilts phi at
once: h is called once on the lattice and once per refinement round,
whatever k is, and each row's tilt is its own product, so a row gets the
bits of a search of its own.  ``convex_pressure_gamma`` is that search;
``level2_pressure(h, g, grid)``, which also returns the equilibrium set,
is its case of one zero tilt, maximizing h + g for a level-2 observable
g.  A measure family is a density on its own simplex, its KS entropy:
``shannon_entropy_table`` for Bernoulli measures on the symbol simplex,
``markov_entropy_table`` for one-step Markov measures on {1, 2} on the
pair simplex ``MARKOV_GRID``.  A nonlinear pressure is g = F(integral of
A), taken against the symbol masses or ``markov_marginal``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .semiring import NORMALIZATION_TOL, check_maxplus_values, check_numbers
from .shift import (check_cells, check_count, check_probability_rows, check_real, count_text,
                    row_blocks)

ZERO_MASS = 1e-15  # masses at or below this count as zero for the minimizer log mu


def as_prob_vector(masses) -> np.ndarray:
    """Validate and return a probability vector as a float array."""
    p = check_numbers("masses", masses)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("probability vector must be a nonempty 1-D array")
    return check_probability_rows(p[None])[0]


def shannon_entropy_table(points: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy -sum p log p in nats, with 0 log 0 = 0, of
    an (N, d) array of probability vectors."""
    pts = check_numbers("points", points)
    safe = np.where(pts > 0.0, pts, 1.0)
    return -(np.where(pts > 0.0, pts * np.log(safe), 0.0)).sum(axis=1)


def shannon_entropy(p) -> float:
    """Shannon entropy of one checked probability vector."""
    return float(shannon_entropy_table(as_prob_vector(p)[None])[0])


def gibbs_solution(g) -> np.ndarray:
    """The softmax vector e^{g_j} / sum_k e^{g_k} of a finite level-1 observable.

    This is the unique maximizer of Shannon entropy + j(g), and the
    pressure value there is log sum_k e^{g_k}.
    """
    a = check_real("g", g)
    w = np.exp(a - np.max(a))
    return w / w.sum()


def log_sum_exp(g) -> float:
    a = check_real("g", g)
    m = np.max(a)
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
        d = count_text(self.d)
        check_cells(f"the (d={d}, m={count_text(self.m)}) lattice", "m", self.m,
                    lambda m: math.comb(m + self.d - 1, self.d - 1) * self.d, f"d = {d}")

    def points(self) -> np.ndarray:
        """The lattice as an (N, d) array, shared and read-only."""
        return _lattice(self.m, self.d)


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


def _spread_candidates(points: np.ndarray, values: np.ndarray, min_sep: float) -> np.ndarray:
    """Pick, for every row of a ``(B, N)`` value table on the lattice
    ``points``, up to ``TOP_K`` high-value indices pairwise separated in
    sup norm, as a ``(B, TOP_K)`` array padded with -1.

    Plain top-k would pile every candidate onto the same bump; the
    separation keeps distinct near-maximizers alive for refinement.  Each
    row walks its finite values from the largest down, greedily; the rows
    take their steps in lock-step, one vectorized step for all of them.
    """
    order = np.argsort(values, axis=1)[:, ::-1]
    n_finite = np.isfinite(values).sum(axis=1)     # -inf sorts last
    chosen = np.full((len(values), TOP_K), -1)
    # unfilled slots sit at infinity, so they never block a candidate
    picked = np.full((len(values), TOP_K, points.shape[1]), np.inf)
    count = np.zeros(len(values), dtype=np.int64)
    active = np.flatnonzero(n_finite > 0)
    step = 0
    while active.size:
        i = order[active, step]
        p = points[i]
        far = np.abs(picked[active] - p[:, None, :]).max(axis=2).min(axis=1) >= min_sep
        rows = active[far]
        slots = count[rows]
        chosen[rows, slots] = i[far]
        picked[rows, slots] = p[far]
        count[rows] = slots + 1
        step += 1
        active = active[(count[active] < TOP_K) & (n_finite[active] > step)]
    return chosen


def _tilted(vals: np.ndarray, pts: np.ndarray, family, counts) -> np.ndarray:
    """``vals + pts @ phi`` on each family row's run of ``counts`` points.
    Each row takes its own matrix-vector product: a stacked product may
    change the last bit."""
    out = np.empty_like(vals)
    ends = np.cumsum(counts)
    for a, b, phi in zip(ends - counts, ends, family):
        out[a:b] = vals[a:b] + pts[a:b] @ phi
    return check_maxplus_values(out, "objective values")


def _refine(
    score: Callable[[np.ndarray, np.ndarray], np.ndarray],
    centers: np.ndarray,
    bests: np.ndarray,
    owner: np.ndarray,
    rows: int,
    width: float,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Refine all candidates of all rows in lock-step; returns (centers,
    bests, evaluations).

    Each of ``REFINE_ROUNDS`` rounds rescans, around every candidate, a
    patch of ``PATCH_AXIS`` points per free axis with half-width ``width``
    clipped to [0, 1], the candidate itself being the patch's last row.
    All patches go to ``score(points, counts)`` in one stacked call, in
    candidate order; ``owner`` (ascending) names each candidate's row and
    ``counts`` the points of each of the ``rows`` rows.  The last
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
        kept = keep.sum(axis=1)
        pv = np.full(keep.shape, -np.inf)
        pv[keep] = score(patch[keep], np.bincount(owner, kept, rows).astype(np.int64))
        n_eval += int(kept.sum())
        j = pv.argmax(axis=1)
        top = pv[rows_k, j]
        better = top > bests
        centers = np.where(better[:, None], patch[rows_k, j], centers)
        bests = np.where(better, top, bests)
        width *= SHRINK
    return centers, bests, n_eval


def _search(objective, grid: SimplexGrid, family):
    """Scan and refine, in lock-step, the max over the simplex of
    objective(p) + p . phi for every row phi of a ``(k, d)`` family; that
    of objective(p) alone is the search of one zero row.

    ``objective`` is called once on the lattice, and once per refinement
    round on every row's patch points together; each row's tilt is its
    own product, so every row gets the bits of a one-row search.  The
    rows are scanned in ``shift.row_blocks``, so no ``(N, k)`` table is
    held.  A row whose values hold NaN or +inf, or are -inf on the whole
    lattice, is a ``ValueError``, the first such row raising.  Returns
    ``(centers, bests, owner, evaluations)``: the refined candidates, their
    values and rows, all in row order, and the number of points scored for
    the rows together.
    """
    points = grid.points()
    rows = len(family)
    base = check_numbers("objective values", objective(points))
    centers, bests, owner = [], [], []
    for block in row_blocks(rows, len(points)):
        vals = np.array([base + points @ phi for phi in family[block]])
        fail = np.flatnonzero(~(vals < np.inf).all(axis=1) | ~(vals > -np.inf).any(axis=1))
        if fail.size:
            check_maxplus_values(vals[fail[0]], "objective values")
            raise ValueError("objective is -inf on the whole grid")
        idx = _spread_candidates(points, vals, min_sep=2.5 / grid.m)
        r, slot = np.nonzero(idx >= 0)
        centers.append(points[idx[r, slot]])
        bests.append(vals[r, idx[r, slot]])
        owner.append(block.start + r)
    owner = np.concatenate(owner)
    centers, bests, n_refine = _refine(
        lambda pts, counts: _tilted(check_numbers("objective values", objective(pts)),
                                    pts, family, counts),
        np.concatenate(centers), np.concatenate(bests), owner, rows, 1.0 / grid.m,
    )
    return centers, bests, owner, rows * len(points) + n_refine


def maximize_on_simplex(
    objective: Callable[[np.ndarray], np.ndarray],
    grid: SimplexGrid,
    argmax_tol: float = 1e-9,
) -> SimplexMax:
    """Maximize a row-wise objective over the simplex.

    The search of one zero tilt, whose adding 0.0 turns a maximum of -0.0
    into +0.0 and keeps every other bit: a coarse lattice scan, then
    ``REFINE_ROUNDS`` rounds of local rescans around the ``TOP_K``
    spread-out candidates, one objective call each.  The objective is
    real, or -inf off the support; NaN or +inf at any scanned point, on
    the lattice or in a patch, is a ``ValueError``.  The incumbent point
    is carried into every local patch, so the result can never fall below
    the coarse-grid max.  Returns all refined candidates within
    ``argmax_tol`` (finite, >= 0) of the best, deduplicated at
    ``DEDUP_TOL``.
    """
    argmax_tol = check_real("argmax_tol", argmax_tol, least=0)
    centers, bests, _, n_eval = _search(objective, grid, np.zeros((1, grid.d)))
    top = float(bests.max())
    near = np.flatnonzero(bests >= top - argmax_tol)
    near = near[np.argsort(-bests[near], kind="stable")]
    argmax: List[np.ndarray] = []
    for p in centers[near]:
        if all(np.max(np.abs(p - q)) > DEDUP_TOL for q in argmax):
            argmax.append(p)
    return SimplexMax(value=top, argmax=np.array(argmax), evaluations=n_eval)


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
    return maximize_on_simplex(lambda pts: check_numbers("density values", h(pts)) + g(pts),
                               grid, argmax_tol=argmax_tol)


def convex_pressure_gamma(
    h: Callable[[np.ndarray], np.ndarray],
    family,
    grid: SimplexGrid,
) -> np.ndarray:
    """The ``(k,)`` Gamma table of a finite real ``(k, d)`` family: row i is
    the pressure of the included observable j(phi_i)(p) = p . phi_i.

    One lock-step search for the whole family: h is called once on the
    lattice and once per refinement round, whatever k is, and every entry
    has the bits of ``level2_pressure(h, lambda p: p @ phi_i, grid).value``.
    """
    phis = check_real("family", family)
    if np.ndim(phis) != 2 or phis.shape[1] != grid.d:
        raise ValueError(f"family must be a (k, {grid.d}) array, got shape {np.shape(phis)}")
    if not len(phis):
        return np.empty(0)
    _, bests, owner, _ = _search(h, grid, phis)
    return np.maximum.reduceat(bests, np.searchsorted(owner, np.arange(len(phis))))


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
    with coefficients uniform in [-2, 2].  All ``trials`` draws of five
    observables each are priced in one Gamma table.

    Violations are bounded by the grid error of the maximization, so they
    must be small but need not be exactly zero.
    """
    trials = check_count("trials", trials, 1)
    rng = np.random.default_rng(check_count("seed", seed))
    family, consts = [], []
    for _ in range(trials):
        a = rng.uniform(-2.0, 2.0, grid.d)
        b = rng.uniform(-2.0, 2.0, grid.d)
        bigger = a + np.abs(rng.uniform(0, 1, grid.d))
        c = float(rng.uniform(-3, 3))
        t = float(rng.uniform(0, 1))
        family += [a, b, bigger, a + c, t * a + (1 - t) * b]
        consts.append((c, t))
    gammas = convex_pressure_gamma(h, np.array(family), grid).reshape(trials, 5)
    worst_mono = worst_trans = worst_conv = 0.0
    for (gam_phi, gam_psi, gam_bigger, shifted, mix), (c, t) in zip(gammas.tolist(), consts):
        worst_mono = max(worst_mono, gam_phi - gam_bigger)
        worst_trans = max(worst_trans, abs(shifted - gam_phi - c))
        worst_conv = max(worst_conv, mix - t * gam_phi - (1 - t) * gam_psi)
    return PressureAxiomsReport(worst_mono, worst_trans, worst_conv)


AFFINE_SPAN = 6.0     # the free coefficients of the affine family lie in [-6, 6]
AFFINE_COUNT = 241    # about this many observables in the affine family


def affine_observable_family(d: int) -> np.ndarray:
    """Coefficient grid of observables with last coordinate pinned to 0, as
    a ``(k, d)`` array with one observable per row.

    Translation invariance makes the pinned coordinate harmless: adding a
    constant changes the recovered value by nothing.
    """
    d = check_count("simplex dimension d", d, 2)
    per_axis = max(3, int(round(AFFINE_COUNT ** (1.0 / (d - 1)))))
    axis = np.linspace(-AFFINE_SPAN, AFFINE_SPAN, per_axis)
    mesh = np.meshgrid(*[axis] * (d - 1), indexing="ij")
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
    one of the scanned lattice points.  Gamma values are real or -inf and
    the family's entries finite reals; anything else raises ``ValueError``.
    """
    p = as_prob_vector(mu)
    phis = check_real("family", family)
    gam = check_maxplus_values(gamma, "Gamma values")
    if np.shape(phis)[1:] != p.shape or len(phis) == 0 or gam.shape != (len(phis),):
        raise ValueError(f"recovery at mu in R^{p.size} needs a nonempty (k, {p.size}) "
                         f"family and its (k,) Gamma table, got {np.shape(phis)}, {gam.shape}")
    # one 1-D dot per row: a matrix product may change the last bit
    return float(min(g - float(phi @ p) for g, phi in zip(gam, phis)))


def concave_envelope_1d(xs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Upper concave envelope of finite values tabulated on a finite 1-D grid.

    Computed as the upper convex hull of the graph, then interpolated back
    onto the grid.  Only d=2 simplices reduce to this 1-D case.
    """
    xs = check_real("xs", xs)
    vals = check_real("vals", vals)
    if np.ndim(xs) != 1 or np.shape(xs) != np.shape(vals):
        raise ValueError("xs and vals must be equal-length 1-D arrays")
    hull: List[Tuple[float, float]] = []
    for i in np.argsort(xs):
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
