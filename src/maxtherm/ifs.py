"""Invariant pressures from contractive families of dual transfer operators.

A finite family of normalized kernels with nonpositive weights (max weight
0) drives an iterated function system on the space of probabilities: every
length-N word of kernel indices produces a composition image of a seed
measure, and the density entropy at a measure is the best cumulative
weight among words whose images land near it.  Because each dual operator
contracts W1 by r = (d+1) gamma, images of words sharing a prefix of
length k agree to within r^k, so a truncated enumeration with cluster
merging approximates the attractor with a computable error.  The images
of all words of one length are one table, grown from the level before by
one ``dual_rows`` product of every kernel against every row.  Only the
level before the last is held whole: the last one is grown from it in
``shift.row_blocks``.  The merged build (eps > 0) clusters each block as
it arrives, one batched tree-W1 pass per leaf over the block's words not
yet in a leaf, and keeps copies of the leaves' images; the exact (eps=0)
build keeps every block, its leaves being views of their rows, and the
exact invariant pressure needs one score per word, not the images.

The second half of the module is the combinatorial max-plus IFS: a finite
point set, one map per index, and normalized nonpositive weights, with the
composition (Ruelle) operator on observables, the transfer operator on
densities, and the induced operator on pressures, which are mutually
dual.  The Ruelle operator takes one observable or one per column, so the
invariance check runs its whole family in one call.  The pushforward by a
symbol map sends the 1/m simplex lattice into itself, so on the lattice
it is a one-map max-plus IFS at weight 0, and its invariance is checked
by the same code.  The fixed density is
computed by iterating the transfer operator itself, in two phases that
each end within points + 1 passes at an exact float fixed point: the
zero-weight subsystem from the zero density finds the points reached from
a zero cycle, and the full system from their indicator settles the
values.  The inverse problem returns the constant-map system that makes
a given density invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .semiring import (MaxPlus, check_maxplus_probability, check_maxplus_values, check_numbers,
                       pressure)
from .shift import (
    CylinderMeasure,
    Jacobian,
    check_cells,
    check_count,
    check_real,
    count_text,
    dual_apply,
    dual_rows,
    row_blocks,
)
from .simplex import SimplexGrid
from .transport import tree_levels, w1_tree, w1_tree_levels


# ---------------------------------------------------------------------------
# Weighted kernel families and their attractor
# ---------------------------------------------------------------------------


class WeightedJacobianFamily:
    """Finitely many kernels with nonpositive weights whose max is 0."""

    def __init__(self, jacobians: Sequence[Jacobian], weights):
        if not jacobians:
            raise ValueError("family must contain at least one kernel")
        space = jacobians[0].space
        if any(J.space != space for J in jacobians):
            raise ValueError("all kernels must share one space")
        if np.shape(weights) != (len(jacobians),):
            raise ValueError(
                f"one weight per kernel required: a 1-D table of {len(jacobians)}, "
                f"got shape {np.shape(weights)}"
            )
        self.jacobians = list(jacobians)
        self.weights = check_maxplus_probability(weights)
        self.space = space

    def __len__(self) -> int:
        return len(self.jacobians)

    @property
    def contraction_rate(self) -> float:
        return self.space.contraction_rate


@dataclass
class AttractorLeaf:
    word: Tuple[int, ...]          # kernel indices 1..m, outermost first
    measure: CylinderMeasure
    weight: float                  # cumulative weight, best in its cluster
    radius: float = 0.0            # max W1 from the representative measure
    merged: int = 1                # number of raw words in the cluster


@dataclass
class AttractorSample:
    leaves: List[AttractorLeaf]
    epsilon: float
    rate: float
    word_length: int
    raw_count: int


def _checked_word_length(fam: WeightedJacobianFamily, word_length,
                         nu0: CylinderMeasure) -> int:
    """``word_length`` as an int, once it is an integer >= 1 whose last
    level of m^N images passes ``check_cells``, and once every kernel
    applies to ``nu0``, with ``dual_apply``'s messages."""
    word_length = check_count("word length", word_length, 1)
    m, d = len(fam), fam.space.d
    check_cells(f"a level of {m}^{count_text(word_length)} images of "
                f"{d}^{count_text(nu0.depth + word_length)} masses", "word_length",
                word_length, lambda n: m ** n * d ** (nu0.depth + n),
                f"the seed depth {nu0.depth}")
    if nu0.space != fam.space:
        raise ValueError("kernel and measure live on different spaces")
    deepest = max(J.depth for J in fam.jacobians)
    if deepest > nu0.depth + 1:
        raise ValueError(
            f"kernel depth {deepest} exceeds measure depth {nu0.depth} + 1; "
            "refine the measures first"
        )
    return word_length


def _grow(fam: WeightedJacobianFamily, table: np.ndarray) -> np.ndarray:
    """The next level of suffix images: row k*m + i is kernel i applied to
    row k of ``table``, one ``dual_rows`` product of the family's kernels,
    all viewed at the deepest one's depth, against every row."""
    depth = max(J.depth for J in fam.jacobians)
    kernels = np.array([J.at_depth(depth) for J in fam.jacobians])
    image = dual_rows(fam.space, kernels, table[:, None])
    return image.reshape(-1, image.shape[-1])


def _last_level(fam: WeightedJacobianFamily, word_length: int,
                nu0: CylinderMeasure) -> Iterator[np.ndarray]:
    """The images of every length-``word_length`` suffix, in row order: the
    level before the last is grown whole by ``_grow``, and the last from it
    in ``shift.row_blocks`` of about ``BLOCK_CELLS`` image cells, so only
    that level and one block are held, 1/(m d) of the last level's cells."""
    table = nu0.masses[None]
    for _ in range(word_length - 1):
        table = _grow(fam, table)
    for block in row_blocks(len(table), len(fam) * fam.space.d * table.shape[1]):
        yield _grow(fam, table[block])


def _word_weights(fam: WeightedJacobianFamily, n: int) -> np.ndarray:
    """The cumulative weights of the m^n words, in the row order of the
    level of their images."""
    weights = np.zeros(1)
    for _ in range(n):
        weights = (weights[:, None] + fam.weights[None, :]).ravel()
    return weights


def _words(rows: np.ndarray, m: int, n: int) -> List[Tuple[int, ...]]:
    """The length-n words of rows of a level: row k's word lists its
    base-m digits plus 1, least significant (outermost) first."""
    digits = rows[:, None] // m ** np.arange(n)
    digits %= m
    digits += 1
    return [tuple(w) for w in digits.tolist()]


def _merged_leaves(fam: WeightedJacobianFamily, word_length: int,
                   nu0: CylinderMeasure, eps: float) -> List[AttractorLeaf]:
    """The leaves of ``attractor_build`` at eps > 0, clustered while
    ``_last_level`` streams: each word in turn joins the first earlier
    leaf within eps, else starts a leaf that later words may join.

    A block's rows meet the leaves in order, one ``w1_tree_levels`` pass
    per leaf over the rows that have joined none yet; once the leaves run
    out, the first row left starts a leaf and the rest meet it.  A leaf
    owns a copy of its first image, and the build a copy of that image's
    ``tree_levels``, so it holds the level before the last, one block and
    the leaves.
    """
    space, m = fam.space, len(fam)
    weights = _word_weights(fam, word_length)
    depth = nu0.depth + word_length
    cells = space.d ** depth
    leaves: List[AttractorLeaf] = []
    reps: List[np.ndarray] = []   # the tree levels of each leaf's image
    offset = 0
    for block in _last_level(fam, word_length, nu0):
        levels = tree_levels(block, space.d)
        rows = offset + np.arange(len(block))
        offset += len(block)
        i = 0
        while rows.size:
            if i == len(leaves):
                measure = CylinderMeasure._checked(space, depth, levels[0, :cells].copy())
                leaves.append(AttractorLeaf(_words(rows[:1], m, word_length)[0], measure,
                                            weights[rows[0]]))
                reps.append(levels[0].copy())
                levels, rows = levels[1:], rows[1:]
            dist = w1_tree_levels(space, levels, reps[i])
            near = dist <= eps
            if near.any():
                leaf = leaves[i]
                leaf.weight = max(leaf.weight, weights[rows[near]].max())
                leaf.radius = max(leaf.radius, float(dist[near].max()))
                leaf.merged += int(near.sum())
                levels, rows = levels[~near], rows[~near]
            i += 1
    return leaves


def attractor_build(
    fam: WeightedJacobianFamily,
    word_length: int,
    nu0: CylinderMeasure,
    eps: Optional[float] = None,
) -> AttractorSample:
    """Enumerate all composition images of length ``word_length``.

    The images of all length-t suffixes form one (m^t, d^(depth+t)) table,
    whose row k*m + i is kernel i applied to row k, so suffix compositions
    are shared and each level is one ``dual_rows`` product: the family's
    (m, d^k) kernel table, every kernel viewed at the deepest depth k,
    against the level's rows viewed as (rows, 1, d^(depth+t)).  Every cell
    is the one product J(a.w) mu[w] of ``dual_apply``, checked and clipped
    in place, so the rows carry the bits of the ``dual_apply`` chain.  At
    eps > 0 the last level is never held whole: it streams in row blocks,
    and each word in turn joins the first earlier leaf within W1 <= eps,
    else starts a leaf of its own; a cluster keeps its first word's image
    and the max weight (``_merged_leaves``).  eps defaults to
    max(r^N, gamma^final_depth), the resolution below which distinct
    clusters are not meaningful.  Passing eps=0.0 disables merging,
    yielding the exact m^N enumeration (the reference behavior), whose
    leaves are views of the rows of the blocks ``_last_level`` streams.
    A word length that is not an integer >= 1 or whose last level exceeds
    MAX_CELLS cells, an eps that is not a finite real >= 0, or a seed some
    kernel does not apply to, raises ``ValueError`` before any level is made.
    """
    word_length = _checked_word_length(fam, word_length, nu0)
    space = fam.space
    r = fam.contraction_rate
    final_depth = nu0.depth + word_length
    if eps is None:
        eps = max(r ** word_length, space.gamma ** final_depth)
    eps = check_real("eps", eps, least=0)

    if eps > 0.0:
        leaves = _merged_leaves(fam, word_length, nu0, eps)
    else:
        weights = _word_weights(fam, word_length)
        words = _words(np.arange(len(weights)), len(fam), word_length)
        rows = (masses for block in _last_level(fam, word_length, nu0) for masses in block)
        leaves = [AttractorLeaf(word, CylinderMeasure._checked(space, final_depth, masses),
                                weight)
                  for word, masses, weight in zip(words, rows, weights)]

    return AttractorSample(
        leaves=leaves,
        epsilon=eps,
        rate=r,
        word_length=word_length,
        raw_count=len(fam) ** word_length,
    )


@dataclass
class DensityEstimate:
    """Truncated density entropy at a measure, with its approximation slack.

    ``value`` is the best truncated weight among leaves within eps of the
    target.  Truncated weights upper-bound every infinite extension, and
    padding a word with a zero-weight kernel realizes the same weight
    while moving the image by at most ``w1_margin``.
    """

    value: MaxPlus
    w1_margin: float
    matched: int


def density_entropy_estimate(
    sample: AttractorSample, mu: CylinderMeasure
) -> DensityEstimate:
    """Best cumulative weight among leaves within eps of ``mu`` (else bottom):
    the pressure of the max-plus indicator of that ball (0 in it, -inf out).
    A ``mu`` of another depth than the leaves fails ``w1_tree``'s check."""
    margin = sample.rate ** sample.word_length / (1.0 - sample.rate)
    near = np.array(
        [w1_tree(leaf.measure, mu) <= sample.epsilon for leaf in sample.leaves]
    )
    value = pressure([leaf.weight for leaf in sample.leaves], np.where(near, 0.0, -np.inf))
    return DensityEstimate(MaxPlus(value), w1_margin=margin, matched=int(near.sum()))


@dataclass
class InvariantPressure:
    value: float
    error_bound: float
    fixed_point_residual: float
    words: int                     # the m^N words maximized over


def invariant_pressure_solve(
    fam: WeightedJacobianFamily,
    g: Callable[[CylinderMeasure], float],
    word_length: int,
    nu0: CylinderMeasure,
    lip_g: float = 1.0,
    eps: Optional[float] = None,
) -> InvariantPressure:
    """Pressure of g for the unique normalized invariant pressure function.

    The value is the max over enumerated words of cumulative weight plus
    g at the image measure, with error at most lip_g * r^N / (1 - r) for a
    finite Lipschitz constant lip_g >= 0 of g.  As an a-posteriori check
    the operator fixed-point identity is re-evaluated on the same images:
    max over kernels of weight + pressure(g after that kernel) must
    reproduce the value within the same bound; bottom against bottom is
    a residual of 0.  Each image is visited once, scoring g there and at
    its ``dual_apply`` image by every kernel, so a word keeps m + 1
    scores and no image.  At eps=0 the images are the exact m^N
    enumeration, streamed by ``_last_level`` with the bits and the cell
    budget of ``attractor_build``; at eps > 0 they are the leaves of
    ``attractor_build``.  g's values must be real or -inf: NaN or +inf
    raise ``ValueError``.
    """
    lip_g = check_real("lip_g", lip_g, least=0)
    eps = None if eps is None else check_real("eps", eps, least=0)
    word_length = _checked_word_length(fam, word_length, nu0)
    r = fam.contraction_rate
    bound = lip_g * r ** word_length / (1.0 - r)

    if eps == 0.0:
        weights = _word_weights(fam, word_length)
        depth = nu0.depth + word_length
        images = (CylinderMeasure._checked(fam.space, depth, masses)
                  for block in _last_level(fam, word_length, nu0) for masses in block)
    else:
        sample = attractor_build(fam, word_length, nu0, eps=eps)
        weights = np.array([leaf.weight for leaf in sample.leaves])
        images = (leaf.measure for leaf in sample.leaves)
    # row k scores image k: column 0 with g, column i with g after kernel i
    scores = np.empty((weights.size, len(fam) + 1))
    for k, mu in enumerate(images):
        scores[k, 0] = g(mu)
        for i, J in enumerate(fam.jacobians, start=1):
            scores[k, i] = g(dual_apply(J, mu))
    pressures = pressure(weights, scores)
    value = pressures[0]
    reapplied = pressure(fam.weights, pressures[1:])
    return InvariantPressure(
        value=float(value),
        error_bound=float(bound),
        fixed_point_residual=float(_gaps(reapplied, value)),
        words=len(fam) ** word_length,
    )


# ---------------------------------------------------------------------------
# Pushforward invariance on finite simplex grids
# ---------------------------------------------------------------------------


def pushforward_invariance_check(
    grid: SimplexGrid,
    h_values: np.ndarray,
    symbol_map: Sequence[int],
    observables: Sequence[Callable[[np.ndarray], np.ndarray]],
) -> InvarianceReport:
    """Check pushforward invariance of the pressure with density h.

    The pushforward of the symbol map T (T acts on {1..d} and sends the
    mass of i to T(i)) sends the 1/m lattice of ``grid`` into itself, so on
    the lattice it is a point map sigma, computed exactly on the integer
    masses.  The check is ``mpifs_invariance_check`` of the one-map
    max-plus IFS sigma at weight 0: its Ruelle operator composes g with the
    pushforward, and its transfer operator takes the sup of h over each
    fiber (-inf off the image).  ``h_values`` is checked as a density by
    ``pressure``: NaN, +inf or an empty support raise ``ValueError``.
    """
    pts = grid.points()
    T = np.asarray(symbol_map)
    if T.shape != (grid.d,):
        raise ValueError("symbol map must assign a target to each symbol")
    if T.dtype.kind not in "iu":
        raise ValueError(f"symbol map targets must be integer symbols, not {T.dtype}")
    if not ((1 <= T) & (T <= grid.d)).all():
        raise ValueError("symbol map targets must lie in 1..d")

    # integer masses pushed by T: (T# c)_j = sum of c_i over i with T(i) = j
    counts = np.rint(pts * grid.m).astype(np.int64)
    pushed = counts @ (T[:, None] == np.arange(1, grid.d + 1)).astype(np.int64)
    # every pushed row is a composition of m, so the lattice lists it once
    index = {row: i for i, row in enumerate(map(tuple, counts.tolist()))}
    sigma = np.array([index[row] for row in map(tuple, pushed.tolist())])

    G = [g(pts) for g in observables]
    one_map = MpIFSSystem(sigma[None], np.zeros((1, len(pts))))
    return mpifs_invariance_check(h_values, one_map, G)


# ---------------------------------------------------------------------------
# Max-plus IFS on a finite point set
# ---------------------------------------------------------------------------


class MpIFSSystem:
    """Finite max-plus IFS: maps phi[index, point] and weights q[index, point].

    Weights are nonpositive and normalized per point over the index:
    max over indices of q[index, point] = 0 for every point.
    """

    def __init__(self, maps: np.ndarray, weights: np.ndarray):
        maps = np.asarray(maps)
        if maps.dtype.kind not in "iu":
            raise ValueError(
                f"map targets must be integer point indices, not {maps.dtype}"
            )
        maps = maps.astype(np.int64)
        q = check_numbers("weights", weights)
        if maps.ndim != 2 or q.shape != maps.shape:
            raise ValueError("maps and weights must be equal-shape 2-D tables")
        self.n_maps, self.n_points = maps.shape
        if maps.size == 0:
            raise ValueError(
                "a system needs at least one map and one point, got "
                f"{self.n_maps} maps on {self.n_points} points"
            )
        if maps.min() < 0 or maps.max() >= self.n_points:
            raise ValueError("map targets must be point indices")
        self.maps = maps
        # per point, the weights over the maps are an idempotent probability
        self.weights = check_maxplus_probability(q)

    @classmethod
    def constant_maps(cls, weights: np.ndarray) -> "MpIFSSystem":
        """One map per point, each sending everything to its own point."""
        q = check_numbers("weights", weights)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(
                f"constant-map systems need a square weight table, got shape {q.shape}"
            )
        n = q.shape[0]
        maps = np.repeat(np.arange(n)[:, None], n, axis=1)
        return cls(maps, q)


def _on_points(a, sys: MpIFSSystem, what: str, max_ndim: int = 1) -> np.ndarray:
    """``a`` as floats with one row per point of ``sys``, each value real or -inf."""
    a = check_maxplus_values(a, what)
    if not 1 <= a.ndim <= max_ndim or a.shape[0] != sys.n_points:
        raise ValueError(f"{what} must have n_points = {sys.n_points} rows and at "
                         f"most {max_ndim} axes, got shape {a.shape}")
    return a


def mpifs_ruelle(f: np.ndarray, sys: MpIFSSystem) -> np.ndarray:
    """Composition operator: (Lf)(p) = max over maps of q[m, p] + f(phi[m, p]).

    ``f`` is one observable ``(n_points,)`` or one per column
    ``(n_points, k)``, and the image has its shape.  Each map's scores are
    gathered into one buffer; map targets are point indices by
    construction, so "clip" never moves one, and it spares the buffered
    copy that "raise" makes.
    """
    f = _on_points(f, sys, "observable", max_ndim=2)
    q = sys.weights if f.ndim == 1 else sys.weights[:, :, None]
    out = np.full(f.shape, -np.inf)
    scores = np.empty_like(f)
    for m in range(sys.n_maps):
        np.take(f, sys.maps[m], axis=0, out=scores, mode="clip")
        scores += q[m]
        np.maximum(out, scores, out=out)
    return out


def mpifs_transfer(lam: np.ndarray, sys: MpIFSSystem) -> np.ndarray:
    """Transfer operator on densities: max over preimage pairs, -inf off image."""
    lam = _on_points(lam, sys, "density")
    out = np.full(sys.n_points, -np.inf)
    np.maximum.at(out, sys.maps.ravel(), (sys.weights + lam[None, :]).ravel())
    return out


def mpifs_markov(lam: np.ndarray, f: np.ndarray, sys: MpIFSSystem) -> float:
    """The pressure-level operator evaluated directly from its definition:
    max over maps of pressure of (q[m] + f after phi[m])."""
    lam = _on_points(lam, sys, "density")
    f = _on_points(f, sys, "observable")
    best = -np.inf
    for m in range(sys.n_maps):
        best = max(best, float(np.max(lam + (sys.weights[m] + f[sys.maps[m]]))))
    return best


def spike_family(n_points: int) -> np.ndarray:
    """The default observables of the invariance check, one per row of an
    ``(n_points + 5, n_points)`` array: per-point spikes (0 at the point,
    -1e8 off it), then five random rows uniform in [-2, 2], drawn with
    seed 0.

    Spikes make the functional-level invariance checks separate points:
    the pressure of a spike at p reads off the density at p.
    """
    spikes = np.where(np.eye(n_points, dtype=bool), 0.0, -1e8)
    return np.vstack([spikes, np.random.default_rng(0).uniform(-2, 2, (5, n_points))])


@dataclass
class InvarianceReport:
    functional_residual: float        # pressure of composed observables, on the family
    density_residual: float           # density fixed point, pointwise
    worst_observable: Optional[int]   # largest functional gap; None for no observable

    def passes(self) -> Tuple[bool, bool]:
        return self.functional_residual <= 1e-12, self.density_residual <= 1e-12

    def consistent(self) -> bool:
        p = self.passes()
        return all(p) or not any(p)


def _gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| elementwise, with a NaN gap counted as 0.

    Weights, densities and observables hold no NaN and no +inf once
    checked, so a NaN gap is bottom against bottom: both sides agree.
    """
    with np.errstate(invalid="ignore"):
        return np.fmax(np.abs(a - b), 0.0)


def mpifs_invariance_check(
    lam: np.ndarray,
    sys: MpIFSSystem,
    f_family: Optional[Sequence[np.ndarray]] = None,
) -> InvarianceReport:
    """Evaluate the two equivalent invariance conditions of a density.

    The functional residual is the largest gap, over the observables, between
    the pressure of g and the pressure of its Ruelle image; by duality that
    is also the pressure-operator (``mpifs_markov``) fixed-point residual.
    The density residual is the pointwise gap between ``lam`` and its
    transfer image.  On finite systems with a separating observable family
    the two pass or fail together; disagreement indicates a bug.
    The family is k observables of n_points values each, as a (k, n_points)
    table or k rows; an empty family has no worst observable, and any other
    shape raises ``ValueError``.
    Observables are real or -inf (bottom); NaN or +inf raise ``ValueError``.
    ``lam`` is checked as a density by ``pressure``: NaN, +inf or an empty
    support raise ``ValueError``.
    """
    lam = check_numbers("density", lam)
    if f_family is None:
        f_family = spike_family(sys.n_points)

    # One Ruelle pass for the whole family, one observable per column so the
    # gathers read contiguous rows.  ``pressure`` rejects a NaN or +inf
    # observable before the pass, so no score is NaN.
    F = check_numbers("the observable family", f_family)
    if F.shape == (0,):
        F = F.reshape(0, sys.n_points)
    if F.ndim != 2 or F.shape[1] != sys.n_points:
        raise ValueError(
            f"the observable family must be a (k, {sys.n_points}) table, "
            f"got shape {F.shape}"
        )
    F = np.ascontiguousarray(F.T)
    base = pressure(lam, F)
    composed = pressure(lam, mpifs_ruelle(F, sys))
    gaps = _gaps(composed, base)
    return InvarianceReport(
        float(gaps.max(initial=0.0)),
        float(_gaps(mpifs_transfer(lam, sys), lam).max()),
        int(gaps.argmax()) if gaps.size else None,
    )


def mpifs_fixed_density(sys: MpIFSSystem) -> Tuple[np.ndarray, int]:
    """The limit of transfer iteration from the zero density, and the number
    of transfer passes spent.

    Plain iteration from 0 can take arbitrarily long when some cycle mean is
    barely negative.  The limit is the best path weight from the zero-weight
    cycles (max-plus spectral theory), which two phases of the same transfer
    operator compute exactly:

    1. The zero-weight subsystem (weight 0 kept, everything else -inf),
       iterated from 0, stays 0 or -inf and its zero set only shrinks, so it
       settles within points + 1 passes at R, the points reached from a zero
       cycle by zero-weight paths.  R is not empty: each point's best weight
       is exactly 0, so each point has a zero out-edge and a zero cycle
       exists.
    2. The full system, iterated from R's indicator (0 on R, -inf off it),
       is nondecreasing, since each point of R has a zero in-edge from R.
       Because fl(a + w) <= a for w <= 0, a cycle never improves a walk's
       value, so the best values are reached by walks of at most points
       steps and the iteration settles within points + 1 passes.

    The result is an exact float fixed point of ``mpifs_transfer``.
    """

    def settle(lam: np.ndarray, system: MpIFSSystem) -> Tuple[np.ndarray, int]:
        passes = 1
        nxt = mpifs_transfer(lam, system)
        while not np.array_equal(nxt, lam):
            lam, nxt = nxt, mpifs_transfer(nxt, system)
            passes += 1
        return lam, passes

    zero = MpIFSSystem(sys.maps, np.where(sys.weights == 0.0, 0.0, -np.inf))
    reached, zero_passes = settle(np.zeros(sys.n_points), zero)
    lam, passes = settle(reached, sys)
    return lam, zero_passes + passes


# ---------------------------------------------------------------------------
# The inverse problem: weights making a given density invariant
# ---------------------------------------------------------------------------


def inverse_problem_solve(h: np.ndarray) -> MpIFSSystem:
    """The constant-map system with weights q[target, source] = h(target),
    for a normalized density h.

    Requires h finite, checked first, then h <= 0 with max h = 0.  h is an
    exact fixed density of the returned system: max over sources of
    h(target) + h(source) equals h(target) because max h = 0.
    """
    h = check_real("density table", h)
    if np.ndim(h) != 1 or h.size == 0:
        raise ValueError("density table must be a nonempty 1-D array")
    h = check_maxplus_probability(h)
    return MpIFSSystem.constant_maps(np.repeat(h[:, None], h.size, axis=1))
