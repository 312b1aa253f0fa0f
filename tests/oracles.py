"""Reference implementations that the tests compare the library against.

Each one is a direct loop over the definition, written without the
library's table arithmetic (or, for the attractor, with its per-measure
operations in place of its batched tables), so that an agreement between
the two is evidence rather than a tautology.
"""

import itertools
from typing import Callable, List, Sequence, Tuple

import numpy as np

from maxtherm import shift, transport
from maxtherm.dynamics import _log_mean_exp, birkhoff_max_table
from maxtherm.ifs import AttractorLeaf, MpIFSSystem, WeightedJacobianFamily, attractor_build
from maxtherm.semiring import pressure
from maxtherm.shift import (
    CylinderMeasure,
    DepthKFunction,
    Jacobian,
    ShiftSpace,
    dual_apply,
    lipschitz_constant,
    pushforward_apply,
)
from maxtherm.simplex import level2_pressure, shannon_entropy_table


def word_metric(u: Sequence[int], v: Sequence[int], space: ShiftSpace) -> float:
    """gamma^(first differing 0-based position); 0 if the words are equal."""
    if len(u) != len(v):
        raise ValueError("words must have equal length")
    for i, (a, b) in enumerate(zip(u, v)):
        if a != b:
            return space.gamma ** i
    return 0.0


def index_word(idx: int, depth: int, d: int) -> Tuple[int, ...]:
    """The word of symbols 1..d whose base-d code is ``idx``."""
    out = []
    for _ in range(depth):
        out.append(idx % d + 1)
        idx //= d
    return tuple(reversed(out))


def dual_image(J: DepthKFunction, mu: CylinderMeasure) -> np.ndarray:
    """Masses of the dual transfer image of mu, one word at a time:
    nu[a.w] = max(J(a.w) mu[w], 0), where J reads the first J.depth
    symbols of a.w.  The clip is the one a checked table takes: a product
    that is not above 0, -0.0 included, becomes +0.0."""
    d, n = mu.space.d, mu.depth
    out = np.empty(d ** (n + 1))
    for code in range(d ** n):
        w = index_word(code, n, d)
        for a in range(1, d + 1):
            word = (a,) + w
            idx = jdx = 0
            for pos, s in enumerate(word):
                idx = idx * d + (s - 1)
                if pos < J.depth:
                    jdx = jdx * d + (s - 1)
            mass = float(J.values[jdx]) * float(mu.masses[code])
            out[idx] = mass if mass > 0.0 else 0.0
    return out


def transfer_repeated(J: DepthKFunction, f: DepthKFunction) -> np.ndarray:
    """Values of the transfer image of f, from both tables repeated out to
    the deeper depth k: sum over the first symbol of J(w) f(w), w of
    length k.  This materializes two d^k tables besides their product."""
    k = max(f.depth, J.depth)
    prod = J.at_depth(k) * f.at_depth(k)
    return prod.reshape(J.space.d, -1).sum(axis=0)


def maxplus_birkhoff(f: DepthKFunction, orbit: Sequence[int], n: int) -> float:
    """Running max of f over the first n shift iterates of one orbit, one
    window at a time."""
    if len(orbit) < n + max(f.depth, 1) - 1:
        raise ValueError("orbit too short")
    best = float("-inf")
    for i in range(n):
        code = 0
        for s in orbit[i : i + f.depth]:
            code = code * f.space.d + (s - 1)
        best = max(best, float(f.values[code]))
    return best


def worked_example_words(p: float, n: int) -> List[Tuple[float, float]]:
    """(mass, max-sum) of each of the 2^n words of the two-symbol worked
    example, one word at a time: symbol 2 carries mass p, f is the
    indicator of symbol 1, and the max-sum is f's running max over the
    word's n windows."""
    f = DepthKFunction(ShiftSpace(2, 0.3), 1, [1.0, 0.0])
    out = []
    for word in itertools.product((1, 2), repeat=n):
        mass = 1.0
        for s in word:
            mass *= p if s == 2 else 1.0 - p
        out.append((mass, maxplus_birkhoff(f, word, n)))
    return out


def tree_w1(mu: CylinderMeasure, nu: CylinderMeasure) -> float:
    """W1 of two equal-depth tables on the prefix tree, one pair and one
    level at a time: each level's edge weight times the L1 gap of the
    subtree masses, coarsening by a length-d reshape."""
    n, d, g = mu.depth, mu.space.d, mu.space.gamma
    total = 0.0
    a, b = mu.masses, nu.masses
    for j in range(n - 1, -1, -1):
        w = g ** (n - 1) / 2.0 if j == n - 1 else (g ** j - g ** (j + 1)) / 2.0
        total += w * float(np.abs(a - b).sum())
        a = a.reshape(-1, d).sum(axis=1)
        b = b.reshape(-1, d).sum(axis=1)
    return total


def attractor_leaves(
    fam: WeightedJacobianFamily, word_length: int, nu0: CylinderMeasure, eps: float
) -> List[AttractorLeaf]:
    """The leaves of ``attractor_build`` at a resolved eps, one measure at
    a time: every suffix composed by one ``dual_apply``, and each word in
    turn joining the first earlier leaf within W1 <= eps (by ``tree_w1``)
    or else starting a leaf of its own."""
    suffixes = [((), 0.0, nu0)]
    for _ in range(word_length):
        suffixes = [
            ((i + 1,) + word, weight + fam.weights[i], dual_apply(J, rho))
            for word, weight, rho in suffixes
            for i, J in enumerate(fam.jacobians)
        ]
    if eps == 0.0:
        return [AttractorLeaf(word, rho, weight) for word, weight, rho in suffixes]
    leaves: List[AttractorLeaf] = []
    for word, weight, rho in suffixes:
        for leaf in leaves:
            dist = tree_w1(rho, leaf.measure)
            if dist <= eps:
                leaf.weight = max(leaf.weight, weight)
                leaf.radius = max(leaf.radius, dist)
                leaf.merged += 1
                break
        else:
            leaves.append(AttractorLeaf(word, rho, weight))
    return leaves


def whole_table_solve(
    fam: WeightedJacobianFamily, g: Callable[[CylinderMeasure], float],
    word_length: int, nu0: CylinderMeasure,
) -> Tuple[float, float]:
    """(value, fixed-point residual) of the exact invariant pressure from
    the whole table: ``attractor_build`` at eps=0 holds all m^N images,
    and every kernel is re-applied to every leaf by ``dual_apply``, one
    observable at a time."""
    leaves = attractor_build(fam, word_length, nu0, eps=0.0).leaves
    weights = np.array([leaf.weight for leaf in leaves])

    def best(fn: Callable[[CylinderMeasure], float]) -> float:
        return pressure(weights, np.array([fn(leaf.measure) for leaf in leaves]))

    value = best(g)
    reapplied = max(
        fam.weights[i] + best(lambda rho, J=J: g(dual_apply(J, rho)))
        for i, J in enumerate(fam.jacobians)
    )
    return value, float(abs(reapplied - value))


def entropy_recovery_per_target(h, mu, family, grid) -> float:
    """min over the rows phi of the family of Gamma(phi) - mu . phi, with
    every Gamma(phi) maximized afresh by ``level2_pressure`` for this one
    target, one row at a time."""
    p = np.asarray(mu, dtype=float)
    best = np.inf
    for phi in np.asarray(family, dtype=float):
        gamma = level2_pressure(h, lambda pts: pts @ phi, grid).value
        best = min(best, gamma - float(phi @ p))
    return float(best)


def pressure_axioms_per_trial(h, grid, trials: int, seed: int) -> Tuple[float, float, float]:
    """Worst monotonicity, translation and convexity violations of the
    convex pressure, one trial at a time: each trial draws its five
    observables as ``simplex.pressure_axioms_check`` does and maximizes
    each afresh with ``level2_pressure``."""
    rng = np.random.default_rng(seed)
    worst_mono = worst_trans = worst_conv = 0.0
    for _ in range(trials):
        a = rng.uniform(-2.0, 2.0, grid.d)
        b = rng.uniform(-2.0, 2.0, grid.d)
        bigger = a + np.abs(rng.uniform(0, 1, grid.d))
        c = float(rng.uniform(-3, 3))
        t = float(rng.uniform(0, 1))
        gam_phi, gam_psi, gam_bigger, shifted, mix = (
            level2_pressure(h, lambda pts, phi=phi: pts @ phi, grid).value
            for phi in (a, b, bigger, a + c, t * a + (1 - t) * b)
        )
        worst_mono = max(worst_mono, gam_phi - gam_bigger)
        worst_trans = max(worst_trans, abs(shifted - gam_phi - c))
        worst_conv = max(worst_conv, mix - t * gam_phi - (1 - t) * gam_psi)
    return worst_mono, worst_trans, worst_conv


def markov_stationary(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stationary vectors (pi1, pi2) of the one-step Markov chains on {1, 2}
    with transition probabilities a = P(1 -> 1) and b = P(2 -> 1), one row
    per pair; the reducible chain a = 1, b = 0 gets (0.5, 0.5)."""
    reducible = (a == 1.0) & (b == 0.0)
    den = 1.0 - a + b
    pi1 = np.where(reducible, 0.5, b / np.where(reducible, 1.0, den))
    return np.column_stack([pi1, 1.0 - pi1])


def markov_ks_entropy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """KS entropy of those chains: the stationary average of the row
    entropies."""
    pi = markov_stationary(a, b)
    rows = np.column_stack(
        [shannon_entropy_table(np.column_stack([a, 1 - a])),
         shannon_entropy_table(np.column_stack([b, 1 - b]))]
    )
    return (pi * rows).sum(axis=1)


def ruelle_dense(f: np.ndarray, sys: MpIFSSystem) -> np.ndarray:
    """The max-plus IFS Ruelle operator on one observable, from one dense
    (maps, points) gather: max over maps of q[m, p] + f(phi[m, p])."""
    f = np.asarray(f, dtype=float)
    return (sys.weights + f[sys.maps]).max(axis=0)


def transfer_per_map(lam: np.ndarray, sys: MpIFSSystem) -> np.ndarray:
    """The max-plus IFS transfer operator with one scatter-max per map:
    max over preimage pairs, -inf off the image."""
    lam = np.asarray(lam, dtype=float)
    out = np.full(sys.n_points, -np.inf)
    for m in range(sys.n_maps):
        np.maximum.at(out, sys.maps[m], sys.weights[m] + lam)
    return out


def fixed_density_closure(sys: MpIFSSystem) -> Tuple[np.ndarray, int]:
    """The limit of transfer iteration from the zero density by its path
    description: collapse the system to the edge graph source -> target
    with the best weight over the maps realizing that transition, take the
    max-plus closure by Floyd-Warshall, read the best path weight from the
    zero-cycle nodes, then settle float rounding with a few transfer
    steps."""
    n, polish_iter = sys.n_points, 50
    # edge[source, target] = best single-step weight
    edge = np.full((n, n), -np.inf)
    for m in range(sys.n_maps):
        np.maximum.at(edge, (np.arange(n), sys.maps[m]), sys.weights[m])

    # closure[i, j] = best nonempty-path weight i -> j; every entry is <= 0
    # or -inf, so no sum of two is NaN
    closure = edge.copy()
    for k in range(n):
        np.maximum(closure, closure[:, k][:, None] + closure[k, None, :], out=closure)

    zero_cycle = np.diag(closure) >= -1e-300
    if not zero_cycle.any():
        raise RuntimeError("no zero-weight cycle; weights are not normalized")
    lam = closure[zero_cycle, :].max(axis=0)  # paths from zero-cycle nodes
    lam[zero_cycle] = np.maximum(lam[zero_cycle], 0.0)  # empty path

    for it in range(1, polish_iter + 1):
        nxt = transfer_per_map(lam, sys)
        if np.array_equal(nxt, lam):
            return lam, it
        lam = nxt
    image = transfer_per_map(lam, sys)
    with np.errstate(invalid="ignore"):
        residual = float(np.fmax(np.abs(image - lam), 0.0).max())
    if residual > 1e-14:
        raise RuntimeError(
            f"transfer iteration residual {residual!r} after polishing"
        )
    return lam, polish_iter


def bootstrap_by_indices(expo: np.ndarray, n: int, resamples) -> np.ndarray:
    """(1/n) log-mean-exp of ``expo`` over each index resample, one resample
    at a time: the bootstrap of ``partition_function_mc`` before it drew
    value counts, which drew each resample as ``rng.integers(0, m, m)``."""
    boots = np.empty(len(resamples))
    for b, idx in enumerate(resamples):
        boots[b] = _log_mean_exp(expo[idx]) / n
    return boots


def one_sample_c(f: DepthKFunction, sampler, u: float, n: int) -> float:
    """c_n(u) = (1/n) log of the mean of exp(n u max-sum) over one draw of
    ``sampler``'s orbits, with no interval: the convexity check's own copy
    of the Monte Carlo recipe before it took a partition function."""
    maxes = birkhoff_max_table(f, sampler.sample(n + max(f.depth, 1) - 1), n)
    return _log_mean_exp(n * u * maxes) / n


def random_jacobian_in_one_piece(space: ShiftSpace, depth: int,
                                 rng: np.random.Generator) -> Jacobian:
    """Random admissible kernel, drawn and shrunk in one piece: a
    (d, d^(depth-1)) uniform draw on [0.1, 1) with its columns
    normalized, shrunk toward uniform by 0.999 / Lip when its Lipschitz
    constant exceeds 1.  ``goldens.draw_kernel`` and
    ``goldens.shrink_kernels`` split it, for tables of kernels."""
    raw = rng.uniform(0.1, 1.0, (space.d, space.d ** (depth - 1)))
    raw /= raw.sum(axis=0)
    vals = raw.reshape(-1)
    lip = lipschitz_constant(DepthKFunction(space, depth, vals))
    if lip > 1.0:
        lam = 0.999 / lip
        vals = (1.0 - lam) / space.d + lam * vals
    return Jacobian(space, depth, vals)


def integrate(mu: CylinderMeasure, f: DepthKFunction) -> float:
    """mu(f): one dot product of the masses and f's table at their depth."""
    if f.depth > mu.depth:
        raise ValueError("observable deeper than the measure table")
    return float(mu.masses @ f.at_depth(mu.depth))


def _random_measure(space: ShiftSpace, depth: int, rng: np.random.Generator) -> CylinderMeasure:
    masses = rng.uniform(0.0, 1.0, space.n_words(depth))
    masses /= masses.sum()
    return CylinderMeasure(space, depth, masses)


def _groups(keys: list, cells: int) -> int:
    """Distinct keys summed over consecutive blocks of trials of about
    ``shift.BLOCK_CELLS`` cells: the groups of a batched check."""
    step = max(1, shift.BLOCK_CELLS // cells)
    return sum(len(set(keys[i:i + step])) for i in range(0, len(keys), step))


def contraction_bounds_per_trial(seed: int, trials: int, d: int = 2, gamma: float = 0.3,
                                 depth: int = 4) -> Tuple[str, dict]:
    """The detail line and record of ``goldens.check_contraction_bounds``,
    one trial at a time: each trial's kernels and measures are built whole
    and measured with one ``dual_apply`` per image and one ``w1_tree`` per
    pair."""
    rng = np.random.default_rng(seed)
    space = ShiftSpace(d, gamma)
    r = space.contraction_rate
    worst_ratio = 0.0
    worst_perturb = worst_joint = -np.inf
    keys = []
    for _ in range(trials):
        depth_j = int(rng.integers(1, 3))
        keys.append(depth_j)
        J1 = random_jacobian_in_one_piece(space, depth_j, rng)
        J2 = random_jacobian_in_one_piece(space, depth_j, rng)
        mu = _random_measure(space, depth, rng)
        nu = _random_measure(space, depth, rng)
        J1mu, J1nu, J2mu = dual_apply(J1, mu), dual_apply(J1, nu), dual_apply(J2, mu)
        base = transport.w1_tree(mu, nu)
        sup = float(np.abs(J1.values - J2.values).max())
        worst_ratio = max(worst_ratio, transport.w1_tree(J1mu, J1nu) / base)
        worst_perturb = max(worst_perturb, transport.w1_tree(J1mu, J2mu) - d * sup)
        joint = transport.w1_tree(J1mu, dual_apply(J2, nu))
        worst_joint = max(worst_joint, joint - r * (base + (d / r) * sup))
    detail = (
        f"{trials} trials each: max ratio {worst_ratio:.6f} (bound {r}), "
        f"perturbation excess {worst_perturb:.2e}, joint excess {worst_joint:.2e}"
    )
    groups = _groups(keys, space.n_words(depth + 1))
    record = dict(
        ratio=worst_ratio, perturbation_excess=worst_perturb, joint_excess=worst_joint,
        trials=trials, groups=groups, w1_passes=4 * groups, w1_rows=4 * trials,
    )
    return detail, record


def section_identity_per_trial(seed: int, trials: int) -> Tuple[str, dict]:
    """The detail line and record of ``goldens.check_section_identity``,
    one trial at a time: each trial's kernel, measure and observable are
    built whole and compared through ``dual_apply``, ``pushforward_apply``,
    ``transfer_repeated`` and ``integrate``."""
    rng = np.random.default_rng(seed)
    f_rng = np.random.default_rng([seed, 1])
    space = ShiftSpace(2, 0.3)
    worst = worst_dual = 0.0
    keys = []
    for _ in range(trials):
        depth = int(rng.integers(1, 5))
        depth_j = int(rng.integers(1, min(depth + 1, 3) + 1))
        keys.append((depth, depth_j))
        J = random_jacobian_in_one_piece(space, depth_j, rng)
        mu = _random_measure(space, depth, rng)
        image = dual_apply(J, mu)
        back = pushforward_apply(image)
        worst = max(worst, float(np.abs(back.masses - mu.masses).max()))
        f = DepthKFunction(
            space, depth + 1, f_rng.uniform(-2.0, 2.0, space.n_words(depth + 1))
        )
        Lf = DepthKFunction(space, depth, transfer_repeated(J, f))
        worst_dual = max(worst_dual, abs(integrate(mu, Lf) - integrate(image, f)))
    detail = (
        f"{trials} trials, max |recovered - original| = {worst:.2e} (tol 1e-12); "
        f"max |mu(Lf) - (L*mu)(f)| = {worst_dual:.2e} (tol 1e-12)"
    )
    groups = _groups(keys, space.n_words(5))
    return detail, dict(recovery=worst, duality=worst_dual, trials=trials, groups=groups)
