"""Golden verification battery: every closed-form result as a pass/fail check.

Each check reproduces one exactly-known result (closed forms, theorem
bounds, operator identities) with its stated tolerance, and returns a
pass flag, one detail line and a ``record`` of its numbers.  The checks
are callable individually, from the test suite, through the command-line
``verify`` subcommand at their defaults, or through the other
subcommands at the user's parameters.  Their counts of draws must be at
least 1, since a check over zero draws would pass vacuously.

Randomized checks draw through ``numpy.random.default_rng`` with explicit
seeds, so reruns are reproducible.  A line added to a check draws from a
generator of its own, so that the check's earlier numbers stay put.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import dynamics, ifs, shift, simplex, transport
from .semiring import pressure
from .shift import (
    CylinderMeasure,
    DepthKFunction,
    Jacobian,
    ShiftSpace,
    check_count,
    compose_duals,
    make_bernoulli_jacobian,
    pushforward_apply,
)


# ---------------------------------------------------------------------------
# Random instance generators (shared with the test suite)
# ---------------------------------------------------------------------------


def draw_kernel(space: ShiftSpace, depth: int, rng: np.random.Generator) -> np.ndarray:
    """The draw of ``random_jacobian``: d^depth uniforms on [0.1, 1)."""
    return rng.uniform(0.1, 1.0, space.n_words(depth))


def shrink_kernels(space: ShiftSpace, depth: int, raw: np.ndarray) -> np.ndarray:
    """Admissible depth-``depth`` kernels from a (k, d^depth) table of
    ``draw_kernel`` rows: each row's columns normalized, then shrunk toward
    uniform until its Lipschitz constant is below 1, and checked as
    ``Jacobian`` checks a kernel."""
    d = space.d
    columns = raw.reshape(len(raw), d, -1)
    table = (columns / columns.sum(axis=1, keepdims=True)).reshape(len(raw), -1)
    lip = shift.lipschitz_rows(space, depth, table)
    wide = lip > 1.0
    if wide.any():
        lam = 0.999 / lip[wide, None]
        table[wide] = (1.0 - lam) / d + lam * table[wide]
        lip[wide] = shift.lipschitz_rows(space, depth, table[wide])   # the rest kept theirs
    return shift.check_kernel_rows(space, table, lip)


def random_jacobian(space: ShiftSpace, depth: int, rng: np.random.Generator) -> Jacobian:
    """Random admissible kernel: one ``draw_kernel`` row through
    ``shrink_kernels``, whose check is the kernel's."""
    raw = draw_kernel(space, depth, rng)
    return Jacobian._checked(space, depth, shrink_kernels(space, depth, raw[None])[0])


def draw_measure(space: ShiftSpace, depth: int, rng: np.random.Generator) -> np.ndarray:
    """The draw of a non-spiky ``random_measure``: d^depth uniforms on [0, 1)."""
    return rng.uniform(0.0, 1.0, space.n_words(depth))


def normalize_measures(raw: np.ndarray) -> np.ndarray:
    """Each row of a table of ``draw_measure`` rows divided by its sum, in
    place, and checked as ``CylinderMeasure`` checks its masses."""
    raw /= raw.sum(axis=1, keepdims=True)
    return shift.check_probability_rows(raw)


def random_measure(
    space: ShiftSpace, depth: int, rng: np.random.Generator, spiky: bool = False
) -> CylinderMeasure:
    if spiky:
        masses = rng.dirichlet(np.full(space.n_words(depth), 0.2))
        # snap near-zero masses to exact zeros: denormal-scale entries are
        # outside any LP solver's feasible scaling, exact zeros are fine
        masses[masses < 1e-12] = 0.0
        masses /= masses.sum()
    else:
        masses = normalize_measures(draw_measure(space, depth, rng)[None])[0]
    return CylinderMeasure(space, depth, masses)


def two_bump_density(pts: np.ndarray) -> np.ndarray:
    """Non-concave density on the d=2 simplex, row-wise: the max of two
    downward parabolas in the first mass, peaking at 0 at 0.2 and 0.8."""
    x = np.atleast_2d(pts)[:, 0]
    return np.maximum(-8.0 * (x - 0.2) ** 2, -8.0 * (x - 0.8) ** 2)


def random_mpifs(
    n_points: int, rng: np.random.Generator, constant_maps: bool = True
) -> ifs.MpIFSSystem:
    q = -rng.exponential(1.0, (n_points, n_points))
    q -= q.max(axis=0, keepdims=True)
    if constant_maps:
        return ifs.MpIFSSystem.constant_maps(q)
    maps = rng.integers(0, n_points, (n_points, n_points))
    return ifs.MpIFSSystem(maps, q)


# ---------------------------------------------------------------------------
# Battery plumbing
# ---------------------------------------------------------------------------


@dataclass
class GoldenResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    record: Dict[str, object] = field(default_factory=dict)  # JSON-ready numbers


def _result(name: str, start: float, passed: bool, detail: str, **record) -> GoldenResult:
    return GoldenResult(name, passed, detail, time.perf_counter() - start, record)


# ---------------------------------------------------------------------------
# 1. Gibbs equilibria on the simplex
# ---------------------------------------------------------------------------


def check_gibbs_equilibrium(
    seed: int = 11,
    per_d: int = 25,
    grids: Sequence[Tuple[int, int]] = ((2, 400), (3, 60)),
) -> GoldenResult:
    """Lattice search recovers the softmax equilibrium and its pressure:
    ``per_d`` random observables on each ``(d, m)`` simplex grid."""
    check_count("per_d", per_d, 1)
    check_count("number of grids", len(grids), 1)
    start = time.perf_counter()
    rng = np.random.default_rng(check_count("seed", seed))
    worst_point, worst_value = 0.0, 0.0
    for d, m in grids:
        grid = simplex.SimplexGrid(d, m)
        for _ in range(per_d):
            g = rng.uniform(-2.0, 2.0, d)
            res = simplex.level2_pressure(
                simplex.shannon_entropy_table, lambda pts: pts @ g, grid
            )
            target = simplex.gibbs_solution(g)
            worst_point = max(
                worst_point, float(np.abs(res.argmax[0] - target).max())
            )
            worst_value = max(worst_value, abs(res.value - simplex.log_sum_exp(g)))
    passed = worst_point <= 1e-3 and worst_value <= 1e-4
    return _result(
        "gibbs-equilibrium", start, passed,
        f"worst argmax gap {worst_point:.2e} (tol 1e-3), "
        f"worst pressure gap {worst_value:.2e} (tol 1e-4)",
    )


# ---------------------------------------------------------------------------
# 2. Tree W1 against the LP oracle
# ---------------------------------------------------------------------------


_ORACLE_PLAN = tuple(
    [(2, 0.3, depth, 24) for depth in (1, 2, 3, 4, 5)]
    + [(3, 0.24, depth, 17) for depth in (1, 2, 3, 4)]
    + [(3, 0.24, 5, 12)]
)


def check_transport_oracle(
    seed: int = 12, plan: Sequence[Tuple[int, float, int, int]] = _ORACLE_PLAN
) -> GoldenResult:
    """Closed-form tree W1 equals the transportation LP within 1e-9.  Each
    plan entry ``(d, gamma, depth, reps)`` draws ``reps`` pairs of depth-
    ``depth`` measures on the shift space ``(d, gamma)``.

    The pairs draw one after another.  Each entry's pairs are then stacked
    into two tables and measured at once: one ``w1_lp_oracle`` call, whose
    rows share a few packed LPs, and one paired ``w1_tree_levels`` pass."""
    check_count("number of plan entries", len(plan), 1)
    for d, _, depth, reps in plan:
        check_count("reps", reps, 1)
        # an entry the oracle would reject raises before any pair is drawn
        words = check_count("alphabet size d", d, 2) ** check_count("depth", depth)
        if words > transport.LP_MAX_POINTS:
            raise ValueError(f"{d}^{depth} support points exceed the oracle limit "
                             f"{transport.LP_MAX_POINTS}")
    start = time.perf_counter()
    rng = np.random.default_rng(check_count("seed", seed))
    worst_tree = worst_gap = 0.0
    count = lps = solves = 0
    for d, gamma, depth, reps in plan:
        space = ShiftSpace(d, gamma)
        pairs = [
            (random_measure(space, depth, rng, spiky=(i % 3 == 0)).masses,
             random_measure(space, depth, rng).masses)
            for i in range(reps)
        ]
        mu, nu = (np.array(column) for column in zip(*pairs))
        report = transport.w1_lp_oracle(space, mu, nu)
        tree = transport.w1_tree_levels(
            space, transport.tree_levels(mu, d), transport.tree_levels(nu, d)
        )
        worst_tree = max(worst_tree, float(np.abs(tree - report.w1).max()))
        worst_gap = max(worst_gap, float(report.duality_gap.max()))
        count += reps
        lps += report.lps
        solves += report.lp_solves
    worst = max(worst_tree, worst_gap)
    passed = worst <= 1e-9
    return _result(
        "transport-oracle", start, passed,
        f"{count} pairs, worst |tree - LP| and duality gap {worst:.2e} (tol 1e-9)",
        pairs=count, lps=lps, lp_solves=solves, lp_retries=solves - lps,
        worst_tree_gap=worst_tree, worst_duality_gap=worst_gap,
    )


# ---------------------------------------------------------------------------
# 3. Contraction bounds of the dual transfer operators
# ---------------------------------------------------------------------------


def check_contraction_bounds(
    seed: int = 13, trials: int = 1000, d: int = 2, gamma: float = 0.3, depth: int = 4
) -> GoldenResult:
    """Three theorem bounds hold on every randomized trial (slack 1e-10),
    for random kernels on the shift space ``(d, gamma)`` acting on pairs of
    depth-``depth`` measures.

    The trials draw one after another, in the ``shift.row_blocks`` of a
    trial's d^(depth+1) image masses.  The trials of a block with the same
    kernel depth are then one group: one shrink of each kernel table, four
    ``dual_rows`` images and four paired W1 passes."""
    check_count("trials", trials, 1)
    check_count("depth", depth, 1)
    start = time.perf_counter()
    rng = np.random.default_rng(check_count("seed", seed))
    space = ShiftSpace(d, gamma)
    shift.check_cells(f"an image of {d}^{shift.count_text(depth + 1)} masses", "depth",
                      depth, lambda n: d ** (n + 1), f"d = {d}")
    r = space.contraction_rate
    worst_ratio = 0.0
    worst_perturb = worst_joint = -np.inf
    passes = 0
    for block in shift.row_blocks(trials, space.n_words(depth + 1)):
        groups: Dict[int, list] = {}
        for _ in range(block.start, block.stop):
            depth_j = int(rng.integers(1, 3))
            groups.setdefault(depth_j, []).append((
                draw_kernel(space, depth_j, rng), draw_kernel(space, depth_j, rng),
                draw_measure(space, depth, rng), draw_measure(space, depth, rng),
            ))
        for depth_j, draws in groups.items():
            raw1, raw2, raw_mu, raw_nu = (np.array(column) for column in zip(*draws))
            J1, J2 = shrink_kernels(space, depth_j, raw1), shrink_kernels(space, depth_j, raw2)
            mu, nu = normalize_measures(raw_mu), normalize_measures(raw_nu)
            J1mu, J1nu, J2mu, J2nu, mu, nu = (
                transport.tree_levels(table, d) for table in (
                    shift.dual_rows(space, J1, mu), shift.dual_rows(space, J1, nu),
                    shift.dual_rows(space, J2, mu), shift.dual_rows(space, J2, nu), mu, nu,
                )
            )
            base = transport.w1_tree_levels(space, mu, nu)
            sup = np.abs(J1 - J2).max(axis=1)
            # W1(L1* mu, L1* nu) <= r W1(mu, nu)
            ratio = transport.w1_tree_levels(space, J1mu, J1nu) / base
            worst_ratio = max(worst_ratio, float(ratio.max()))
            # W1(L1* mu, L2* mu) <= d sup|J1 - J2|
            perturb = transport.w1_tree_levels(space, J1mu, J2mu) - d * sup
            worst_perturb = max(worst_perturb, float(perturb.max()))
            # W1(L1* mu, L2* nu) <= r [W1(mu, nu) + (d/r) sup|J1 - J2|]
            joint = transport.w1_tree_levels(space, J1mu, J2nu) - r * (base + (d / r) * sup)
            worst_joint = max(worst_joint, float(joint.max()))
            passes += 1
    passed = (
        worst_ratio <= r + 1e-10
        and worst_perturb <= 1e-10
        and worst_joint <= 1e-10
    )
    return _result(
        "contraction-bounds", start, passed,
        f"{trials} trials each: max ratio {worst_ratio:.6f} (bound {r}), "
        f"perturbation excess {worst_perturb:.2e}, joint excess {worst_joint:.2e}",
        ratio=worst_ratio, perturbation_excess=worst_perturb, joint_excess=worst_joint,
        trials=trials, groups=passes, w1_passes=4 * passes, w1_rows=4 * trials,
    )


# ---------------------------------------------------------------------------
# 4. Section identity of pushforward after dual transfer, and duality
# ---------------------------------------------------------------------------


def check_section_identity(seed: int = 14, trials: int = 1000) -> GoldenResult:
    """Pushforward undoes the dual transfer exactly (1e-12), and the dual
    transfer is the adjoint of the transfer: mu(L f) = (L* mu)(f) (1e-12).

    Each trial draws its kernel with ``random_jacobian``, then its measure
    and its observable.  The trials of a block with the same (measure
    depth, kernel depth) are then one group of tables: one ``dual_rows``
    image, one pushforward and one ``transfer_rows`` image."""
    check_count("trials", trials, 1)
    start = time.perf_counter()
    rng = np.random.default_rng(check_count("seed", seed))
    f_rng = np.random.default_rng([seed, 1])
    space = ShiftSpace(2, 0.3)
    worst = worst_dual = 0.0
    passes = 0
    for block in shift.row_blocks(trials, space.n_words(5)):
        groups: Dict[Tuple[int, int], list] = {}
        for _ in range(block.start, block.stop):
            depth = int(rng.integers(1, 5))
            J = random_jacobian(space, int(rng.integers(1, min(depth + 1, 3) + 1)), rng)
            groups.setdefault((depth, J.depth), []).append((
                J.values, draw_measure(space, depth, rng),
                f_rng.uniform(-2.0, 2.0, space.n_words(depth + 1)),
            ))
        for draws in groups.values():
            J, raw_mu, f = (np.array(column) for column in zip(*draws))
            mu = normalize_measures(raw_mu)
            image = shift.dual_rows(space, J, mu)
            back = shift.check_probability_rows(shift.pushforward_rows(space, image))
            worst = max(worst, float(np.abs(back - mu).max()))
            Lf = shift.transfer_rows(space, J, f)
            # a row-wise vecdot keeps the bits of each row's 1-D dot product
            gap = np.abs(np.vecdot(mu, Lf) - np.vecdot(image, f))
            worst_dual = max(worst_dual, float(gap.max()))
            passes += 1
    passed = worst <= 1e-12 and worst_dual <= 1e-12
    return _result(
        "section-identity", start, passed,
        f"{trials} trials, max |recovered - original| = {worst:.2e} (tol 1e-12); "
        f"max |mu(Lf) - (L*mu)(f)| = {worst_dual:.2e} (tol 1e-12)",
        recovery=worst, duality=worst_dual, trials=trials, groups=passes,
    )


# ---------------------------------------------------------------------------
# 5. Inhomogeneous product formula and shift invariance
# ---------------------------------------------------------------------------


def check_product_formula() -> GoldenResult:
    """Two-kernel composition yields the product masses; invariance only
    for constant parameters."""
    start = time.perf_counter()
    space = ShiftSpace(2, 0.3)
    j03 = make_bernoulli_jacobian(0.3, space)
    j06 = make_bernoulli_jacobian(0.6, space)
    expected = np.array([0.18, 0.12, 0.42, 0.28])

    seeds = [
        CylinderMeasure.trivial(space),
        CylinderMeasure.point_mass(space, (2, 1)),
        CylinderMeasure(space, 1, [0.85, 0.15]),
    ]
    worst = 0.0
    for nu0 in seeds:
        res = compose_duals([j03, j06], nu0, track_trace=False)
        top2 = res.measure.at_depth(2).masses
        worst = max(worst, float(np.abs(top2 - expected).max()))

    # inhomogeneous product is not shift invariant ...
    rho = compose_duals(
        [j03, j06, make_bernoulli_jacobian(0.45, space)],
        CylinderMeasure.trivial(space),
        track_trace=False,
    ).measure
    shifted = pushforward_apply(rho)
    inhomo_gap = float(np.abs(shifted.masses - rho.coarsen().masses).max())

    # ... while the constant-parameter product is
    const = compose_duals(
        [j03, j03, j03], CylinderMeasure.trivial(space), track_trace=False
    ).measure
    const_gap = float(
        np.abs(pushforward_apply(const).masses - const.coarsen().masses).max()
    )

    passed = worst <= 1e-12 and inhomo_gap > 1e-3 and const_gap <= 1e-12
    return _result(
        "product-formula", start, passed,
        f"mass error {worst:.2e} over 3 seeds (tol 1e-12); shift gap "
        f"{inhomo_gap:.3f} inhomogeneous vs {const_gap:.2e} constant",
    )


# ---------------------------------------------------------------------------
# 6. Invariant pressure and density entropy of weighted kernel families
# ---------------------------------------------------------------------------


def _mass_of_one(mu: CylinderMeasure) -> float:
    return mu.mass_of((1,))


def check_ifs_invariant_pressure(
    gamma: float = 0.3, p: float = 0.3, p2: float = 0.7, q2: float = -1.0,
    length: int = 10,
) -> GoldenResult:
    """On the shift space ``(2, gamma)``, a lone Bernoulli(0.35) kernel's
    images decay at rate r to Bernoulli(0.35), whose mass of [1] is the
    N = 10 pressure within its bound from any seed, and 0 has pressure 0.
    The family of Bernoulli(``p``) at weight 0 and Bernoulli(``p2``) at
    ``q2`` solves exactly as brute force over its 2^``length`` words, and
    its density at 2^5 word images is the best weight sharing the image,
    bottom off them.  The record holds that solve and its best word."""
    space = ShiftSpace(2, gamma)
    fam2 = ifs.WeightedJacobianFamily(
        [make_bernoulli_jacobian(p, space), make_bernoulli_jacobian(p2, space)],
        [0.0, q2],
    )
    start = time.perf_counter()
    r = space.contraction_rate
    notes = []
    ok = True

    # geometric W1 decay of the composition prefixes toward Bernoulli(0.35)
    single = 0.35
    jp = make_bernoulli_jacobian(single, space)
    res = compose_duals([jp] * 9, CylinderMeasure.point_mass(space, (2,)))
    trace = res.w1_trace
    ratios = [
        trace[i + 1] / trace[i] for i in range(len(trace) - 1) if trace[i] > 1e-13
    ]
    decay_ok = all(q <= r + 1e-12 for q in ratios)
    target = CylinderMeasure.bernoulli(space, [single, 1 - single], res.measure.depth)
    limit_gap = transport.w1_tree(res.measure, target)
    limit_ok = limit_gap <= r ** 9
    ok &= decay_ok and limit_ok
    notes.append(
        f"decay ratios <= {max(ratios, default=0.0):.3f} (r={r}), "
        f"limit gap {limit_gap:.2e}"
    )

    # normalization: zero observable has pressure exactly 0
    fam = ifs.WeightedJacobianFamily([jp], [0.0])
    nu0 = CylinderMeasure.point_mass(space, (2,))
    zero = ifs.invariant_pressure_solve(fam, lambda mu: 0.0, 8, nu0)
    ok &= zero.value == 0.0
    notes.append(f"pressure of 0 = {zero.value:g}")

    # single-kernel family: pressure of mass-of-[1] approaches its mass
    pres = ifs.invariant_pressure_solve(fam, _mass_of_one, 10, nu0, lip_g=1.0)
    gap = abs(pres.value - single)
    ok &= gap <= pres.error_bound and pres.fixed_point_residual <= pres.error_bound
    notes.append(f"single-kernel pressure gap {gap:.2e} <= bound {pres.error_bound:.2e}")

    # seed independence
    alt = ifs.invariant_pressure_solve(
        fam, _mass_of_one, 10, CylinderMeasure(space, 1, [0.5, 0.5]), lip_g=1.0
    )
    seed_gap = abs(alt.value - pres.value)
    ok &= seed_gap <= r ** 10 + 1e-12
    notes.append(f"seed dependence {seed_gap:.2e} <= r^10 = {r**10:.2e}")

    # two-kernel enumeration against brute force, exact
    solved = ifs.invariant_pressure_solve(fam2, _mass_of_one, length, nu0, eps=0.0)
    brute_best, best = -np.inf, None
    exact = True
    for leaf in ifs.attractor_build(fam2, length, nu0, eps=0.0).leaves:
        rho = compose_duals([fam2.jacobians[i - 1] for i in leaf.word], nu0,
                            track_trace=False).measure
        exact &= np.array_equal(rho.masses, leaf.measure.masses)
        score = leaf.weight + _mass_of_one(rho)
        if score > brute_best:
            brute_best, best = score, leaf
    exact &= solved.value == brute_best
    ok &= exact
    notes.append(f"2^{length} words match brute force exactly: {exact}")

    # density entropy on a short exact sample (a query costs one W1 per
    # leaf): an image carries the best weight of the words sharing it (one
    # word unless p == p2), and a point mass off the attractor carries bottom
    small = ifs.attractor_build(fam2, 5, nu0, eps=0.0)

    def sharing(leaf: ifs.AttractorLeaf) -> Tuple[float, int]:
        weights = [other.weight for other in small.leaves
                   if np.array_equal(other.measure.masses, leaf.measure.masses)]
        return max(weights), len(weights)

    density = all(
        (est.value.value, est.matched) == sharing(leaf)
        for leaf in small.leaves[::4]
        for est in [ifs.density_entropy_estimate(small, leaf.measure)]
    )
    far = CylinderMeasure.point_mass(space, (1,) * small.leaves[0].measure.depth)
    density &= ifs.density_entropy_estimate(small, far).value.is_bottom
    ok &= density
    notes.append(
        f"density at 8 of the 2^5 word images is their weight, bottom off "
        f"them: {density}"
    )

    return _result(
        "ifs-invariant-pressure", start, bool(ok), "; ".join(notes),
        N=length, d=space.d, r=r, words=solved.words,
        pressure=solved.value, error_bound=solved.error_bound,
        fixed_point_residual=solved.fixed_point_residual,
        argmax_word=list(best.word), argmax_weight=float(best.weight),
    )


# ---------------------------------------------------------------------------
# 7. Max-plus IFS operators and the inverse problem
# ---------------------------------------------------------------------------


def check_mpifs_operators(
    seed: int = 17, systems: int = 100, points: Optional[int] = None
) -> GoldenResult:
    """Duality, invariance and the inverse problem on random max-plus IFS
    systems of ``points`` points each (``None``: a size drawn from 2..50 per
    system).  Duality compares ``mpifs_markov`` with the pressure of the
    Ruelle image; the invariance check's density and pressure (functional)
    residuals must agree on the fixed density and on a perturbed one."""
    check_count("systems", systems, 1)
    if points is not None:
        check_count("points", points, 1)
    start = time.perf_counter()
    rng = np.random.default_rng(check_count("seed", seed))
    worst_dual = 0.0
    consistent = True
    worst_inverse = 0.0
    rejected = 0
    for _ in range(systems):
        n = int(rng.integers(2, 51)) if points is None else points
        sys = random_mpifs(n, rng, constant_maps=True)
        lam = -rng.exponential(1.0, n)
        lam -= lam.max()
        F = rng.uniform(-2.0, 2.0, (3, n))
        rhs = pressure(lam, ifs.mpifs_ruelle(F.T, sys))
        for f, composed in zip(F, rhs):
            worst_dual = max(worst_dual, abs(ifs.mpifs_markov(lam, f, sys) - composed))

        fixed, _ = ifs.mpifs_fixed_density(sys)
        rep = ifs.mpifs_invariance_check(fixed, sys)
        consistent &= rep.consistent() and all(rep.passes())

        # fixed densities are not unique: lowering one point can leave the
        # density invariant, so only agreement of the two is required
        off = fixed.copy()
        off[int(rng.integers(0, n))] -= 0.7
        rep_off = ifs.mpifs_invariance_check(off, sys)
        consistent &= rep_off.consistent()
        rejected += not any(rep_off.passes())

        h = -rng.exponential(1.0, n)
        h -= h.max()
        inverse = ifs.inverse_problem_solve(h)
        worst_inverse = max(
            worst_inverse, float(np.abs(ifs.mpifs_transfer(h, inverse) - h).max())
        )
    passed = worst_dual <= 1e-12 and consistent and worst_inverse == 0.0
    return _result(
        "mpifs-operators", start, passed,
        f"{systems} systems: duality residual {worst_dual:.2e} (tol 1e-12), "
        f"density and pressure checks consistent: {consistent}, "
        f"perturbed densities rejected: {rejected}/{systems}, "
        f"inverse-problem residual {worst_inverse!r}",
    )


# ---------------------------------------------------------------------------
# 8. Two-symbol large-deviation worked example, Chebyshev step, convexity
# ---------------------------------------------------------------------------


def _partition_bruteforce(p: float, ts: Sequence[float], n: int) -> List[float]:
    """Direct summation over all 2^n cylinders at each t: symbol 2 carries
    mass p and the max-sum is 1 unless the word is all 2s.  A cylinder's
    mass depends only on its count of 2s, so the n + 1 masses are computed
    once and looked up.  The codes are taken in ``shift.row_blocks``, 2^n
    or ``BLOCK_CELLS`` at a time, and the block sums added as a pairwise
    tree: numpy's pairwise sum halves a power-of-two length exactly down to
    128, so that is the bits of one sum over all codes, without its
    2^n-long temporaries."""
    k = np.arange(n + 1)
    by_count = p ** k * (1.0 - p) ** (n - k)
    sums = []
    for block in shift.row_blocks(1 << n, 1):
        codes = np.arange(block.start, block.stop, dtype=np.uint64)
        count2 = np.bitwise_count(codes)  # digit 1 <-> symbol 2
        masses = by_count[count2]
        maxsum = (count2 < n).astype(float)
        sums.append([(np.exp(-n * t * maxsum) * masses).sum() for t in ts])
    sums = np.array(sums)
    while len(sums) > 1:
        sums = sums[0::2] + sums[1::2]
    return [float(s) for s in sums[0]]


def check_ldp_worked_example(
    p: float = 0.5, b: float = 0.5, t: float = 0.2, n_max: int = 20,
    seed: int = 18, mc_samples: int = 0,
) -> GoldenResult:
    """The two-symbol example with symbol 2 of mass ``p``: closed forms
    against cylinder sums, c_2000 against its limit at ``t`` and three
    fixed arguments, the bound at threshold ``b``, rates up to ``n_max``, the
    Chebyshev step, and max-plus convexity of c on 2000 orbits at ``seed``.
    The record holds the bound and, per n <= ``n_max``, c_n(-``t``) and the
    rate; with ``mc_samples`` > 0 also a Monte Carlo c_n and interval from
    that many orbits at ``seed``, whose coverage is reported, not gated."""
    t_star, bound = dynamics.bernoulli_ldp_bound(p, b)   # checks 0 < p, b < 1
    check_count("n_max", n_max, 1)
    check_count("mc_samples", mc_samples)
    start = time.perf_counter()
    notes = []
    ok = True

    worst_integral = worst_step = 0.0
    ts = (0.0, 0.1, 0.5, np.log(2.0), 2.0)
    for n in (1, 2, 3, 5, 10, 20):
        for u, brute in zip(ts, _partition_bruteforce(p, ts, n)):
            closed = np.exp(n * dynamics.c_n_exact(p, u, n))
            worst_integral = max(worst_integral, abs(closed - brute))
            prob, step_bound = dynamics.chebyshev_step_exact(p, u, b, n)
            worst_step = max(worst_step, prob / step_bound)
    ok &= worst_integral <= 1e-10
    notes.append(f"cylinder summation gap {worst_integral:.2e} (tol 1e-10)")

    worst_c = 0.0
    for u in (0.05, t, 0.5, 1.0):
        worst_c = max(
            worst_c,
            abs(dynamics.c_n_exact(p, u, 2000) - dynamics.c_limit_exact(p, u)),
        )
    ok &= worst_c <= 0.01
    notes.append(f"c_2000 vs limit gap {worst_c:.2e} (tol 0.01)")

    t_gap = abs(t_star - (-np.log(p)))
    b_gap = abs(bound - (1 - b) * np.log(p))
    ok &= t_gap <= 1e-8 and b_gap <= 1e-8
    notes.append(f"minimizer gap {t_gap:.2e}, bound gap {b_gap:.2e} (tol 1e-8)")

    def rate(n: int) -> float:
        return dynamics.log_event_probability(p, b, n) / n

    spread = [rate(n) for n in (1, 5, 10, 50, 2000)]
    rates = [rate(n) for n in range(1, n_max + 1)]
    rate_gap = max(abs(r - np.log(p)) for r in spread + rates)
    ok &= rate_gap <= 1e-12
    strict = spread[-1] < bound - 1e-9
    ok &= strict
    notes.append(
        f"rate gap {rate_gap:.2e}; strict gap log p={spread[-1]:.5f} < "
        f"bound={bound:.5f}: {strict}"
    )

    ok &= worst_step <= 1.0
    notes.append(f"Chebyshev step P(max-sum <= b) / bound <= {worst_step:.3f}")

    # max-plus convexity of c for f + 1 >= 1: c(u) = max(u, log p) + u in
    # the limit, and at n = 30 on sampled orbits, where it holds pathwise
    f_up = DepthKFunction(ShiftSpace(2, 0.3), 1, [2.0, 1.0])
    sampler = dynamics.OrbitSampler.bernoulli([1.0 - p, p], n_orbits=2000, seed=seed)
    convexity = [
        dynamics.c_maxplus_convexity_check(
            lambda u: dynamics.c_limit_exact(p, -u) + u, s=-0.8, t=0.3, alpha=0.0, beta=-0.5
        ),
        dynamics.c_maxplus_convexity_check(
            lambda u: dynamics.partition_function_mc(sampler, f_up, u, 30).value,
            s=0.4, t=0.2, alpha=0.0, beta=-0.3,
        ),
    ]
    ok &= all(rep.holds for rep in convexity)
    notes.append(
        f"max-plus convexity of c, closed form and 2000 orbits: equality "
        f"residual {max(rep.equality_residual for rep in convexity):.2e}, "
        f"slack {min(rep.convexity_slack for rep in convexity):.2e}"
    )

    # c_n(-t) per n, and its Monte Carlo estimate when asked for: a fresh
    # sampler at ``seed`` per n, so each n's estimate stands alone
    f = DepthKFunction(ShiftSpace(2, 0.3), 1, [1.0, 0.0])
    per_n = []
    covered = 0
    for n, rate_n in enumerate(rates, 1):
        row = {"n": n, "c_exact": dynamics.c_n_exact(p, t, n), "rate": rate_n}
        if mc_samples > 0:
            mc_sampler = dynamics.OrbitSampler.bernoulli(
                [1.0 - p, p], n_orbits=mc_samples, seed=seed
            )
            mc = dynamics.partition_function_mc(mc_sampler, f, -t, n)
            row.update(c_mc=mc.value, ci_low=mc.ci_low, ci_high=mc.ci_high)
            covered += mc.ci_low <= row["c_exact"] <= mc.ci_high
        per_n.append(row)
    if mc_samples > 0:
        notes.append(
            f"Monte Carlo c_n at {mc_samples} orbits: exact inside the interval "
            f"at {covered}/{n_max} n"
        )
    return _result(
        "ldp-worked-example", start, bool(ok), "; ".join(notes),
        ldp_bound=bound, bound_minimizer=t_star, limit_rate=rates[-1], per_n=per_n,
    )


# ---------------------------------------------------------------------------
# 9. Running-max attainment along sampled orbits
# ---------------------------------------------------------------------------


def check_birkhoff_attainment(seed: int = 19) -> GoldenResult:
    start = time.perf_counter()
    space = ShiftSpace(2, 0.3)
    sampler = dynamics.OrbitSampler.bernoulli([0.5, 0.5], n_orbits=100, seed=seed)
    f = DepthKFunction(space, 1, [1.0, 0.0])
    rep = dynamics.birkhoff_limit_test(sampler, f, length=10_000)
    passed = rep.attained_fraction == 1.0
    return _result(
        "birkhoff-attainment", start, passed,
        f"100 orbits of length 1e4 all attain sup: {passed}; per-orbit miss "
        f"probability 0.5^10000 (~1e-3011, underflows to "
        f"{rep.miss_probability_estimate!r})",
    )


# ---------------------------------------------------------------------------
# 10. Convex-pressure projection suite
# ---------------------------------------------------------------------------


def check_convex_pressure_suite(
    seed: int = 20, d: int = 2, m: int = 2000, trials: int = 12
) -> GoldenResult:
    """On the ``(d, m)`` simplex grid Shannon entropy meets the pressure
    axioms over ``trials`` observables drawn at ``seed``, and is recovered
    at mu = (e, 1, ..., 1) / (e + d - 1).  On the d = 2 grid at ``m`` a
    two-bump density lies below its recovered entropy and projects as its
    concave envelope over ``linspace(0, 1, m + 1)`` does."""
    check_count("trials", trials, 1)
    check_count("seed", seed)
    start = time.perf_counter()
    notes = []
    ok = True
    grid = simplex.SimplexGrid(d, m)
    plane = simplex.SimplexGrid(2, m)   # at d = 2 the same lattice, cached once

    axioms = simplex.pressure_axioms_check(
        simplex.shannon_entropy_table, grid, trials=trials, seed=seed
    )
    ok &= axioms.worst <= 1e-6
    notes.append(f"axiom violations {axioms.worst:.2e} (tol 1e-6)")

    family = simplex.affine_observable_family(2)
    gamma = simplex.convex_pressure_gamma(two_bump_density, family, plane)
    worst_gap = 0.0
    mid_gap = None
    for x in (0.2, 0.35, 0.5, 0.65, 0.8):
        point = np.array([x, 1 - x])
        recovered = simplex.entropy_recovery(gamma, family, point)
        hm = float(two_bump_density(point[None, :])[0])
        worst_gap = max(worst_gap, hm - recovered)
        if x == 0.5:
            mid_gap = recovered - hm
    ok &= worst_gap <= 1e-6
    notes.append(
        f"density below recovered entropy within {worst_gap:.2e} (tol 1e-6), "
        f"midpoint concavification gap {mid_gap:.3f}"
    )

    mu = np.array([np.e] + [1.0] * (d - 1)) / (np.e + (d - 1))
    fam_with_min = np.vstack([
        simplex.affine_observable_family(d), simplex.shannon_recovery_minimizer(mu)
    ])
    rec = simplex.entropy_recovery(
        simplex.convex_pressure_gamma(simplex.shannon_entropy_table, fam_with_min, grid),
        fam_with_min, mu,
    )
    shannon = simplex.shannon_entropy(mu)
    gap = abs(rec - shannon)
    ok &= gap <= 1e-4
    notes.append(f"Shannon recovery gap {gap:.2e} (tol 1e-4)")

    # a non-concave density and its concave envelope project identically
    xs = np.linspace(0.0, 1.0, m + 1)
    pts = np.column_stack([xs, 1 - xs])
    vals = two_bump_density(pts)
    env = simplex.concave_envelope_1d(xs, vals)
    worst_env = 0.0
    rng = np.random.default_rng(seed + 1)
    for _ in range(25):
        phi = rng.uniform(-3, 3, 2)
        lin = pts @ phi
        worst_env = max(worst_env, abs(pressure(vals, lin) - pressure(env, lin)))
    ok &= worst_env <= 1e-6
    notes.append(f"envelope projection gap {worst_env:.2e} (tol 1e-6)")

    return _result(
        "convex-pressure-suite", start, bool(ok), "; ".join(notes),
        monotonicity=axioms.monotonicity, translation=axioms.translation,
        convexity=axioms.convexity, mu=mu.tolist(), recovered_entropy=rec,
        shannon=shannon, density_gap=worst_gap, midpoint_gap=mid_gap,
        envelope_gap=worst_env,
    )


# ---------------------------------------------------------------------------
# 11. Nonlinear pressure: symmetric non-unique equilibria, Markov family
# ---------------------------------------------------------------------------


def check_nonlinear_quadratic() -> GoldenResult:
    start = time.perf_counter()
    A = np.array([1.0, -1.0])
    res = simplex.level2_pressure(simplex.shannon_entropy_table,
                                  lambda q: 2 * (q @ A) ** 2,
                                  simplex.SimplexGrid(2, 2000), argmax_tol=1e-6)
    points = res.argmax
    two = len(points) >= 2
    swapped = two and bool(np.abs(points[0] - points[1][::-1]).max() <= 1e-3)
    off_uniform = bool(all(abs(p[0] - 0.5) > 0.4 for p in points))

    # non-convexity: the midpoint of the equilibria (the uniform measure)
    # scores strictly below the maximum
    uniform = np.array([[0.5, 0.5]])
    mid_val = simplex.shannon_entropy_table(uniform)[0] + 2.0 * float(
        (uniform @ A)[0] ** 2
    )
    non_convex = bool(mid_val < res.value - 0.1)

    # a symbol potential under F(x) = x: over one-step Markov measures the
    # pressure is still log-sum-exp, attained at a Bernoulli measure
    symbol = np.array([0.5, -0.2])
    markov = simplex.level2_pressure(simplex.markov_entropy_table,
                                     lambda q: simplex.markov_marginal(q) @ symbol,
                                     simplex.MARKOV_GRID)
    markov_gap = abs(markov.value - simplex.log_sum_exp(symbol))

    passed = two and swapped and off_uniform and non_convex and markov_gap <= 1e-4
    return _result(
        "nonlinear-quadratic", start, passed,
        f"{len(points)} equilibria, swap-symmetric: {swapped}, away from "
        f"uniform: {off_uniform}, midpoint value {mid_val:.4f} < max "
        f"{res.value:.4f}: {non_convex}; Markov-family pressure of a symbol "
        f"potential vs log-sum-exp gap {markov_gap:.2e} (tol 1e-4)",
    )


# ---------------------------------------------------------------------------
# 12. Pushforward invariance of a density on simplex grids
# ---------------------------------------------------------------------------


def check_pushforward_invariance(seed: int = 21) -> GoldenResult:
    """The Shannon density is invariant under a symbol permutation on the
    (2, 400) and (3, 60) simplex grids (1e-9), and, charging points off the
    image of a non-injective symbol map, is rejected with a witness
    observable.  The observables are random quadratics in the masses."""
    start = time.perf_counter()
    rng = np.random.default_rng(check_count("seed", seed))
    worst = 0.0
    witnesses = []
    for d, m, perm, collapse in (
        (2, 400, [2, 1], [1, 1]), (3, 60, [2, 3, 1], [1, 1, 2])
    ):
        grid = simplex.SimplexGrid(d, m)
        h = simplex.shannon_entropy_table(grid.points())
        observables = []
        for _ in range(8):
            a, c = rng.uniform(-2.0, 2.0, d), float(rng.uniform(-1.0, 1.0))
            observables.append(lambda q, a=a, c=c: q @ a + c * q[:, 0] ** 2)
        kept = ifs.pushforward_invariance_check(grid, h, perm, observables)
        worst = max(worst, kept.functional_residual, kept.density_residual)
        lost = ifs.pushforward_invariance_check(grid, h, collapse, observables)
        witnesses.append(f"observable #{lost.worst_observable}"
                         if lost.functional_residual > 1e-9 else None)
    passed = worst <= 1e-9 and None not in witnesses
    return _result(
        "pushforward-invariance", start, passed,
        f"Shannon density under [2, 1] and [2, 3, 1]: residual {worst:.2e} "
        f"(tol 1e-9); off the image of [1, 1] and [1, 1, 2] rejected with "
        f"witnesses {', '.join(map(str, witnesses))}",
    )


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


ALL_CHECKS: Dict[str, Callable[[], GoldenResult]] = {
    "gibbs-equilibrium": check_gibbs_equilibrium,
    "transport-oracle": check_transport_oracle,
    "contraction-bounds": check_contraction_bounds,
    "section-identity": check_section_identity,
    "product-formula": check_product_formula,
    "ifs-invariant-pressure": check_ifs_invariant_pressure,
    "mpifs-operators": check_mpifs_operators,
    "ldp-worked-example": check_ldp_worked_example,
    "birkhoff-attainment": check_birkhoff_attainment,
    "convex-pressure-suite": check_convex_pressure_suite,
    "nonlinear-quadratic": check_nonlinear_quadratic,
    "pushforward-invariance": check_pushforward_invariance,
}


def run_all(names: Optional[Sequence[str]] = None) -> List[GoldenResult]:
    """Run the selected checks in order.  A check that raises is reported
    as a FAIL naming the exception, and the battery goes on."""
    selected = list(ALL_CHECKS) if names is None else list(names)
    for name in selected:
        if name not in ALL_CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {sorted(ALL_CHECKS)}")
    results = []
    for name in selected:
        start = time.perf_counter()
        try:
            results.append(ALL_CHECKS[name]())
        except Exception as exc:
            where = traceback.extract_tb(exc.__traceback__)[-1]
            results.append(_result(
                name, start, False,
                f"raised {type(exc).__name__}: {exc} "
                f"({os.path.basename(where.filename)}:{where.lineno})",
            ))
    return results
