"""Seeded workloads of the maxtherm benchmark.

``build(workload, seed, size)`` makes a workload's inputs from its seed and
returns its job list.  Each job is one call into maxtherm's public API.  The
runner times ``call``, reduces the output with ``keep`` outside the timed
region, and after the last pass compares every kept record with an
independent oracle through ``check``, which returns a failure reason or
None.  A job may hand a large intermediate (an attractor sample, a batch of
orbits) to the next job through the per-pass ``ctx`` dict.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from maxtherm import dynamics, goldens, ifs
from maxtherm.shift import (
    CylinderMeasure,
    DepthKFunction,
    ShiftSpace,
    compose_duals,
    make_bernoulli_jacobian,
)

WORKLOADS = ("verify", "ifs-merge", "ifs-exact", "orbits")


@dataclass
class Job:
    name: str
    call: Callable[[dict], Any]
    check: Callable[[Any], Optional[str]]
    keep: Callable[[Any], Any] = lambda out: out
    # traced functions this job reaches; a workload whose traced run
    # records zero calls of one of them fails loudly
    expects: Tuple[str, ...] = ()
    # the output is the program's own pass/fail verdict (a golden check),
    # so a FAIL is a reported failure rather than a wrong value
    verdict: bool = False
    # the kept record is (value, error bound, fixed-point residual)
    reports_bound: bool = False


@dataclass
class Workload:
    name: str
    jobs: List[Job]
    config: Dict[str, Any]

    @property
    def expects(self) -> List[str]:
        return sorted({name for job in self.jobs for name in job.expects})


def build(name: str, seed: int, size: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    if size not in ("full", "tiny"):
        raise ValueError(f"unknown size {size!r}")
    builder = {
        "verify": _verify,
        "ifs-merge": functools.partial(_ifs, eps=None),
        "ifs-exact": functools.partial(_ifs, eps=0.0),
        "orbits": _orbits,
    }[name]
    jobs, config = builder(seed, size)
    return Workload(name, jobs, config)


# ---------------------------------------------------------------------------
# verify: the golden battery, one job per check
# ---------------------------------------------------------------------------

# The tiny size (the benchmark's own test) skips the two slowest checks and
# shrinks the others where they take a size argument.
_TINY_SKIP = ("transport-oracle", "convex-pressure-suite")
_TINY_KWARGS = {
    "gibbs-equilibrium": {"per_d": 1},
    "contraction-bounds": {"trials": 10},
    "section-identity": {"trials": 10},
    "mpifs-operators": {"systems": 3},
}
_GOLDEN_EXPECTS = {
    "gibbs-equilibrium": ("simplex.maximize",),
    "transport-oracle": ("transport.w1_lp_oracle", "transport.linprog", "transport.w1_tree"),
    "contraction-bounds": ("shift.dual_apply", "shift.lipschitz_constant"),
    "section-identity": ("shift.dual_apply",),
    "ifs-invariant-pressure": ("ifs.attractor_build", "ifs.invariant_pressure_solve"),
    "mpifs-operators": ("ifs.mpifs_fixed_density", "ifs.mpifs_invariance_check"),
    "birkhoff-attainment": ("dynamics.sample",),
    "convex-pressure-suite": ("simplex.maximize",),
}


def _golden_check(result) -> Optional[str]:
    passed, detail = result
    return None if passed else f"check reported FAIL: {detail}"


def _verify(seed: int, size: str):
    jobs = []
    seeds = {}
    for name, fn in goldens.ALL_CHECKS.items():
        if size == "tiny" and name in _TINY_SKIP:
            continue
        kwargs = dict(_TINY_KWARGS.get(name, {})) if size == "tiny" else {}
        param = inspect.signature(fn).parameters.get("seed")
        if param is not None:
            kwargs["seed"] = param.default + seed
            seeds[name] = kwargs["seed"]
        jobs.append(Job(
            name=f"goldens.{name}",
            call=lambda ctx, fn=fn, kwargs=kwargs: fn(**kwargs),
            keep=lambda res: (bool(res.passed), res.detail),
            check=_golden_check,
            expects=_GOLDEN_EXPECTS.get(name, ()),
            verdict=True,
        ))
    return jobs, {"check_seeds": seeds}


# ---------------------------------------------------------------------------
# ifs-merge / ifs-exact: attractor enumeration, clustering and pressures
# ---------------------------------------------------------------------------

_IFS_LENGTHS = {
    # family -> (word length, observable of the pressure solve)
    ("full", "merge"): {"A": ((7, "g1"), (8, "g2")), "B": ((9, "g2"), (10, "g1"))},
    ("full", "exact"): {"A": ((7, "g1"), (8, "g2"), (9, "g1")),
                        "B": ((9, "g2"), (10, "g1"), (11, "g2"))},
    ("tiny", "merge"): {"A": ((3, "g1"), (4, "g2")), "B": ((4, "g2"), (5, "g1"))},
    ("tiny", "exact"): {"A": ((3, "g1"), (4, "g2")), "B": ((4, "g2"), (5, "g1"))},
}
_QUERIES = 8          # density queries per merged sample
_NO_BUILD_JOB = 9     # at this family-A length the solve's own build is the only one
_TOL = 1e-12          # float slack of sums of weights


def _image(fam: ifs.WeightedJacobianFamily, word, nu0: CylinderMeasure) -> np.ndarray:
    """Masses of the composition image of a word (outermost kernel first),
    computed here from the kernel tables: nu[a.w] = J(a.w) mu[w]."""
    d = fam.space.d
    masses, depth = nu0.masses, nu0.depth
    for i in reversed(word):
        J = fam.jacobians[i - 1]
        masses = np.repeat(J.values, d ** (depth + 1 - J.depth)) * np.tile(masses, d)
        depth += 1
    return masses


def _word_weight(fam, word) -> float:
    return float(sum(fam.weights[i - 1] for i in word))


def _ifs(seed: int, size: str, eps: Optional[float]):
    rng = np.random.default_rng(seed)
    space = ShiftSpace(2, 0.3)
    families = {
        # the ROADMAP family: two random depth-2 kernels and Bernoulli(0.4)
        "A": ifs.WeightedJacobianFamily(
            [goldens.random_jacobian(space, 2, rng), goldens.random_jacobian(space, 2, rng),
             make_bernoulli_jacobian(0.4, space)],
            [0.0, -0.5, -1.0],
        ),
        # the `maxtherm ifs` family
        "B": ifs.WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.3, space), make_bernoulli_jacobian(0.7, space)],
            [0.0, -1.0],
        ),
    }
    nu0 = CylinderMeasure.point_mass(space, (2,))
    cylinder = tuple(int(s) for s in rng.integers(1, 3, 2))
    # (observable, its Lipschitz constant for W1): the indicator of a
    # depth-k cylinder is 1/gamma^(k-1)-Lipschitz
    observables = {
        "g1": (lambda mu: mu.mass_of((1,)), 1.0),
        "g2": (lambda mu: mu.mass_of(cylinder), 1.0 / space.gamma),
    }
    mode = "exact" if eps == 0.0 else "merge"
    plan = _IFS_LENGTHS[(size, mode)]

    @functools.lru_cache(maxsize=None)
    def oracle(label: str, N: int, g: str) -> float:
        """Pressure by eps=0 enumeration (merge) or brute force over every
        word composed with compose_duals (exact, smallest length only)."""
        fam = families[label]
        fn = observables[g][0]
        if mode == "merge":
            return ifs.invariant_pressure_solve(fam, fn, N, nu0, lip_g=observables[g][1],
                                                eps=0.0).value
        best = -math.inf
        for word in np.ndindex(*([len(fam)] * N)):
            rho = compose_duals([fam.jacobians[i] for i in word], nu0,
                                track_trace=False).measure
            best = max(best, _word_weight(fam, [i + 1 for i in word]) + fn(rho))
        return best

    jobs: List[Job] = []
    for label, runs in plan.items():
        fam = families[label]
        m = len(fam)
        smallest = runs[0][0]
        for N, g in runs:
            tag = f"{label},N={N}"
            if not (mode == "exact" and label == "A" and N == _NO_BUILD_JOB):
                jobs.append(_build_job(fam, N, nu0, eps, tag, share=(mode == "merge")))
            if mode == "merge":
                for k in range(_QUERIES):
                    word = tuple(int(i) for i in rng.integers(1, m + 1, N))
                    target = CylinderMeasure(space, nu0.depth + N, _image(fam, word, nu0))
                    jobs.append(_query_job(target, _word_weight(fam, word), f"{tag},q{k}"))
            fn, lip = observables[g]
            reference = None
            if mode == "merge" or N == smallest:
                reference = functools.partial(oracle, label, N, g)
            jobs.append(Job(
                name=f"ifs.invariant_pressure_solve[{tag},{g}]",
                call=lambda ctx, fam=fam, fn=fn, N=N, lip=lip: ifs.invariant_pressure_solve(
                    fam, fn, N, nu0, lip_g=lip, eps=eps),
                keep=lambda res: (res.value, res.error_bound, res.fixed_point_residual),
                check=functools.partial(_check_solve, reference=reference,
                                        exact=(mode == "exact")),
                expects=("ifs.invariant_pressure_solve", "ifs.attractor_build",
                         "shift.dual_apply") + (("transport.w1_tree",) if mode == "merge" else ()),
                reports_bound=True,
            ))
    config = {
        "eps": "default" if eps is None else eps, "d": 2, "gamma": 0.3,
        "families": {"A": "2 random depth-2 kernels + Bernoulli(0.4), weights 0/-0.5/-1",
                     "B": "Bernoulli 0.3/0.7, weights 0/-1"},
        "lengths": {k: [N for N, _ in v] for k, v in plan.items()},
        "cylinder": list(cylinder),
        "queries_per_sample": _QUERIES if mode == "merge" else 0,
    }
    return jobs, config


def _build_job(fam, N: int, nu0, eps, tag: str, share: bool) -> Job:
    m = len(fam)

    def call(ctx):
        sample = ifs.attractor_build(fam, N, nu0, eps=eps)
        if share:
            ctx["sample"] = sample
        return sample

    def keep(sample):
        return (sample.raw_count, len(sample.leaves),
                sum(leaf.merged for leaf in sample.leaves),
                max(leaf.radius for leaf in sample.leaves), sample.epsilon)

    def check(record) -> Optional[str]:
        raw, clusters, merged, radius, epsilon = record
        if raw != m ** N:
            return f"raw_count {raw} != {m}^{N}"
        if merged != raw:
            return f"the clusters hold {merged} words, not {raw}"
        if radius > epsilon:
            return f"cluster radius {radius!r} exceeds eps {epsilon!r}"
        if epsilon == 0.0 and clusters != raw:
            return f"{clusters} leaves at eps=0, not {raw}"
        return None

    return Job(f"ifs.attractor_build[{tag}]", call, check, keep,
               expects=("ifs.attractor_build", "shift.dual_apply")
               + (("transport.w1_tree",) if share else ()))


def _query_job(target: CylinderMeasure, weight: float, tag: str) -> Job:
    """Density at the image of one word: the word's own cluster is within
    eps and keeps the max weight, so the estimate lies in [weight, 0]."""

    def check(record) -> Optional[str]:
        value, matched = record
        if matched < 1:
            return "the image of the query word matched no cluster"
        if not weight - _TOL <= value <= _TOL:
            return f"density {value!r} outside [{weight!r}, 0]"
        return None

    return Job(f"ifs.density_entropy_estimate[{tag}]",
               call=lambda ctx: ifs.density_entropy_estimate(ctx["sample"], target),
               keep=lambda est: (est.value.value, est.matched),
               check=check, expects=("ifs.density_entropy_estimate",))


def _check_solve(record, reference, exact: bool) -> Optional[str]:
    value, bound, residual = record
    if residual > bound:
        return f"fixed-point residual {residual!r} exceeds the error bound {bound!r}"
    if reference is None:
        return None
    ref = reference()
    if exact and abs(value - ref) > _TOL:
        return f"value {value!r} differs from the brute-force max {ref!r}"
    if not exact and abs(value - ref) > bound:
        return (f"|value - eps=0 value| = {abs(value - ref)!r} exceeds the error "
                f"bound {bound!r}")
    return None


# ---------------------------------------------------------------------------
# orbits: orbit sampling, running maxes, Monte Carlo partition, max-plus IFS
# ---------------------------------------------------------------------------

_ORBIT_SIZES = {
    "full": {"orbits": 10_000, "length": 1_000, "n_max": 20, "mc_samples": 10_000,
             "points": (100, 200, 300)},
    "tiny": {"orbits": 200, "length": 60, "n_max": 3, "mc_samples": 500,
             "points": (8, 16)},
}
# the symbol-frequency check allows this many standard errors
_SIGMAS = 6.0


def _window_codes(orbits: np.ndarray, depth: int, d: int) -> np.ndarray:
    windows = np.lib.stride_tricks.sliding_window_view(orbits - 1, depth, axis=1)
    return windows @ (d ** np.arange(depth - 1, -1, -1))


def _transfer(lam: np.ndarray, system) -> np.ndarray:
    out = np.full(system.n_points, -np.inf)
    np.maximum.at(out, system.maps.ravel(), (system.weights + lam[None, :]).ravel())
    return out


def _same_density(a: np.ndarray, b: np.ndarray) -> bool:
    finite = np.isfinite(a)
    return bool(np.array_equal(finite, np.isfinite(b))
                and np.array_equal(a[~finite], b[~finite])
                and np.all(np.abs(a[finite] - b[finite]) <= _TOL))


def _orbits(seed: int, size: str):
    cfg = _ORBIT_SIZES[size]
    rng = np.random.default_rng(seed)
    space = ShiftSpace(2, 0.3)
    n_orbits, length = cfg["orbits"], cfg["length"]
    n_windows = length - 2
    p1 = float(rng.uniform(0.3, 0.7))
    bern = dynamics.OrbitSampler.bernoulli([p1, 1.0 - p1], n_orbits=n_orbits, seed=seed)
    a, b = rng.uniform(0.3, 0.7, 2)
    markov = dynamics.OrbitSampler.markov([[a, 1.0 - a], [b, 1.0 - b]],
                                          n_orbits=n_orbits, seed=seed + 1)
    f3 = DepthKFunction(space, 3, rng.uniform(0.0, 1.0, 8))
    # the `maxtherm ldp --mc-samples` example at its default p and t
    p, t = 0.5, 0.2
    f1 = DepthKFunction(space, 1, [1.0, 0.0])
    mc = dynamics.OrbitSampler.bernoulli([1.0 - p, p], n_orbits=cfg["mc_samples"], seed=seed)
    systems = [goldens.random_mpifs(n, rng, constant_maps=False) for n in cfg["points"]]

    def sample_call(ctx):
        ctx["orbits"] = bern.sample(length)
        return ctx["orbits"]

    def sample_check(record) -> Optional[str]:
        shape, lo, hi, ones = record
        if shape != (n_orbits, length) or lo < 1 or hi > 2:
            return f"orbits of shape {shape} with symbols {lo}..{hi}"
        total = n_orbits * length
        if abs(ones / total - p1) > _SIGMAS * math.sqrt(p1 * (1 - p1) / total):
            return f"symbol-1 frequency {ones / total!r}, expected {p1!r}"
        return None

    def table_call(ctx):
        orbits = ctx.pop("orbits")
        return dynamics.birkhoff_max_table(f3, orbits, n_windows), orbits

    def table_check(record) -> Optional[str]:
        head, rows, shape = record
        want = f3.values[_window_codes(rows, 3, 2)].max(axis=1)
        if shape != (n_orbits,) or not np.array_equal(head, want):
            return "running maxes differ from the window-by-window max"
        return None

    @functools.lru_cache(maxsize=None)
    def limit_oracle():
        orbits = markov.sample(length)
        hit = f3.values[_window_codes(orbits, 3, 2)] >= f3.values.max() - 1e-9
        attained = hit.any(axis=1)
        return float(attained.mean()), float((hit.argmax(axis=1) + 1)[attained].mean())

    def limit_check(record) -> Optional[str]:
        fraction, sup, first_hit = record
        want_fraction, want_first = limit_oracle()
        if sup != f3.values.max() or fraction != want_fraction or \
                abs(first_hit - want_first) > 1e-9 * want_first:
            return (f"attained {fraction!r}, first hit {first_hit!r}; window scan gives "
                    f"{want_fraction!r}, {want_first!r}")
        return None

    def partition_check(record, n: int) -> Optional[str]:
        """Within c_n_exact's widest gap from an estimate whose count of
        all-2 words (the only words with max-sum 0, each of weight p^n)
        lies in the central 1 - 2e-9 interval of Binomial(N, p^n).  The
        count is heavy-tailed at large n, where one such word among N moves
        the estimate by more than six standard errors."""
        from scipy.stats import binom

        samples = cfg["mc_samples"]
        floor = math.exp(-n * t)

        def c_of(count: float) -> float:
            return math.log(floor + count * (1.0 - floor) / samples) / n

        exact = dynamics.c_n_exact(p, t, n)
        lo, hi = binom.interval(1.0 - 2e-9, samples, p ** n)
        tol = max(abs(c_of(lo) - exact), abs(c_of(hi) - exact)) + _TOL
        gap = abs(record - exact)
        return None if gap <= tol else f"|c_{n} estimate - exact| = {gap!r} > {tol!r}"

    def fixed_check(record, system) -> Optional[str]:
        lam, _ = record
        if lam.max() != 0.0 or not _same_density(_transfer(lam, system), lam):
            return "the density is not a normalized fixed point of the transfer operator"
        return None

    jobs = [
        Job("dynamics.OrbitSampler.sample[bernoulli]", sample_call, sample_check,
            keep=lambda o: (o.shape, int(o.min()), int(o.max()), int((o == 1).sum())),
            expects=("dynamics.sample",)),
        Job("dynamics.birkhoff_max_table", table_call, table_check,
            keep=lambda out: (out[0][:8].copy(), out[1][:8].copy(), out[0].shape),
            expects=("dynamics.birkhoff_max_table",)),
        Job("dynamics.birkhoff_limit_test[markov]",
            lambda ctx: dynamics.birkhoff_limit_test(markov, f3, n_windows), limit_check,
            keep=lambda rep: (rep.attained_fraction, rep.sup_value, rep.first_hit_mean),
            expects=("dynamics.sample",)),
    ]
    for n in range(1, cfg["n_max"] + 1):
        jobs.append(Job(
            f"dynamics.partition_function_mc[n={n}]",
            lambda ctx, n=n: dynamics.partition_function_mc(mc, f1, -t, n),
            functools.partial(partition_check, n=n), keep=lambda est: est.value,
            expects=("dynamics.partition_function_mc",)))
    for system in systems:
        def fixed_call(ctx, system=system):
            lam, iters = ifs.mpifs_fixed_density(system)
            ctx["lam"] = lam
            return lam, iters

        jobs.append(Job(
            f"ifs.mpifs_fixed_density[points={system.n_points}]", fixed_call,
            functools.partial(fixed_check, system=system), expects=("ifs.mpifs_fixed_density",)))
        jobs.append(Job(
            f"ifs.mpifs_invariance_check[points={system.n_points}]",
            lambda ctx, system=system: ifs.mpifs_invariance_check(ctx.pop("lam"), system),
            lambda passes: None if all(passes) else f"residual checks passed: {passes}",
            keep=lambda rep: rep.passes(), expects=("ifs.mpifs_invariance_check",)))
    config = {"orbits": n_orbits, "length": length, "bernoulli_p1": p1,
              "markov_rows_to_1": [float(a), float(b)], "observable_depth": 3,
              "ldp_p": p, "ldp_t": t, "n_max": cfg["n_max"],
              "mc_samples": cfg["mc_samples"], "mpifs_points": list(cfg["points"])}
    return jobs, config
