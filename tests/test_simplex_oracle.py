"""The lock-step simplex search against the per-candidate search it replaced.

The oracle below is the earlier implementation: a lattice rebuilt on every
call and one objective call per candidate and refinement round.  The fast
path must agree with it bit for bit: same value, same near-maximizers in
the same order, same evaluation count.  Entropy recovery from one Gamma
table is held to the per-target recovery it replaced in the same way.
A Gamma table, one lock-step search over a whole family, is held to one
``level2_pressure`` per row, and the axiom check that prices all its
trials in one table to its per-trial loop.
The Markov family, searched on its pair simplex, is held to the earlier
parametrization by its two transition probabilities (a, b).
"""

import re
from typing import List

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxtherm import shift, simplex
from maxtherm.simplex import (
    DEDUP_TOL,
    MARKOV_GRID,
    REFINE_ROUNDS,
    SHRINK,
    TOP_K,
    SimplexGrid,
    convex_pressure_gamma,
    entropy_recovery,
    level2_pressure,
    markov_entropy_table,
    markov_marginal,
    maximize_on_simplex,
    pressure_axioms_check,
    shannon_entropy_table,
)
from oracles import (
    entropy_recovery_per_target,
    markov_ks_entropy,
    markov_stationary,
    pressure_axioms_per_trial,
)


# ---------------------------------------------------------------------------
# Oracle: per-call lattice, per-candidate refinement
# ---------------------------------------------------------------------------


def _oracle_compositions(m: int, d: int) -> np.ndarray:
    if d == 1:
        return np.array([[m]], dtype=np.int64)
    rows = []
    for first in range(m + 1):
        rest = _oracle_compositions(m - first, d - 1)
        block = np.empty((rest.shape[0], d), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = rest
        rows.append(block)
    return np.vstack(rows)


def _oracle_patch(center, width):
    axes = [
        np.linspace(max(0.0, c - width), min(1.0, c + width), 9)
        for c in center[:-1]
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    free = np.column_stack([m.ravel() for m in mesh])
    last = 1.0 - free.sum(axis=1)
    keep = last >= -1e-12
    return np.column_stack([free[keep], np.clip(last[keep], 0.0, 1.0)])


def _oracle_spread(points, values, k, min_sep) -> List[int]:
    order = np.argsort(values)[::-1]
    chosen: List[int] = []
    for i in order:
        if not np.isfinite(values[i]):
            continue
        if all(np.max(np.abs(points[i] - points[j])) >= min_sep for j in chosen):
            chosen.append(int(i))
        if len(chosen) == k:
            break
    return chosen


def oracle_maximize(objective, grid, argmax_tol=1e-9):
    pts = _oracle_compositions(grid.m, grid.d) / float(grid.m)
    vals = np.asarray(objective(pts), dtype=float)
    n_eval = len(vals)
    cand_idx = _oracle_spread(pts, vals, TOP_K, min_sep=2.5 / grid.m)
    if not cand_idx:
        raise ValueError("objective is -inf on the whole grid")
    finals = []
    for i in cand_idx:
        center, best = pts[i].copy(), float(vals[i])
        width = 1.0 / grid.m
        for _ in range(REFINE_ROUNDS):
            patch = np.vstack([_oracle_patch(center, width), center[None, :]])
            pv = np.asarray(objective(patch), dtype=float)
            n_eval += len(pv)
            j = int(np.argmax(pv))
            if pv[j] > best:
                center, best = patch[j].copy(), float(pv[j])
            width *= SHRINK
        finals.append((center, best))
    top = max(v for _, v in finals)
    near = [(p, v) for p, v in finals if v >= top - argmax_tol]
    near.sort(key=lambda t: -t[1])
    argmax: List[np.ndarray] = []
    for p, _ in near:
        if all(np.max(np.abs(p - q)) > DEDUP_TOL for q in argmax):
            argmax.append(p)
    return simplex.SimplexMax(value=top, argmax=np.array(argmax), evaluations=n_eval)


def markov_pair_objective(F, A):
    """The Markov objective on pair points, the pair-simplex density plus
    F of the stationary integral of A."""
    def obj(pts):
        return markov_entropy_table(pts) + np.asarray(F(markov_marginal(pts) @ A), dtype=float)

    return obj


def markov_pressure(F, A):
    """The nonlinear pressure over the Markov family on ``MARKOV_GRID``."""
    return level2_pressure(markov_entropy_table, lambda q: F(markov_marginal(q) @ A),
                           MARKOV_GRID)


def markov_ab_objective(F, A):
    """The same objective on (a, b) rows of transition probabilities."""
    def obj(params):
        a, b = params[:, 0], params[:, 1]
        x = markov_stationary(a, b) @ A
        return markov_ks_entropy(a, b) + np.asarray(F(x), dtype=float)

    return obj


def assert_identical(got, want):
    assert got.value == want.value
    assert got.argmax.shape == want.argmax.shape
    assert np.array_equal(got.argmax, want.argmax)
    assert got.evaluations == want.evaluations


# ---------------------------------------------------------------------------
# Random row-wise objectives, some -inf on whole regions
# ---------------------------------------------------------------------------


def random_objective(seed: int, d: int, kind: str):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-3.0, 3.0, d)
    q = rng.normal(size=(d, d))
    w, thr = rng.uniform(-1.0, 1.0, d), rng.uniform(-0.5, 0.5)
    amp, freq = rng.uniform(0.0, 1.0), rng.uniform(1.0, 60.0)

    def objective(pts):
        if kind == "quadratic-F":   # the nonlinear-pressure shape 2 (p.c)^2 + H
            return 2.0 * (pts @ c) ** 2 + shannon_entropy_table(pts)
        vals = shannon_entropy_table(pts) + pts @ c
        if kind in ("wavy", "masked", "masked-quadratic"):
            vals = vals + amp * np.sin(freq * pts[:, 0])
        if kind in ("masked", "masked-quadratic"):
            vals = np.where(pts @ w > thr, vals, -np.inf)
        if kind == "masked-quadratic":
            vals = vals + ((pts @ q) * pts).sum(axis=1)
        return vals

    return objective


KINDS = ("linear", "wavy", "masked", "masked-quadratic", "quadratic-F")
MAX_M = {2: 400, 3: 40, 4: 14}


@st.composite
def search_cases(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    return dict(
        d=d,
        m=draw(st.integers(1, MAX_M[d])),
        argmax_tol=draw(st.sampled_from((1e-9, 1e-6, 1e-2))),
        kind=draw(st.sampled_from(KINDS)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def check_against_oracle(objective, grid, argmax_tol=1e-9):
    """``maximize_on_simplex`` against the oracle at the same tolerance."""
    try:
        want = oracle_maximize(objective, grid, argmax_tol)
    except ValueError:
        with pytest.raises(ValueError, match="-inf on the whole grid"):
            maximize_on_simplex(objective, grid, argmax_tol)
        return
    assert_identical(maximize_on_simplex(objective, grid, argmax_tol), want)


class TestLockStepMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(search_cases())
    def test_value_argmax_and_evaluations_identical(self, case):
        objective = random_objective(case["seed"], case["d"], case["kind"])
        check_against_oracle(objective, SimplexGrid(case["d"], case["m"]),
                             case["argmax_tol"])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d,m", [(2, 2000), (3, 60), (4, 12)])
    def test_default_grids(self, d, m, kind):
        grid = SimplexGrid(d, m)
        for seed in range(2):
            check_against_oracle(random_objective(seed, d, kind), grid)

    @pytest.mark.parametrize("m", [50, 60])
    @pytest.mark.parametrize("k", [2.0, 0.5, -1.0])
    def test_markov_family(self, m, k):
        F, A = (lambda x: k * x ** 2 + x), np.array([0.5, -0.2])
        obj, grid = markov_pair_objective(F, A), SimplexGrid(3, m)
        want = oracle_maximize(obj, grid)
        assert_identical(maximize_on_simplex(obj, grid), want)
        if grid == MARKOV_GRID:
            assert_identical(markov_pressure(F, A), want)


@st.composite
def transition_pairs(draw):
    """(a, b) on the lattice of step 1/n, edges included.  Off such
    lattices, uniform floats still leave the two forms about 2e-15 apart
    from the rounding of their formulas alone."""
    n = draw(st.integers(1, 100_000))
    return draw(st.integers(0, n)) / n, draw(st.integers(0, n)) / n


class TestMarkovPairSimplex:
    """A stationary one-step Markov measure on {1, 2} is fixed by its pair
    distribution: at (a, b) it is the point (pi1 a, pi1 (1 - a) + pi2 b,
    pi2 (1 - b)) of the pair simplex."""

    @settings(max_examples=300, deadline=None)
    @given(transition_pairs())
    @example((0.0, 0.0))
    @example((0.0, 1.0))
    @example((1.0, 0.0))
    @example((1.0, 1.0))
    @example((5.96e-8, 1e-9))
    @example((1 - 9.9e-13, 6.8e-16))
    def test_pair_entropy_and_marginal_match_the_ab_oracle(self, ab):
        a, b = np.array([ab[0]]), np.array([ab[1]])
        pi1, pi2 = markov_stationary(a, b)[0]
        pts = np.column_stack([pi1 * a, pi1 * (1 - a) + pi2 * b, pi2 * (1 - b)])
        assert abs(markov_entropy_table(pts)[0] - markov_ks_entropy(a, b)[0]) <= 1e-15
        assert np.abs(markov_marginal(pts) - markov_stationary(a, b)).max() <= 1e-15

    @pytest.mark.parametrize("k", [5.0, 2.0, 0.5, -1.0, -4.0])
    def test_pressure_matches_ab_brute_force(self, k):
        F, A = (lambda x: k * x ** 2 + x), np.array([0.5, -0.2])
        axis = np.linspace(0.0, 1.0, 401)
        a, b = np.meshgrid(axis, axis, indexing="ij")
        brute = markov_ab_objective(F, A)(np.column_stack([a.ravel(), b.ravel()])).max()
        assert abs(markov_pressure(F, A).value - brute) <= 1e-4


@st.composite
def recovery_cases(draw):
    d = draw(st.sampled_from((2, 3)))
    return dict(
        d=d,
        m=draw(st.integers(1, 60 if d == 2 else 12)),
        rows=draw(st.one_of(st.just(1), st.integers(2, 12))),
        targets=draw(st.integers(1, 4)),
        kind=draw(st.sampled_from(KINDS)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestRecoveryMatchesPerTargetOracle:
    """One Gamma table, conjugated at every target, against a fresh
    maximization per row and per target: the pressures are the same
    calls, so the recoveries must be bit-identical."""

    @settings(max_examples=60, deadline=None)
    @given(recovery_cases())
    def test_recoveries_identical(self, case):
        grid = SimplexGrid(case["d"], case["m"])
        h = random_objective(case["seed"], case["d"], case["kind"])
        rng = np.random.default_rng(case["seed"])
        family = rng.uniform(-6.0, 6.0, (case["rows"], case["d"]))
        mus = rng.dirichlet(np.ones(case["d"]), case["targets"])
        try:
            want = [entropy_recovery_per_target(h, mu, family, grid) for mu in mus]
        except ValueError:
            with pytest.raises(ValueError, match="-inf on the whole grid"):
                convex_pressure_gamma(h, family, grid)
            return
        gamma = convex_pressure_gamma(h, family, grid)
        got = [entropy_recovery(gamma, family, mu) for mu in mus]
        assert np.array(got).tobytes() == np.array(want).tobytes()


def bottom(pts):
    return np.full(len(pts), -np.inf)


@st.composite
def family_cases(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    return dict(
        d=d,
        m=draw(st.integers(1, MAX_M[d] // 2)),
        rows=draw(st.one_of(st.just(0), st.integers(1, 12))),
        kind=draw(st.sampled_from(KINDS + ("bottom",))),
        poison=draw(st.sampled_from((None, None, np.nan, np.inf, -np.inf))),
        seed=draw(st.integers(0, 2**32 - 1)),
        one_row_blocks=draw(st.booleans()),
    )


class TestFamilySearchMatchesPerRow:
    """A Gamma table is one search over the whole family; each entry must
    be the per-row ``level2_pressure`` value bit for bit, and a row that
    the per-row loop rejects must raise the same error, also when
    ``shift.BLOCK_CELLS`` makes each row a block of its own.  A family with
    a NaN or infinite tilt is refused as such before any search."""

    @settings(max_examples=120, deadline=None)
    @given(family_cases())
    @example(dict(d=2, m=7, rows=0, kind="linear", poison=None, seed=0))
    @example(dict(d=3, m=5, rows=4, kind="bottom", poison=None, seed=1))
    @example(dict(d=2, m=9, rows=5, kind="masked", poison=np.nan, seed=2))
    @example(dict(d=4, m=6, rows=3, kind="wavy", poison=np.inf, seed=3))
    @example(dict(d=2, m=30, rows=12, kind="quadratic-F", poison=-np.inf, seed=4))
    @example(dict(d=3, m=8, rows=9, kind="wavy", poison=None, seed=5, one_row_blocks=True))
    def test_values_identical(self, case):
        grid = SimplexGrid(case["d"], case["m"])
        h = bottom if case["kind"] == "bottom" else random_objective(
            case["seed"], case["d"], case["kind"])
        rng = np.random.default_rng(case["seed"])
        family = rng.uniform(-6.0, 6.0, (case["rows"], case["d"]))
        if case["poison"] is not None and case["rows"]:
            family[rng.integers(case["rows"]), rng.integers(case["d"])] = case["poison"]
            # the family is checked before h is called, so its message
            # names the family, whatever the objective
            with pytest.raises(ValueError, match="^family must be a finite number, got "
                                                 f"{case['poison']!r}$"):
                convex_pressure_gamma(h, family, grid)
            return
        try:
            want = np.array([level2_pressure(h, lambda p, phi=phi: p @ phi, grid).value
                             for phi in family])
        except ValueError as exc:
            want = exc
        with pytest.MonkeyPatch.context() as mp:
            if case.get("one_row_blocks"):
                mp.setattr(shift, "BLOCK_CELLS", len(grid.points()))
            if isinstance(want, ValueError):
                with pytest.raises(ValueError, match=f"^{re.escape(str(want))}$"):
                    convex_pressure_gamma(h, family, grid)
                return
            got = convex_pressure_gamma(h, family, grid)
        assert got.shape == want.shape == (case["rows"],)
        assert got.tobytes() == want.tobytes()
        for phi, value in zip(family, got):
            assert value == oracle_maximize(lambda p, phi=phi: h(p) + p @ phi, grid).value

    @pytest.mark.parametrize("d,m,rows", [(2, 2000, 241), (3, 60, 40), (4, 12, 13)])
    def test_default_grids(self, d, m, rows):
        # at (2, 2000) the rows are scanned in several blocks
        h = random_objective(1, d, "masked")
        family = np.random.default_rng(d).uniform(-6.0, 6.0, (rows, d))
        want = np.array([level2_pressure(h, lambda p, phi=phi: p @ phi, SimplexGrid(d, m)).value
                         for phi in family])
        assert convex_pressure_gamma(h, family, SimplexGrid(d, m)).tobytes() == want.tobytes()


class TestOneSearchPerTable:
    """The work of a Gamma table does not grow with the family: h is called
    once on the lattice and once per refinement round, and each row still
    scores the points its own search would."""

    @staticmethod
    def counted(h):
        sizes = []

        def wrapped(pts):
            sizes.append(len(pts))
            return h(pts)

        return wrapped, sizes

    @pytest.mark.parametrize("d,m", [(2, 2000), (3, 40)])
    @pytest.mark.parametrize("rows", [1, 5, 60, 241])
    def test_h_calls_and_points_per_row(self, d, m, rows):
        grid = SimplexGrid(d, m)
        h, sizes = self.counted(random_objective(rows, d, "wavy"))
        family = np.random.default_rng(rows).uniform(-6.0, 6.0, (rows, d))
        convex_pressure_gamma(h, family, grid)
        assert len(sizes) == 1 + REFINE_ROUNDS
        assert sizes[0] == len(grid.points())
        per_row = [level2_pressure(random_objective(rows, d, "wavy"),
                                   lambda p, phi=phi: p @ phi, grid).evaluations
                   for phi in family]
        assert sum(sizes[1:]) == sum(per_row) - rows * len(grid.points())

    def test_one_row_search_calls_the_objective_per_round(self):
        h, sizes = self.counted(shannon_entropy_table)
        res = maximize_on_simplex(h, SimplexGrid(3, 20))
        assert len(sizes) == 1 + REFINE_ROUNDS
        assert sum(sizes) == res.evaluations


class TestAxiomsMatchPerTrialLoop:
    @pytest.mark.parametrize("h", [shannon_entropy_table, random_objective(5, 2, "masked")],
                             ids=["shannon", "masked"])
    @pytest.mark.parametrize("m, trials, seed", [(2000, 12, 20), (40, 1, 0), (300, 5, 7)])
    def test_d2(self, h, m, trials, seed):
        self.check(h, SimplexGrid(2, m), trials, seed)

    @pytest.mark.parametrize("d, m", [(3, 40), (4, 10)])
    def test_higher_d(self, d, m):
        self.check(shannon_entropy_table, SimplexGrid(d, m), 4, 3)

    @staticmethod
    def check(h, grid, trials, seed):
        rep = pressure_axioms_check(h, grid, trials=trials, seed=seed)
        want = pressure_axioms_per_trial(h, grid, trials, seed)
        assert (rep.monotonicity, rep.translation, rep.convexity) == want


class TestLattice:
    @pytest.mark.parametrize("d,m", [(2, 1), (2, 2000), (3, 7), (4, 12)])
    def test_cached_lattice_equals_rebuilt_one(self, d, m):
        pts = SimplexGrid(d, m).points()
        assert np.array_equal(pts, _oracle_compositions(m, d) / float(m))

    def test_lattice_is_shared_and_read_only(self):
        pts = SimplexGrid(3, 9).points()
        assert SimplexGrid(3, 9).points() is pts
        with pytest.raises(ValueError):
            pts[0, 0] = 0.5
