"""The lock-step simplex search against the per-candidate search it replaced.

The oracle below is the earlier implementation: a lattice rebuilt on every
call and one objective call per candidate and refinement round.  The fast
path must agree with it bit for bit: same value, same near-maximizers in
the same order, same evaluation count.  Entropy recovery from one Gamma
table is held to the per-target recovery it replaced in the same way.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxtherm import simplex
from maxtherm.simplex import (
    DEDUP_TOL,
    REFINE_ROUNDS,
    SHRINK,
    TOP_K,
    MarkovFamily,
    SimplexGrid,
    convex_pressure_gamma,
    entropy_recovery,
    maximize_on_simplex,
    shannon_entropy_table,
)
from oracles import entropy_recovery_per_target


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


def _oracle_patch(center, width, n_free, on_simplex):
    axes = [
        np.linspace(max(0.0, c - width), min(1.0, c + width), 9)
        for c in center[:n_free]
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    free = np.column_stack([m.ravel() for m in mesh])
    if not on_simplex:
        return free
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


def _oracle_search(objective, pts, m, rounds, shrink, on_simplex, top_k,
                   argmax_tol, dedup_tol):
    vals = np.asarray(objective(pts), dtype=float)
    n_eval = len(vals)
    cand_idx = _oracle_spread(pts, vals, top_k, min_sep=2.5 / m)
    if not cand_idx:
        raise ValueError("objective is -inf on the whole grid")
    n_free = pts.shape[1] - 1 if on_simplex else pts.shape[1]
    finals = []
    for i in cand_idx:
        center, best = pts[i].copy(), float(vals[i])
        width = 1.0 / m
        for _ in range(rounds):
            patch = _oracle_patch(center, width, n_free, on_simplex)
            patch = np.vstack([patch, center[None, :]])
            pv = np.asarray(objective(patch), dtype=float)
            n_eval += len(pv)
            j = int(np.argmax(pv))
            if pv[j] > best:
                center, best = patch[j].copy(), float(pv[j])
            width *= shrink
        finals.append((center, best))
    top = max(v for _, v in finals)
    near = [(p, v) for p, v in finals if v >= top - argmax_tol]
    near.sort(key=lambda t: -t[1])
    argmax: List[np.ndarray] = []
    for p, _ in near:
        if all(np.max(np.abs(p - q)) > dedup_tol for q in argmax):
            argmax.append(p)
    return simplex.SimplexMax(value=top, argmax=np.array(argmax), evaluations=n_eval)


def oracle_maximize(objective, grid, rounds=REFINE_ROUNDS, shrink=SHRINK, top_k=TOP_K,
                    argmax_tol=1e-9):
    pts = _oracle_compositions(grid.m, grid.d) / float(grid.m)
    return _oracle_search(objective, pts, grid.m, rounds, shrink,
                          True, top_k, argmax_tol, DEDUP_TOL)


def markov_objective(F, A):
    def obj(params):
        a, b = params[:, 0], params[:, 1]
        x = MarkovFamily.stationary(a, b) @ A
        return MarkovFamily.ks_entropy(a, b) + np.asarray(F(x), dtype=float)

    return obj


def unit_square(resolution):
    axis = np.linspace(0.0, 1.0, resolution + 1)
    mesh = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


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
        rounds=draw(st.integers(0, 6)),
        shrink=draw(st.sampled_from((0.2, 0.5, 0.05))),
        top_k=draw(st.integers(1, 8)),
        argmax_tol=draw(st.sampled_from((1e-9, 1e-6, 1e-2))),
        kind=draw(st.sampled_from(KINDS)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def check_against_oracle(search, objective, grid, **kwargs):
    """``search(objective)`` against the oracle at the same settings."""
    try:
        want = oracle_maximize(objective, grid, **kwargs)
    except ValueError:
        with pytest.raises(ValueError, match="-inf on the whole grid"):
            search(objective)
        return
    assert_identical(search(objective), want)


class TestLockStepMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(search_cases())
    def test_value_argmax_and_evaluations_identical(self, case):
        grid = SimplexGrid(case["d"], case["m"])
        knobs = dict(rounds=case["rounds"], shrink=case["shrink"],
                     top_k=case["top_k"], argmax_tol=case["argmax_tol"])

        def search(objective):
            return simplex._scan_and_refine(
                objective, grid.points(), grid.m, on_simplex=True,
                dedup_tol=DEDUP_TOL, **knobs,
            )

        objective = random_objective(case["seed"], case["d"], case["kind"])
        check_against_oracle(search, objective, grid, **knobs)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d,m", [(2, 2000), (3, 60), (4, 12)])
    def test_default_grids(self, d, m, kind):
        grid = SimplexGrid(d, m)
        for seed in range(2):
            check_against_oracle(lambda obj: maximize_on_simplex(obj, grid),
                                 random_objective(seed, d, kind), grid)

    @pytest.mark.parametrize("resolution", [50, 60])
    @pytest.mark.parametrize("k", [2.0, 0.5, -1.0])
    def test_markov_family(self, resolution, k):
        F, A = (lambda x: k * x ** 2 + x), np.array([0.5, -0.2])
        obj, pts = markov_objective(F, A), unit_square(resolution)
        want = _oracle_search(obj, pts, resolution, REFINE_ROUNDS, SHRINK, False,
                              TOP_K, 1e-6, DEDUP_TOL)
        assert_identical(
            simplex._scan_and_refine(obj, pts, resolution, REFINE_ROUNDS, SHRINK,
                                     False, TOP_K, 1e-6, DEDUP_TOL),
            want,
        )
        if resolution == MarkovFamily.RESOLUTION:
            assert_identical(MarkovFamily.maximize(F, A, argmax_tol=1e-6), want)


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
