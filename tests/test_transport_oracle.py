"""The excess-mass transport LP against the full-coupling LP it replaced.

The oracle below is the earlier implementation: a transportation LP that
couples every word of mu with every word of nu.  The reduced LP moves only
mu - nu, so both must give the same W1; the reduced one must also keep a
tight certificate, a 1-Lipschitz potential whose integral against mu - nu
reaches W1.  The reduced LPs of a batch of rows are packed into
block-diagonal LPs, so every row must also keep its value and certificate
wherever the block boundaries fall.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from oracles import integrate

from maxtherm import transport
from maxtherm.shift import (
    CylinderMeasure,
    DepthKFunction,
    ShiftSpace,
    lipschitz_constant,
    lipschitz_rows,
)
from maxtherm.transport import distance_matrix, w1_lp_oracle

SPACES = {2: ShiftSpace(2, 0.3), 3: ShiftSpace(3, 0.24)}
KINDS = ("uniform", "spiky", "point", "agree", "equal")
TOL = 1e-9


# ---------------------------------------------------------------------------
# Oracle: the transportation LP over all word pairs
# ---------------------------------------------------------------------------


def _full_coupling_w1(mu: CylinderMeasure, nu: CylinderMeasure) -> float:
    n_words = mu.masses.size
    D = distance_matrix(mu.space, mu.depth)
    eye = sparse.identity(n_words, format="csr")
    ones = np.ones((1, n_words))
    A_eq = sparse.vstack(
        [sparse.kron(eye, ones, format="csr"), sparse.kron(ones, eye, format="csr")],
        format="csr",
    )
    b_eq = np.concatenate([mu.masses, nu.masses])
    opts = {
        "primal_feasibility_tolerance": 1e-10,
        "dual_feasibility_tolerance": 1e-10,
    }
    for presolve in (True, False):
        res = linprog(
            D.ravel(), A_eq=A_eq[:-1], b_eq=b_eq[:-1], bounds=(0, None),
            method="highs-ds", options={**opts, "presolve": presolve},
        )
        if res.status == 0:
            return float(res.fun)
    raise RuntimeError(f"transportation LP failed: {res.message}")


# ---------------------------------------------------------------------------
# Random table pairs
# ---------------------------------------------------------------------------


def _table(kind: str, space: ShiftSpace, depth: int, rng: np.random.Generator,
           other: np.ndarray) -> np.ndarray:
    n = space.n_words(depth)
    if kind == "uniform":
        m = rng.uniform(0.0, 1.0, n)
    elif kind == "spiky":
        m = rng.dirichlet(np.full(n, 0.2))
        m[m < 1e-12] = 0.0
    elif kind == "point":
        m = np.zeros(n)
        m[rng.integers(0, n)] = 1.0
    elif kind == "agree":
        # equal to the other table off a random set of at least two words,
        # whose total mass is redistributed
        m = other.copy()
        moved = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
        m[moved] = rng.dirichlet(np.ones(moved.size)) * other[moved].sum()
        return m
    else:
        return other.copy()
    return m / m.sum()


@st.composite
def table_pairs(draw):
    d = draw(st.sampled_from((2, 3)))
    depth = draw(st.integers(1, 4))
    mu_kind = draw(st.sampled_from(KINDS[:3]))
    nu_kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = SPACES[d]
    mu = _table(mu_kind, space, depth, rng, None)
    nu = _table(nu_kind, space, depth, rng, mu)
    return CylinderMeasure(space, depth, mu), CylinderMeasure(space, depth, nu)


@st.composite
def table_batches(draw):
    """(space, depth, mu, nu): 1 to 12 paired rows whose kinds mix."""
    d = draw(st.sampled_from((2, 3)))
    depth = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.tuples(st.sampled_from(KINDS[:3]), st.sampled_from(KINDS)),
                          min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = SPACES[d]
    mu, nu = [], []
    for mu_kind, nu_kind in kinds:
        mu.append(_table(mu_kind, space, depth, rng, None))
        nu.append(_table(nu_kind, space, depth, rng, mu[-1]))
    return space, depth, np.array(mu), np.array(nu)


def _lp(mu: CylinderMeasure, nu: CylinderMeasure):
    """The oracle's report on the one pair (mu, nu), as a one-row table."""
    return w1_lp_oracle(mu.space, mu.masses[None], nu.masses[None])


def _count_solves(monkeypatch) -> list:
    calls = []
    real = transport.linprog

    def counted(*args, **kwargs):
        calls.append(kwargs["options"]["presolve"])
        return real(*args, **kwargs)

    monkeypatch.setattr(transport, "linprog", counted)
    return calls


class TestExcessMassOracle:
    @settings(max_examples=120, deadline=None)
    @given(table_pairs())
    def test_agrees_with_full_coupling_and_certifies(self, pair):
        mu, nu = pair
        rep = _lp(mu, nu)
        assert abs(rep.w1[0] - _full_coupling_w1(mu, nu)) <= TOL
        assert rep.duality_gap[0] <= TOL
        f = DepthKFunction(mu.space, mu.depth, rep.potential[0])
        assert lipschitz_constant(f) <= 1.0 + TOL
        assert float(f.values.min()) == 0.0
        assert float(f.values.max()) <= 1.0 + TOL
        assert integrate(mu, f) - integrate(nu, f) >= rep.w1[0] - TOL
        excess = mu.masses - nu.masses
        assert rep.lp_solves == int((excess > 0).any() and (excess < 0).any())

    @settings(max_examples=40, deadline=None)
    @given(table_batches(), st.sampled_from((1, 7, 64)))
    def test_packed_rows_agree_with_full_coupling_and_certify(self, batch, budget):
        # budgets of 1, 7 and 64 plan variables put block boundaries inside
        # the batch: 1 gives every row an LP of its own
        space, depth, mu, nu = batch
        with mock.patch.object(transport, "LP_BLOCK_VARS", budget):
            rep = w1_lp_oracle(space, mu, nu)
        for i, (a, b) in enumerate(zip(mu, nu)):
            pair = CylinderMeasure(space, depth, a), CylinderMeasure(space, depth, b)
            assert abs(rep.w1[i] - _full_coupling_w1(*pair)) <= TOL
            assert abs(rep.w1[i] - _lp(*pair).w1[0]) <= TOL
        assert (rep.duality_gap <= TOL).all()
        assert (lipschitz_rows(space, depth, rep.potential) <= 1.0 + TOL).all()
        assert (rep.potential.min(axis=1) == 0.0).all()
        assert (rep.potential.max(axis=1) <= 1.0 + TOL).all()
        assert (np.vecdot(mu - nu, rep.potential) >= rep.w1 - TOL).all()
        needing = int((((mu > nu).any(axis=1)) & ((mu < nu).any(axis=1))).sum())
        assert rep.lp_solves == rep.lps <= needing
        assert rep.lps == needing if budget == 1 else (rep.lps > 0) == (needing > 0)

    @pytest.mark.parametrize("d,depth", [(2, 1), (2, 4), (3, 1), (3, 4)])
    def test_equal_tables_solve_no_lp(self, d, depth, monkeypatch):
        calls = _count_solves(monkeypatch)
        rng = np.random.default_rng(depth)
        mu = np.array([_table("spiky", SPACES[d], depth, rng, None) for _ in range(3)])
        rep = w1_lp_oracle(SPACES[d], mu, mu.copy())
        assert not rep.w1.any()
        assert not rep.duality_gap.any()
        assert not rep.potential.any()
        assert rep.lp_solves == 0
        assert calls == []

    def test_reports_one_solve(self, monkeypatch):
        calls = _count_solves(monkeypatch)
        mu = CylinderMeasure(SPACES[3], 2, np.full(9, 1 / 9))
        nu = CylinderMeasure.point_mass(SPACES[3], (1, 2))
        rep = _lp(mu, nu)
        assert rep.lp_solves == 1
        assert calls == [False]
        assert rep.w1[0] == pytest.approx(transport.w1_tree(mu, nu), abs=TOL)

    def test_reports_the_presolve_on_retry_of_one_lp(self, monkeypatch):
        # three rows, one LP each: only the second LP's failed first solve
        # is retried, with presolve on
        calls = _count_solves(monkeypatch)
        counted = transport.linprog

        def refuse_the_second_call(*args, **kwargs):
            out = counted(*args, **kwargs)
            if len(calls) == 2:
                return SimpleNamespace(status=4, message="forced failure")
            return out

        monkeypatch.setattr(transport, "linprog", refuse_the_second_call)
        monkeypatch.setattr(transport, "LP_BLOCK_VARS", 1)
        rng = np.random.default_rng(11)
        mu = np.array([_table("uniform", SPACES[2], 3, rng, None) for _ in range(3)])
        nu = np.array([_table("spiky", SPACES[2], 3, rng, None) for _ in range(3)])
        rep = w1_lp_oracle(SPACES[2], mu, nu)
        assert calls == [False, False, True, False]
        assert (rep.lps, rep.lp_solves) == (3, 4)
        tree = [transport.w1_tree(CylinderMeasure(SPACES[2], 3, a),
                                  CylinderMeasure(SPACES[2], 3, b)) for a, b in zip(mu, nu)]
        assert (np.abs(rep.w1 - tree) <= TOL).all()
        assert (rep.duality_gap <= TOL).all()
