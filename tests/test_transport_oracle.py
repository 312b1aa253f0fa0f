"""The excess-mass transport LP against the full-coupling LP it replaced.

The oracle below is the earlier implementation: a transportation LP that
couples every word of mu with every word of nu.  The reduced LP moves only
mu - nu, so both must give the same W1; the reduced one must also keep a
tight certificate, a 1-Lipschitz potential whose integral against mu - nu
reaches W1.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from oracles import integrate

from maxtherm import transport
from maxtherm.shift import CylinderMeasure, ShiftSpace, lipschitz_constant
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


def _count_solves(monkeypatch) -> list:
    calls = []
    real = transport.linprog

    def counted(*args, **kwargs):
        calls.append(kwargs["options"].get("presolve", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(transport, "linprog", counted)
    return calls


class TestExcessMassOracle:
    @settings(max_examples=120, deadline=None)
    @given(table_pairs())
    def test_agrees_with_full_coupling_and_certifies(self, pair):
        mu, nu = pair
        rep = w1_lp_oracle(mu, nu)
        assert abs(rep.w1 - _full_coupling_w1(mu, nu)) <= TOL
        assert rep.duality_gap <= TOL
        f = rep.potential
        assert lipschitz_constant(f) <= 1.0 + TOL
        assert float(f.values.min()) == 0.0
        assert float(f.values.max()) <= 1.0 + TOL
        assert integrate(mu, f) - integrate(nu, f) >= rep.w1 - TOL
        excess = mu.masses - nu.masses
        assert rep.lp_solves == int((excess > 0).any() and (excess < 0).any())

    @pytest.mark.parametrize("d,depth", [(2, 1), (2, 4), (3, 1), (3, 4)])
    def test_equal_tables_solve_no_lp(self, d, depth, monkeypatch):
        calls = _count_solves(monkeypatch)
        rng = np.random.default_rng(depth)
        mu = CylinderMeasure(SPACES[d], depth, _table("spiky", SPACES[d], depth, rng, None))
        rep = w1_lp_oracle(mu, CylinderMeasure(SPACES[d], depth, mu.masses.copy()))
        assert rep.w1 == 0.0
        assert rep.duality_gap == 0.0
        assert not rep.potential.values.any()
        assert rep.lp_solves == 0
        assert calls == []

    def test_reports_one_solve(self, monkeypatch):
        calls = _count_solves(monkeypatch)
        mu = CylinderMeasure(SPACES[3], 2, np.full(9, 1 / 9))
        nu = CylinderMeasure.point_mass(SPACES[3], (1, 2))
        rep = w1_lp_oracle(mu, nu)
        assert rep.lp_solves == 1
        assert calls == [True]
        assert rep.w1 == pytest.approx(transport.w1_tree(mu, nu), abs=TOL)

    def test_reports_the_presolve_off_retry(self, monkeypatch):
        calls = _count_solves(monkeypatch)
        counted = transport.linprog

        def refuse_with_presolve(*args, **kwargs):
            out = counted(*args, **kwargs)
            if calls == [True]:
                return SimpleNamespace(status=4, message="forced failure")
            return out

        monkeypatch.setattr(transport, "linprog", refuse_with_presolve)
        rng = np.random.default_rng(11)
        mu = CylinderMeasure(SPACES[2], 3, _table("uniform", SPACES[2], 3, rng, None))
        nu = CylinderMeasure(SPACES[2], 3, _table("spiky", SPACES[2], 3, rng, None))
        rep = w1_lp_oracle(mu, nu)
        assert calls == [True, False]
        assert rep.lp_solves == 2
        assert abs(rep.w1 - transport.w1_tree(mu, nu)) <= TOL
        assert rep.duality_gap <= TOL
