"""Tests for max-plus scalars and the array pressure of a density table.

The semiring laws are checked on float arrays through ``pressure``: its
max is the semiring addition (written oplus below, bottom -inf neutral)
and its density + observable the multiplication (odot, -inf absorbing).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxtherm.dynamics import OrbitSampler, c_maxplus_convexity_check
from maxtherm.ifs import (
    MpIFSSystem,
    WeightedJacobianFamily,
    invariant_pressure_solve,
    inverse_problem_solve,
    mpifs_fixed_density,
    mpifs_markov,
    mpifs_ruelle,
    mpifs_transfer,
)
from maxtherm.goldens import random_mpifs
from maxtherm.semiring import (
    BOTTOM,
    NORMALIZATION_TOL,
    MaxPlus,
    check_maxplus_probability,
    pressure,
)
from maxtherm.shift import CylinderMeasure, Jacobian, ShiftSpace, make_bernoulli_jacobian
from maxtherm.simplex import (
    SimplexGrid,
    as_prob_vector,
    entropy_recovery,
    level2_pressure,
    maximize_on_simplex,
    shannon_entropy,
    shannon_entropy_table,
)
from oracles import ruelle_dense, transfer_per_map

LOG3 = 1.0986122886681098
NEG_INF = -np.inf
MAXPLUS_VALUE = r"must be real or -inf, not NaN or \+inf"


def oplus(*values):
    """max of the values: their pressure on the zero density."""
    return pressure(np.zeros(len(values)), np.array(values, dtype=float))


def odot(a, b):
    """a + b: the pressure of g = b on the density a, next to a point
    whose observable -inf keeps it out of the max."""
    return pressure(np.array([a, 0.0]), np.array([b, NEG_INF]))


class TestScalars:
    def test_oplus_neutral_bottom(self):
        assert oplus(2.0, NEG_INF) == 2.0
        assert oplus(NEG_INF, -7.5) == -7.5

    def test_oplus_idempotent(self):
        assert pressure(np.array([3.0, 3.0]), np.zeros(2)) == 3.0

    def test_oplus_max(self):
        assert oplus(-1.5, 2.5) == 2.5

    def test_odot_absorbing_bottom(self):
        # a point off the support scores -inf whatever the observable
        assert pressure(np.array([NEG_INF, 0.0]), np.array([5.0, 1.0])) == 1.0
        # an observable at -inf absorbs a finite density value
        assert pressure(np.array([0.0, -1.0]), np.array([NEG_INF, NEG_INF])) == NEG_INF
        assert odot(NEG_INF, 5.0) == NEG_INF

    def test_odot_addition(self):
        assert pressure(np.array([2.0]), np.array([3.0])) == 5.0

    def test_odot_zero_neutral(self):
        for x in (-3.25, 0.0, 17.5):
            assert pressure(np.array([x]), np.zeros(1)) == x

    def test_bottom_is_distinct_state_not_sentinel(self):
        big = MaxPlus(-1e308)
        assert not big.is_bottom
        assert BOTTOM != big
        # neutrality and absorption are exact even against huge finite values
        assert oplus(-1e308, NEG_INF) == -1e308
        assert pressure(np.array([-1e308]), np.zeros(1)) == -1e308
        assert pressure(np.array([-1e308, NEG_INF]), np.array([0.0, 1e300])) == -1e308

    def test_rejects_nan_and_plus_inf(self):
        with pytest.raises(ValueError, match=f"a max-plus value {MAXPLUS_VALUE}"):
            MaxPlus(float("nan"))
        with pytest.raises(ValueError, match=f"a max-plus value {MAXPLUS_VALUE}"):
            MaxPlus(float("inf"))


class TestSemiringLaws:
    """The laws hold exactly; floats only reorder, never approximate max."""

    def test_laws_on_random_triples(self):
        rng = np.random.default_rng(42)
        pool = np.concatenate([rng.uniform(-10, 10, 30), np.full(6, NEG_INF)])
        rng.shuffle(pool)
        for _ in range(300):
            a, b, c = pool[rng.choice(pool.size, 3)]
            # max-based laws are exact in floats
            assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c)) == oplus(a, b, c)
            assert oplus(a, b) == oplus(b, a)
            assert oplus(a, a) == a
            assert odot(a, b) == odot(b, a)
            # distributivity is exact: x -> a + x commutes with max because
            # IEEE rounding is monotone
            assert odot(a, oplus(b, c)) == oplus(odot(a, b), odot(a, c))
            # + regroups with rounding, so associativity holds to ulp scale
            lhs = odot(odot(a, b), c)
            rhs = odot(a, odot(b, c))
            if lhs == NEG_INF or rhs == NEG_INF:
                assert lhs == rhs == NEG_INF
            else:
                assert abs(lhs - rhs) <= 1e-12


class TestDensitySample:
    """``pressure`` checks its density table with these messages."""

    def test_requires_nonempty_support(self):
        with pytest.raises(ValueError, match="empty support"):
            pressure(np.array([NEG_INF, NEG_INF]), np.zeros(2))

    def test_requires_points(self):
        with pytest.raises(ValueError, match="empty density"):
            pressure(np.array([]), np.zeros(0))

    def test_rejects_nan_plus_inf_and_non_tables(self):
        with pytest.raises(ValueError, match=f"density values {MAXPLUS_VALUE}"):
            pressure(np.array([0.0, math.nan]), np.zeros(2))
        with pytest.raises(ValueError, match=f"density values {MAXPLUS_VALUE}"):
            pressure(np.array([0.0, math.inf]), np.zeros(2))
        with pytest.raises(ValueError, match="1-D table"):
            pressure(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="1-D table"):
            pressure(np.float64(0.0), np.zeros(1))
        with pytest.raises(ValueError, match="3 density values"):
            pressure(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError, match="3 density values"):
            pressure(np.zeros(3), np.zeros((3, 2, 1)))

    def test_normalization(self):
        # a normalized density (max 0) gives the zero observable pressure 0;
        # shifting by the max keeps -inf off the support
        dens = np.array([-1.0, -3.0, NEG_INF])
        assert pressure(dens, np.zeros(3)) == -1.0
        normed = dens - dens.max()
        assert pressure(normed, np.zeros(3)) == 0.0
        assert normed[0] == 0.0
        assert np.isneginf(normed[2])


class TestPressureEval:
    def test_pure_max(self):
        value = pressure(np.array([0.0, 0.0]), np.array([1.0, 4.0]))
        assert value == 4.0
        assert isinstance(value, float)

    def test_bottom_excludes_point(self):
        assert pressure(np.array([0.0, NEG_INF]), np.array([1.0, 100.0])) == 1.0

    def test_shannon_on_simplex_grid_peaks_at_barycenter(self):
        # m divisible by 3 so the barycenter is a grid point
        grid = SimplexGrid(3, 30)
        dens = np.array([shannon_entropy(p) for p in grid.points()])
        assert pressure(dens, np.zeros(len(dens))) == pytest.approx(LOG3, abs=1e-12)
        # its one equilibrium, as the battery reads equilibria
        res = level2_pressure(shannon_entropy_table, lambda pts: np.zeros(len(pts)), grid)
        assert res.argmax == pytest.approx(np.full((1, 3), 1 / 3))

    def test_normalized_density_constant_observable(self):
        rng = np.random.default_rng(3)
        dens = rng.uniform(-5, 0, 8)
        dens -= dens.max()
        for c in (-2.5, 0.0, 7.0):
            assert pressure(dens, np.full(8, c)) == c
        columns = pressure(dens, np.tile([-2.5, 0.0, 7.0], (8, 1)))
        assert columns.tolist() == [-2.5, 0.0, 7.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_plus_inf_observable_rejected(self, bad):
        # against a bottom density value either would score nan
        with pytest.raises(ValueError, match=r"not NaN or \+inf"):
            pressure([0.0, -1.0], [bad, 0.0])
        with pytest.raises(ValueError, match=r"not NaN or \+inf"):
            pressure([0.0, NEG_INF], [[0.0, 1.0], [0.0, bad]])

    def test_bottom_observable_values_stay_allowed(self):
        assert pressure([0.0, -1.0], [NEG_INF, 0.0]) == -1.0
        values = pressure([0.0, NEG_INF], [[NEG_INF, 2.0], [NEG_INF, NEG_INF]])
        assert values.tolist() == [NEG_INF, 2.0]

    def test_columns_are_independent_pressures(self):
        rng = np.random.default_rng(8)
        dens = rng.uniform(-3, 0, 6)
        dens[[1, 4]] = NEG_INF
        G = rng.uniform(-2, 2, (6, 5))
        G[rng.random((6, 5)) < 0.3] = NEG_INF
        G[:, 4] = NEG_INF   # a bottom column
        values = pressure(dens, G)
        assert values.shape == (5,)
        assert values[4] == NEG_INF
        for j in range(5):
            assert values[j] == pressure(dens, G[:, j])
        assert pressure(dens, np.empty((6, 0))).shape == (0,)


def _axiom_residuals(dens, g, g2, c):
    """|l(c (.) g) - (c + l(g))| and |l(g (+) g') - max(l(g), l(g'))|."""
    lg, lg2 = pressure(dens, g), pressure(dens, g2)
    return (
        abs(pressure(dens, c + g) - (c + lg)),
        abs(pressure(dens, np.maximum(g, g2)) - max(lg, lg2)),
    )


class TestAxioms:
    def test_zero_scalar_identity(self):
        dens = np.array([-0.5, 0.0])
        g = np.array([0.0, 1.0])
        homogeneity, _ = _axiom_residuals(dens, g, -g, 0.0)
        assert homogeneity == 0.0

    def test_random_densities_and_observables(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            vals = rng.uniform(-4, 4, n)
            vals[rng.random(n) < 0.2] = NEG_INF
            if not np.isfinite(vals).any():
                vals[0] = 0.0
            ga = rng.uniform(-3, 3, n)
            gb = rng.uniform(-3, 3, n)
            c = float(rng.uniform(-5, 5))
            assert max(_axiom_residuals(vals, ga, gb, c)) <= 1e-12

    def test_additivity_reduces_to_idempotency(self):
        dens = np.array([0.0, -1.0])
        g = np.array([0.0, 1.0])
        _, additivity = _axiom_residuals(dens, g, g, 2.5)
        assert additivity == 0.0


SPACE = ShiftSpace(2, 0.3)
KERNEL = make_bernoulli_jacobian(0.3, SPACE)
LINEAR_NAN = "masses must be finite, not NaN"
MAXPLUS_NAN = f"max-plus weights {MAXPLUS_VALUE}"


def _simplex_max(v):
    """The max over the 1/m lattice of d = 2, m = len(v) - 1, of an
    objective that is v at the lattice point nearest in its first mass."""
    m = len(v) - 1
    return maximize_on_simplex(lambda p: v[np.rint(p[:, 0] * m).astype(int)],
                               SimplexGrid(2, m)).value


def _mpifs(n):
    return random_mpifs(n, np.random.default_rng(n), constant_maps=False)


def _markov_direct(lam, f, sys):
    return max((lam + sys.weights[m] + f[sys.maps[m]]).max() for m in range(sys.n_maps))


def _family(n):
    return np.column_stack([np.linspace(-1.0, 1.0, n), np.zeros(n)])


def _c_closed(u):
    return max(u, math.log(0.4)) + u


def _convexity(alpha, beta):
    """The slack and residual of the closed-form c at s = 0.4, t = 0.2."""
    rep = c_maxplus_convexity_check(_c_closed, 0.4, 0.2, alpha, beta)
    return rep.convexity_slack, rep.equality_residual


def _convexity_direct(alpha, beta):
    alpha, beta = (0.0 if abs(w) <= NORMALIZATION_TOL else w for w in (alpha, beta))
    joint = _c_closed(max(alpha + 0.2, beta + 0.4))
    return max(alpha + _c_closed(0.2), beta + _c_closed(0.4)) - joint, 0.0


# entry -> (size, or None for any n, idempotent probability?, call, direct value)
MAXPLUS_ENTRIES = {
    "MaxPlus": (1, False, lambda v: MaxPlus(v[0]).value, lambda v: v[0]),
    "pressure density": (None, False, lambda v: pressure(v, np.arange(len(v), dtype=float)),
                         lambda v: (v + np.arange(len(v))).max()),
    "pressure g": (None, False, lambda v: pressure(np.zeros(len(v)), v), lambda v: v.max()),
    "check_maxplus_probability": (
        None, True, lambda v: check_maxplus_probability(v).tolist(),
        lambda v: np.where(np.abs(v) <= NORMALIZATION_TOL, 0.0, v).tolist()),
    "maximize_on_simplex objective": (None, False, _simplex_max, lambda v: v.max()),
    "mpifs_ruelle": (None, False, lambda v: mpifs_ruelle(v, _mpifs(len(v))).tolist(),
                     lambda v: ruelle_dense(v, _mpifs(len(v))).tolist()),
    "mpifs_transfer": (None, False, lambda v: mpifs_transfer(v, _mpifs(len(v))).tolist(),
                       lambda v: transfer_per_map(v, _mpifs(len(v))).tolist()),
    "mpifs_markov density": (
        None, False, lambda v: mpifs_markov(v, np.ones(len(v)), _mpifs(len(v))),
        lambda v: _markov_direct(v, np.ones(len(v)), _mpifs(len(v)))),
    "mpifs_markov observable": (
        None, False, lambda v: mpifs_markov(np.zeros(len(v)), v, _mpifs(len(v))),
        lambda v: _markov_direct(np.zeros(len(v)), v, _mpifs(len(v)))),
    "entropy_recovery Gamma": (
        None, False, lambda v: entropy_recovery(v, _family(len(v)), [0.5, 0.5]),
        lambda v: min(g - 0.5 * phi[0] for g, phi in zip(v, _family(len(v))))),
    "c_maxplus_convexity_check weights": (2, True, lambda v: _convexity(*v),
                                          lambda v: _convexity_direct(*v)),
}


class TestOneCheckPerKind:
    """Each kind of probability has one check: linear tables go through
    ``shift.check_probability_rows`` and idempotent ones through
    ``semiring.check_maxplus_probability``, so NaN is a ``ValueError`` with
    that check's message at every entry point.  Every max-plus table, an
    idempotent probability or not, goes through
    ``semiring.check_maxplus_values``, so a NaN or +inf in one is a
    ``ValueError`` ending in ``MAXPLUS_VALUE`` wherever it enters."""

    @pytest.mark.parametrize("make, message", [
        (lambda: as_prob_vector([np.nan, 1.0]), LINEAR_NAN),
        (lambda: shannon_entropy([np.nan, 1.0]), LINEAR_NAN),
        (lambda: CylinderMeasure.bernoulli(SPACE, [np.nan, 1.0], 3), LINEAR_NAN),
        # the function-table check comes first and already rejects NaN
        (lambda: Jacobian(SPACE, 1, [np.nan, 1.0]), "must be finite"),
        (lambda: OrbitSampler.bernoulli([np.nan, 1.0], 10, 0), LINEAR_NAN),
        (lambda: OrbitSampler.markov([[0.5, 0.5], [np.nan, 1.0]], 10, 0), LINEAR_NAN),
        (lambda: WeightedJacobianFamily([KERNEL, KERNEL], [0.0, np.nan]), MAXPLUS_NAN),
        (lambda: MpIFSSystem.constant_maps([[0.0, np.nan], [np.nan, 0.0]]), MAXPLUS_NAN),
        (lambda: inverse_problem_solve([0.0, np.nan]), MAXPLUS_NAN),
        (lambda: c_maxplus_convexity_check(lambda u: u, 0.4, 0.2, 0.0, np.nan), MAXPLUS_NAN),
    ], ids=["as_prob_vector", "shannon_entropy", "CylinderMeasure.bernoulli",
            "Jacobian", "OrbitSampler.bernoulli", "OrbitSampler.markov",
            "WeightedJacobianFamily", "MpIFSSystem", "inverse_problem_solve",
            "c_maxplus_convexity_check"])
    def test_nan_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), entry=st.sampled_from(sorted(MAXPLUS_ENTRIES)),
           mode=st.sampled_from(["valid", "-inf", "nan", "+inf"]))
    def test_every_maxplus_entry_point_checks_its_values(self, data, entry, mode):
        """A NaN or +inf at any position raises the one message, a -inf
        there is bottom, and valid values keep the result of a direct
        computation."""
        size, probability, call, expected = MAXPLUS_ENTRIES[entry]
        n = size or data.draw(st.integers(2, 6), label="n")
        v = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n),
                               label="values"))
        pos = data.draw(st.integers(0, n - 1), label="position")
        if mode == "-inf":
            v[pos] = NEG_INF
        if probability:
            v -= v.max()
        if mode in ("nan", "+inf"):
            v[pos] = np.nan if mode == "nan" else np.inf
            with pytest.raises(ValueError, match=MAXPLUS_VALUE):
                call(v)
        else:
            assert call(v) == expected(v)

    def test_bottom_weights_kept(self):
        fam = WeightedJacobianFamily([KERNEL, KERNEL], [0.0, NEG_INF])
        assert fam.weights.tolist() == [0.0, NEG_INF]
        sys = MpIFSSystem.constant_maps([[0.0, NEG_INF], [NEG_INF, 0.0]])
        assert sys.weights.tolist() == [[0.0, NEG_INF], [NEG_INF, 0.0]]
        # the inverse problem keeps its own rule that the density is finite
        with pytest.raises(ValueError, match="finite"):
            inverse_problem_solve([0.0, NEG_INF])

    def test_maxplus_check_per_column(self):
        table = np.array([[1e-13, NEG_INF], [-2.0, -1e-13]])
        out = check_maxplus_probability(table)
        assert out.tolist() == [[0.0, NEG_INF], [-2.0, 0.0]]
        assert table[0, 0] == 1e-13   # the caller's table is not clipped
        with pytest.raises(ValueError, match="<= 0"):
            check_maxplus_probability([0.0, 1e-11])
        with pytest.raises(ValueError, match="attain 0, not -inf"):
            check_maxplus_probability([[0.0, NEG_INF], [-1.0, NEG_INF]])
        with pytest.raises(ValueError, match="attain 0, not -0.5"):
            check_maxplus_probability([-0.5, -1.0])

    def test_column_max_within_tolerance_becomes_exact_zero(self):
        # a column max of -1e-13 passes the check; unless it becomes 0 the
        # zero-weight subsystem has no cycle
        sys = MpIFSSystem.constant_maps([[-1e-13, -1.0], [-1.0, -1e-13]])
        assert sys.weights.tolist() == [[0.0, -1.0], [-1.0, 0.0]]
        assert mpifs_fixed_density(sys)[0].tolist() == [0.0, 0.0]
        # the inverse problem builds its weights from the checked density
        sys = inverse_problem_solve([5e-13, -1.0])
        assert sys.weights.tolist() == [[0.0, 0.0], [-1.0, -1.0]]
        assert mpifs_transfer([0.0, -1.0], sys).tolist() == [0.0, -1.0]
        # a lone kernel of weight -5e-13 has weight 0: the pressure of 0 is 0
        fam = WeightedJacobianFamily([KERNEL], [-5e-13])
        nu0 = CylinderMeasure.point_mass(SPACE, (1,))
        assert invariant_pressure_solve(fam, lambda mu: 0.0, 4, nu0).value == 0.0
