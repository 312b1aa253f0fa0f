"""Tests for pressures and equilibria on the probability simplex."""

from math import comb

import numpy as np
import pytest
from scipy.optimize import brentq

from maxtherm import cli, shift, simplex
from maxtherm.goldens import two_bump_density
from maxtherm.simplex import (
    MARKOV_GRID,
    SimplexGrid,
    affine_observable_family,
    concave_envelope_1d,
    convex_pressure_gamma,
    entropy_recovery,
    gibbs_solution,
    level2_pressure,
    log_sum_exp,
    markov_entropy_table,
    markov_marginal,
    maximize_on_simplex,
    pressure_axioms_check,
    shannon_entropy,
    shannon_entropy_table,
    shannon_recovery_minimizer,
)

LOG2 = 0.6931471805599453
LOG3 = 1.0986122886681098
LOG_1PE = 1.3132616875182228            # log(1 + e)
GIBBS_10 = (0.7310585786300049, 0.2689414213699951)   # softmax(1, 0)
SHANNON_AT_GIBBS_10 = 0.5822031088882179              # log(1+e) - e/(1+e)
GAMMA_VALUES = r"Gamma values must be real or -inf, not NaN or \+inf"


class TestShannon:
    def test_point_mass(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_uniform_two(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(LOG2, abs=1e-15)

    def test_uniform_three(self):
        assert shannon_entropy([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(
            LOG3, abs=1e-14
        )

    def test_table_matches_scalar(self):
        rng = np.random.default_rng(0)
        pts = rng.dirichlet(np.ones(4), size=20)
        table = shannon_entropy_table(pts)
        for row, val in zip(pts, table):
            assert val == pytest.approx(shannon_entropy(row), abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            simplex.as_prob_vector([0.5, 0.6])
        with pytest.raises(ValueError):
            simplex.as_prob_vector([1.5, -0.5])


def point_mass_density(mu):
    """The density that is 0 at the lattice point mu and -inf elsewhere:
    its pressure Gamma(phi) is the inclusion j(phi)(mu) = mu . phi."""
    mu = np.asarray(mu, dtype=float)
    return lambda pts: np.where(np.abs(pts - mu).max(axis=1) < 1e-12, 0.0, -np.inf)


class TestInclusion:
    # the inclusion j(phi)(p) = p . phi, read through the pressure of a
    # point-mass density
    def test_zero_observable(self):
        grid = SimplexGrid(3, 10)
        for mu in grid.points()[::7]:
            gamma = convex_pressure_gamma(point_mass_density(mu), np.zeros((1, 3)), grid)
            assert gamma.tolist() == [0.0]

    def test_expectation(self):
        gamma = convex_pressure_gamma(
            point_mass_density([0.3, 0.7]), [[1.0, 0.0]], SimplexGrid(2, 10)
        )
        assert gamma[0] == pytest.approx(0.3, abs=1e-15)

    def test_pointwise_max_dominates_included_max(self):
        # integrating the pointwise max dominates the max of integrals,
        # with strict gap when the observables cross on the support
        phi = np.array([1.0, 0.0])
        psi = np.array([0.0, 1.0])
        grid = SimplexGrid(2, 20)
        family = np.array([np.maximum(phi, psi), phi, psi])
        for mu in grid.points():
            lhs, g_phi, g_psi = convex_pressure_gamma(point_mass_density(mu), family, grid)
            assert lhs >= max(g_phi, g_psi) - 1e-15
        # strict witness at the uniform measure: 1 > 1/2
        uniform = point_mass_density([0.5, 0.5])
        lhs, g_phi, g_psi = convex_pressure_gamma(uniform, family, grid)
        assert lhs == pytest.approx(1.0)
        assert max(g_phi, g_psi) == pytest.approx(0.5)


class TestGibbs:
    def test_symmetric(self):
        assert gibbs_solution(np.zeros(3)) == pytest.approx(
            np.full(3, 1 / 3)
        )

    def test_closed_form_1_0(self):
        assert gibbs_solution(np.array([1.0, 0.0])) == pytest.approx(
            GIBBS_10, abs=1e-15
        )

    def test_grid_oracle_matches_closed_form(self):
        # brute-force maximization of entropy + included observable on a
        # fine lattice, the stated independent route to the equilibrium
        g = np.array([1.0, 0.0])
        pts = SimplexGrid(2, 2000).points()
        vals = shannon_entropy_table(pts) + pts @ g
        best = pts[np.argmax(vals)]
        assert np.abs(best - gibbs_solution(g)).max() <= 1e-3

    def test_refined_search_sharpens_the_oracle(self):
        g = np.array([1.0, 0.0])
        res = level2_pressure(shannon_entropy_table, lambda pts: pts @ g, SimplexGrid(2, 2000))
        assert np.abs(res.argmax[0] - gibbs_solution(g)).max() <= 1e-6
        assert res.value == pytest.approx(LOG_1PE, abs=1e-10)


class TestLevel2Pressure:
    def test_matches_gibbs_route(self):
        rng = np.random.default_rng(5)
        grid = SimplexGrid(2, 500)
        for _ in range(5):
            g = rng.uniform(-2, 2, 2)
            res = level2_pressure(shannon_entropy_table, lambda pts: pts @ g, grid)
            assert res.value == pytest.approx(log_sum_exp(g), abs=1e-6)
            assert np.abs(res.argmax[0] - gibbs_solution(g)).max() <= 1e-4

    def test_quadratic_equilibria_are_two_symmetric_points(self):
        # independent oracle: critical point of H(p) + 2(2p-1)^2 via the
        # derivative root; the maximizer pair hugs the simplex corners
        pstar = brentq(
            lambda p: np.log((1 - p) / p) + 16 * p - 8, 1e-12, 0.4, xtol=1e-15
        )
        beta = 2.0
        def g(pts):
            return beta * (pts[:, 0] - pts[:, 1]) ** 2

        res = level2_pressure(
            shannon_entropy_table, g, SimplexGrid(2, 2000), argmax_tol=1e-6
        )
        assert len(res.argmax) == 2
        firsts = sorted(float(p[0]) for p in res.argmax)
        assert firsts[0] == pytest.approx(pstar, abs=1e-6)
        assert firsts[1] == pytest.approx(1 - pstar, abs=1e-6)
        # the equilibrium set is not a singleton and not convex: the
        # midpoint (the uniform measure) is not an equilibrium
        mid_val = shannon_entropy([0.5, 0.5]) + 0.0
        assert mid_val < res.value - 1.0

    def test_delta_density(self):
        grid = SimplexGrid(2, 100)
        mu0 = np.array([0.25, 0.75])

        def h(pts):
            pts = np.atleast_2d(pts)
            hit = np.abs(pts[:, 0] - mu0[0]) < 1e-12
            return np.where(hit, 0.0, -np.inf)

        res = level2_pressure(h, lambda pts: 3.0 * pts[:, 0], grid)
        assert res.value == pytest.approx(0.75, abs=1e-12)
        assert len(res.argmax) == 1
        assert res.argmax[0] == pytest.approx(mu0)


class TestConvexPressure:
    def test_uniform_case(self):
        grid = SimplexGrid(2, 1000)
        val, = convex_pressure_gamma(shannon_entropy_table, np.zeros((1, 2)), grid)
        assert val == pytest.approx(LOG2, abs=1e-9)

    def test_log_sum_exp_closed_form(self):
        grid = SimplexGrid(2, 1000)
        val, = convex_pressure_gamma(shannon_entropy_table, [[1.0, 0.0]], grid)
        assert val == pytest.approx(LOG_1PE, abs=1e-9)

    def test_translation_invariance_exact_on_grid(self):
        grid = SimplexGrid(2, 500)
        phi = np.array([0.7, -0.3])
        base, shifted = convex_pressure_gamma(shannon_entropy_table, [phi, phi - 3.0], grid)
        assert shifted == pytest.approx(base - 3.0, abs=1e-12)

    def test_axioms_random(self):
        rep = pressure_axioms_check(
            shannon_entropy_table, SimplexGrid(2, 2000), trials=8, seed=0
        )
        assert rep.worst <= 1e-6

    def test_monotone_under_plus_one(self):
        grid = SimplexGrid(2, 200)
        phi = np.array([0.2, -0.4])
        up = phi + 1.0
        a, b = convex_pressure_gamma(shannon_entropy_table, [phi, up], grid)
        assert a <= b + 1e-12


class TestEntropyRecovery:
    def test_uniform_recovers_log2(self):
        grid = SimplexGrid(2, 1000)
        family = affine_observable_family(2)
        gamma = convex_pressure_gamma(shannon_entropy_table, family, grid)
        rec = entropy_recovery(gamma, family, [0.5, 0.5])
        assert rec == pytest.approx(LOG2, abs=1e-4)

    def test_gibbs_point_recovers_its_shannon_entropy(self):
        grid = SimplexGrid(2, 1000)
        mu = np.array(GIBBS_10)
        family = np.vstack([affine_observable_family(2),
                            shannon_recovery_minimizer(mu)])
        gamma = convex_pressure_gamma(shannon_entropy_table, family, grid)
        rec = entropy_recovery(gamma, family, mu)
        assert rec == pytest.approx(SHANNON_AT_GIBBS_10, abs=1e-4)

    def test_nonconcave_density_sits_below_recovery(self):
        grid = SimplexGrid(2, 400)
        h = two_bump_density
        family = affine_observable_family(2)
        gamma = convex_pressure_gamma(h, family, grid)
        for x in (0.2, 0.4, 0.5, 0.6, 0.8):
            mu = np.array([x, 1 - x])
            rec = entropy_recovery(gamma, family, mu)
            assert rec >= float(h(mu[None, :])[0]) - 1e-6
        # strictly above between the bumps: recovery sees the concave hull
        rec_mid = entropy_recovery(gamma, family, [0.5, 0.5])
        assert rec_mid > float(h(np.array([[0.5, 0.5]]))[0]) + 0.5

    @pytest.mark.parametrize("gamma, family, mu, message", [
        ([], np.empty((0, 2)), [0.5, 0.5], r"got \(0, 2\), \(0,\)"),
        ([0.0], [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], r"got \(2, 2\), \(1,\)"),
        ([0.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.5, 0.5],
         r"got \(2, 3\), \(2,\)"),
        # min() dropped a NaN after the first row, and returned one in it
        ([1.0, np.nan], [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], GAMMA_VALUES),
        ([np.nan, 1.0], [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], GAMMA_VALUES),
        ([1.0, np.inf], [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], GAMMA_VALUES),
    ])
    def test_vacuous_or_mismatched_recovery_rejected(self, gamma, family, mu, message):
        with pytest.raises(ValueError, match=message):
            entropy_recovery(gamma, family, mu)

    def test_family_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"\(k, 2\) array"):
            convex_pressure_gamma(shannon_entropy_table, [1.0, 0.0], SimplexGrid(2, 10))


class TestConcaveIdentity:
    # min over observables g of (pressure of g) - g(mu); for affine g,
    # p -> a p_1, this is entropy recovery over the family (a, 0)
    def test_affine_family_at_uniform(self):
        grid = SimplexGrid(2, 2000)
        family = np.column_stack([np.linspace(-4, 4, 161), np.zeros(161)])
        gamma = convex_pressure_gamma(shannon_entropy_table, family, grid)
        val = entropy_recovery(gamma, family, [0.5, 0.5])
        assert val == pytest.approx(LOG2, abs=1e-4)

    def test_affine_density_exact_with_negated_self(self):
        grid = SimplexGrid(2, 500)

        def h(pts):
            return 0.75 * np.atleast_2d(pts)[:, 0] - 0.25

        # g = -h (up to a constant) makes h + g constant, so the pressure
        # is attained everywhere and the identity is exact at any mu
        mu = np.array([0.3, 0.7])
        family = [[-0.75, 0.0]]
        val = entropy_recovery(convex_pressure_gamma(h, family, grid), family, mu)
        assert val == pytest.approx(float(h(mu[None, :])[0]), abs=1e-12)

    def test_envelope_projects_identically(self):
        xs = np.linspace(0.0, 1.0, 2001)
        pts = np.column_stack([xs, 1 - xs])
        vals = np.maximum(-8 * (xs - 0.2) ** 2, -8 * (xs - 0.8) ** 2)
        env = concave_envelope_1d(xs, vals)
        assert np.all(env >= vals - 1e-15)
        rng = np.random.default_rng(9)
        for _ in range(20):
            phi = rng.uniform(-3, 3, 2)
            lin = pts @ phi
            assert abs((vals + lin).max() - (env + lin).max()) <= 1e-6

    def test_envelope_of_concave_data_is_itself(self):
        xs = np.linspace(0.0, 1.0, 501)
        vals = -((xs - 0.4) ** 2)
        env = concave_envelope_1d(xs, vals)
        assert np.abs(env - vals).max() <= 1e-12


class TestNonlinearPressure:
    """Nonlinear pressures KS entropy + F(integral of A) over a measure
    family, as ``level2_pressure`` with the family's density."""

    def test_identity_transform_reduces_to_classical_pressure(self):
        A = np.array([0.8, -0.5])
        res = level2_pressure(shannon_entropy_table, lambda q: q @ A, SimplexGrid(2, 1000))
        assert res.value == pytest.approx(log_sum_exp(A), abs=1e-4)

    def test_quadratic_has_swapped_pair(self):
        A = np.array([1.0, -1.0])
        res = level2_pressure(
            shannon_entropy_table, lambda q: 2.0 * (q @ A) ** 2, SimplexGrid(2, 2000),
            argmax_tol=1e-6,
        )
        assert len(res.argmax) == 2
        a, b = res.argmax
        assert np.abs(a - b[::-1]).max() <= 1e-4
        assert all(abs(p[0] - 0.5) > 0.4 for p in res.argmax)

    def test_zero_beta_gives_uniform(self):
        A = np.array([1.0, -1.0])
        res = level2_pressure(shannon_entropy_table, lambda q: 0.0 * (q @ A),
                              SimplexGrid(2, 1000))
        assert res.value == pytest.approx(LOG2, abs=1e-9)
        assert res.argmax[0] == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_infinite_transform_rejected(self):
        # log of q @ A is NaN where q @ A < 0
        A = np.array([1.0, -1.0])
        with pytest.raises(ValueError, match=r"not NaN or \+inf"):
            with np.errstate(divide="ignore", invalid="ignore"):
                level2_pressure(shannon_entropy_table, lambda q: np.log(q @ A),
                                SimplexGrid(2, 50))

    def test_markov_infinite_transform_rejected(self):
        A = np.array([1.0, -1.0])
        with pytest.raises(ValueError, match=r"not NaN or \+inf"):
            with np.errstate(divide="ignore", invalid="ignore"):
                level2_pressure(markov_entropy_table,
                                lambda q: np.log(markov_marginal(q) @ A), MARKOV_GRID)

    def test_markov_family_matches_bernoulli_for_depth1(self):
        # for a symbol potential the classical pressure over one-step
        # Markov measures is attained at the Bernoulli solution, whose pair
        # distribution is the product of its marginal
        A = np.array([0.5, -0.2])
        res = level2_pressure(markov_entropy_table, lambda q: markov_marginal(q) @ A,
                              MARKOV_GRID)
        assert res.value == pytest.approx(log_sum_exp(A), abs=1e-4)
        p = gibbs_solution(A)
        assert res.argmax[0] == pytest.approx([p[0] ** 2, 2 * p[0] * p[1], p[1] ** 2],
                                              abs=1e-3)

    def test_markov_entropy_formula(self):
        # pair entropy minus marginal entropy against a hand computation:
        # pair (0.3, 0.1, 0.1, 0.5) with marginal (0.4, 0.6)
        pts = np.array([[0.3, 0.2, 0.5]])
        expected = (-0.3 * np.log(0.3) - 2 * 0.1 * np.log(0.1) - 0.5 * np.log(0.5)
                    + 0.4 * np.log(0.4) + 0.6 * np.log(0.6))
        assert markov_entropy_table(pts)[0] == pytest.approx(expected, abs=1e-14)
        assert markov_marginal(pts)[0] == pytest.approx([0.4, 0.6], abs=1e-15)


class TestNonFiniteObjective:
    """NaN and +inf are rejected wherever the search evaluates them; -inf
    marks points off the support."""

    @staticmethod
    def poisoned(target, value):
        """Shannon entropy, with ``value`` at the one point whose first mass
        is ``target``."""
        def obj(pts):
            vals = shannon_entropy_table(pts)
            return np.where(np.abs(pts[:, 0] - target) <= 1e-12, value, vals)

        return obj

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_lattice_point_rejected(self, value):
        # 0.3 is a point of the 1/10 lattice, far from the maximizer 0.5
        with pytest.raises(ValueError, match=r"not NaN or \+inf"):
            maximize_on_simplex(self.poisoned(0.3, value), SimplexGrid(2, 10))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_refine_point_rejected(self, value):
        # the first refinement patch around the lattice max 0.5 spans
        # [0.4, 0.6] in steps of 0.025, so 0.525 is scanned off the lattice
        grid = SimplexGrid(2, 10)
        obj = self.poisoned(0.525, value)
        assert np.isfinite(obj(grid.points())).all()
        with pytest.raises(ValueError, match=r"not NaN or \+inf"):
            level2_pressure(obj, lambda q: 0.0 * q[:, 0], grid)

    def test_all_nan_is_not_reported_as_empty_support(self):
        with pytest.raises(ValueError, match=r"not NaN or \+inf"):
            maximize_on_simplex(lambda pts: np.full(len(pts), np.nan), SimplexGrid(2, 10))

    def test_minus_inf_mask_is_off_the_support(self):
        def masked(pts):
            return np.where(pts[:, 0] <= 0.2, -np.inf, shannon_entropy_table(pts))

        res = maximize_on_simplex(masked, SimplexGrid(2, 10))
        assert res.value == pytest.approx(LOG2, abs=1e-12)
        assert res.argmax[0] == pytest.approx([0.5, 0.5], abs=1e-12)
        with pytest.raises(ValueError, match="-inf on the whole grid"):
            maximize_on_simplex(lambda pts: np.full(len(pts), -np.inf), SimplexGrid(2, 10))


class TestGridMechanics:
    def test_grid_points_are_valid_and_counted(self):
        pts = SimplexGrid(3, 7).points()
        assert pts.shape[0] == comb(7 + 3 - 1, 3 - 1)
        assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-12)
        assert (pts >= 0).all()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SimplexGrid(1, 10)
        with pytest.raises(ValueError):
            SimplexGrid(2, 0)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf, -np.inf])
    def test_argmax_tol_must_be_finite_and_non_negative(self, tol):
        # a NaN or negative tolerance would leave the equilibrium set empty
        with pytest.raises(ValueError, match="^argmax_tol must be finite and >= 0, got "):
            level2_pressure(shannon_entropy_table, lambda q: q @ [1.0, 0.0],
                            SimplexGrid(2, 10), argmax_tol=tol)
        res = level2_pressure(shannon_entropy_table, lambda q: q @ [1.0, 0.0],
                              SimplexGrid(2, 10), argmax_tol=0.0)
        assert len(res.argmax) == 1

    @pytest.mark.parametrize("d,m", [(2, 2.5), (2, True), (2.0, 10), (np.float64(3), 4),
                                     (2, "10"), (False, 10)])
    def test_non_integer_sizes_rejected(self, d, m):
        with pytest.raises(ValueError, match="must be an integer"):
            SimplexGrid(d, m)

    def test_numpy_integers_accepted(self):
        grid = SimplexGrid(np.int32(3), np.int64(7))
        assert grid == SimplexGrid(3, 7)
        assert type(grid.d) is int and type(grid.m) is int
        assert np.array_equal(grid.points(), SimplexGrid(3, 7).points())

    def test_lattice_over_the_cell_budget_rejected(self):
        # C(m + 3, 3) * 4 cells at d = 4: m = 367 fits in 2^25, m = 368 does not
        assert comb(367 + 3, 3) * 4 <= shift.MAX_CELLS < comb(368 + 3, 3) * 4
        SimplexGrid(4, 367)
        with pytest.raises(ValueError, match=r"budget of 33554432; use m <= 367"):
            SimplexGrid(4, 368)
        with pytest.raises(ValueError, match=r"use m <= 16777215$"):
            SimplexGrid(2, 10 ** 12)
        # an m of over 4,300 digits is named as a power of two, not printed
        with pytest.raises(ValueError, match=r"^the \(d=2, m=at least 2\^16609\) lattice "
                                             r"needs at least 67108866 cells, "
                                             r".*use m <= 16777215$"):
            SimplexGrid(2, 10 ** 5000)
        # 6000^2 cells at m = 1: no m fits, so the message names d
        with pytest.raises(ValueError, match=r"budget of 33554432; d = 6000 is too large, "
                                             r"even at m = 1$"):
            SimplexGrid(6000, 1)

    @pytest.mark.parametrize("argv", [["gamma", "--d", "4"],
                                      ["pressure", "--d", "4", "--m", "1000"]])
    def test_cli_lattice_over_the_budget_exits_1(self, capsys, argv):
        # C(1003, 3) * 4 cells at m = 1000: rejected before the lattice is built
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "the (d=4, m=1000) lattice needs 670674004 cells" in captured.err
        assert "use m <= 367" in captured.err
        assert "[PASS]" not in captured.out
