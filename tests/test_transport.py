"""Tests for exact W1 transport between cylinder tables."""

import numpy as np
import pytest

from oracles import integrate, tree_w1, word_metric

from maxtherm.goldens import random_jacobian, random_measure
from maxtherm.shift import (
    CylinderMeasure,
    DepthKFunction,
    ShiftSpace,
    dual_apply,
    make_bernoulli_jacobian,
)
from maxtherm.transport import (
    distance_matrix,
    tree_levels,
    w1_lp_oracle,
    w1_tree,
    w1_tree_levels,
)

SPACE = ShiftSpace(2, 0.3)


def _lp(mu, nu):
    """The LP oracle's report on the one pair (mu, nu), as a one-row table."""
    return w1_lp_oracle(mu.space, mu.masses[None], nu.masses[None])


def _digit_loop_matrix(space, depth):
    """distance_matrix with 0-based digits built by a loop of its own."""
    n_words = space.n_words(depth)
    digits = np.empty((n_words, depth), dtype=np.int64)
    codes = np.arange(n_words)
    for j in range(depth - 1, -1, -1):
        digits[:, j] = codes % space.d
        codes //= space.d
    diff = digits[:, None, :] != digits[None, :, :]
    first = np.argmax(diff, axis=2)
    return np.where(diff.any(axis=2), space.gamma ** first, 0.0)


class TestPrefixTree:
    def test_leaf_distances_telescope_exactly(self):
        # W1 between the point masses at two leaves is the leaf-to-leaf path
        # length of w1_tree's edge weights: it must be gamma^(first difference)
        for d, gamma in ((2, 0.3), (3, 0.2)):
            space = ShiftSpace(d, gamma)
            for depth in range(1, 6):
                n = space.n_words(depth)
                D = distance_matrix(space, depth)
                diracs = [CylinderMeasure(space, depth, row) for row in np.eye(n)]
                for u in range(n):
                    for v in range(u, n):
                        assert abs(w1_tree(diracs[u], diracs[v]) - D[u, v]) <= 1e-15

    def test_edge_weights_shape(self):
        # w1_tree between leaf point masses reads off its edge weights:
        # first difference at level L costs 2 * (w[L] + ... + w[n-1])
        def dirac(word):
            return CylinderMeasure.point_mass(SPACE, word)

        root_split = w1_tree(dirac((1, 1, 1)), dirac((2, 1, 1)))
        level1_split = w1_tree(dirac((1, 1, 1)), dirac((1, 2, 1)))
        leaf_split = w1_tree(dirac((1, 1, 1)), dirac((1, 1, 2)))
        assert (root_split - level1_split) / 2 == pytest.approx((1 - 0.3) / 2)
        assert leaf_split / 2 == pytest.approx(0.3 ** 2 / 2)   # leaf level keeps gamma^2/2

    def test_truncation_error(self):
        # one more level of the tables moves W1 up by at most gamma^depth,
        # the truncation error the transport report carries
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = random_measure(SPACE, 5, rng)
            b = random_measure(SPACE, 5, rng)
            coarse = w1_tree(a.at_depth(4), b.at_depth(4))
            step = w1_tree(a, b) - coarse
            bound = _lp(a.at_depth(4), b.at_depth(4)).truncation_error
            assert bound == pytest.approx(0.3 ** 4)
            assert -1e-12 <= step <= bound + 1e-12

    def test_distance_matrix_equals_its_digit_loop(self):
        for d, gamma in ((2, 0.3), (3, 0.24)):
            space = ShiftSpace(d, gamma)
            # the single empty word, where the digit loop has no digit
            assert distance_matrix(space, 0).tolist() == [[0.0]]
            for depth in range(1, 6):
                assert np.array_equal(
                    distance_matrix(space, depth), _digit_loop_matrix(space, depth)
                )


class TestTreeFormula:
    def test_identical_tables(self):
        mu = random_measure(SPACE, 3, np.random.default_rng(0))
        assert w1_tree(mu, mu) == 0.0

    def test_point_masses_at_distance_one(self):
        mu = CylinderMeasure.point_mass(SPACE, (1,))
        nu = CylinderMeasure.point_mass(SPACE, (2,))
        assert w1_tree(mu, nu) == pytest.approx(1.0)

    def test_two_point_hand_computation(self):
        mu = CylinderMeasure(SPACE, 1, [0.7, 0.3])
        nu = CylinderMeasure(SPACE, 1, [0.4, 0.6])
        # move 0.3 of mass across distance 1
        assert w1_tree(mu, nu) == pytest.approx(0.3)

    def test_metric_properties(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            depth = int(rng.integers(1, 5))
            a = random_measure(SPACE, depth, rng)
            b = random_measure(SPACE, depth, rng)
            c = random_measure(SPACE, depth, rng)
            assert w1_tree(a, b) == w1_tree(b, a)
            assert w1_tree(a, c) <= w1_tree(a, b) + w1_tree(b, c) + 1e-12
            assert w1_tree(a, b) >= 0.0

    def test_zero_iff_equal_tables(self):
        rng = np.random.default_rng(2)
        a = random_measure(SPACE, 3, rng)
        b = CylinderMeasure(SPACE, 3, a.masses.copy())
        assert w1_tree(a, b) == 0.0
        b2 = a.masses.copy()
        b2[0] += 1e-6
        b2[1] -= 1e-6
        assert w1_tree(a, CylinderMeasure(SPACE, 3, b2)) > 0.0

    @pytest.mark.parametrize("d, gamma", [(2, 0.3), (3, 0.2), (4, 0.15)])
    def test_batched_rows_equal_the_per_pair_loop_bit_for_bit(self, d, gamma):
        space = ShiftSpace(d, gamma)
        rng = np.random.default_rng(d)
        for depth in range(6):
            table = rng.dirichlet(np.ones(d ** depth), size=12)
            levels = tree_levels(table, d)
            assert levels.shape == (12, sum(d ** j for j in range(1, depth + 1)))
            for ref in (0, 5):
                got = w1_tree_levels(space, levels, levels[ref])
                nu = CylinderMeasure(space, depth, table[ref])
                expected = [tree_w1(CylinderMeasure(space, depth, row), nu) for row in table]
                assert got.tolist() == expected
                assert [w1_tree(CylinderMeasure(space, depth, row), nu)
                        for row in table] == expected
                assert got[ref] == 0.0

    @pytest.mark.parametrize("d, gamma", [(2, 0.3), (3, 0.2), (4, 0.15)])
    def test_paired_rows_equal_w1_tree_on_every_pair_bit_for_bit(self, d, gamma):
        # a reference table of the shape of the levels pairs row i with row i
        space = ShiftSpace(d, gamma)
        rng = np.random.default_rng(d + 10)
        for depth in range(6):
            a = rng.dirichlet(np.ones(d ** depth), size=9)
            b = rng.dirichlet(np.full(d ** depth, 0.3), size=9)
            got = w1_tree_levels(space, tree_levels(a, d), tree_levels(b, d))
            pairs = [(CylinderMeasure(space, depth, x), CylinderMeasure(space, depth, y))
                     for x, y in zip(a, b)]
            assert got.tolist() == [w1_tree(mu, nu) for mu, nu in pairs]
            assert got.tolist() == [tree_w1(mu, nu) for mu, nu in pairs]

    def test_depth_mismatch_rejected(self):
        a = random_measure(SPACE, 2, np.random.default_rng(3))
        b = random_measure(SPACE, 3, np.random.default_rng(4))
        with pytest.raises(ValueError, match="depth"):
            w1_tree(a, b)

    def test_space_mismatch_rejected(self):
        a = CylinderMeasure(SPACE, 1, [0.5, 0.5])
        b = CylinderMeasure(ShiftSpace(2, 0.2), 1, [0.5, 0.5])
        with pytest.raises(ValueError, match="space"):
            w1_tree(a, b)

    def test_report_carries_truncation(self):
        a = random_measure(SPACE, 3, np.random.default_rng(5))
        b = random_measure(SPACE, 3, np.random.default_rng(6))
        rep = _lp(a, b)
        assert rep.w1[0] == pytest.approx(w1_tree(a, b), abs=1e-9)
        assert rep.truncation_error == pytest.approx(0.3 ** 3)
        assert _lp(a, a).truncation_error == pytest.approx(0.3 ** 3)


class TestLpOracle:
    def test_point_mass_transport(self):
        mu = CylinderMeasure.point_mass(SPACE, (1,))
        nu = CylinderMeasure.point_mass(SPACE, (2,))
        rep = _lp(mu, nu)
        assert rep.w1[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_point_hand_computation(self):
        mu = CylinderMeasure(SPACE, 1, [0.7, 0.3])
        nu = CylinderMeasure(SPACE, 1, [0.4, 0.6])
        rep = _lp(mu, nu)
        assert rep.w1[0] == pytest.approx(0.3, abs=1e-12)

    def test_agrees_with_tree_formula(self):
        rng = np.random.default_rng(7)
        for d, gamma in ((2, 0.3), (3, 0.24)):
            space = ShiftSpace(d, gamma)
            for depth in range(1, 5):
                mu = random_measure(space, depth, rng, spiky=True)
                nu = random_measure(space, depth, rng)
                rep = _lp(mu, nu)
                assert abs(rep.w1[0] - w1_tree(mu, nu)) <= 1e-9

    def test_dual_certificate(self):
        from maxtherm.shift import lipschitz_constant

        rng = np.random.default_rng(8)
        for _ in range(20):
            depth = int(rng.integers(1, 5))
            mu = random_measure(SPACE, depth, rng)
            nu = random_measure(SPACE, depth, rng)
            rep = _lp(mu, nu)
            f = DepthKFunction(SPACE, depth, rep.potential[0])
            assert float(f.values.min()) >= -1e-12
            assert float(f.values.max()) <= 1.0 + 1e-9
            assert lipschitz_constant(f) <= 1.0 + 1e-9
            achieved = integrate(mu, f) - integrate(nu, f)
            assert achieved >= rep.w1[0] - 1e-9
            assert rep.duality_gap[0] <= 1e-9

    def test_size_limit(self):
        space = ShiftSpace(2, 0.3)
        mu = CylinderMeasure(space, 11, np.full(2048, 1 / 2048))   # 2048 > 1024
        with pytest.raises(ValueError, match="oracle limit"):
            _lp(mu, mu)

    def test_a_pair_at_the_size_limit_is_accepted(self):
        # 1024 = LP_MAX_POINTS words; equal rows have no excess, so no LP runs
        space = ShiftSpace(2, 0.3)
        mu = CylinderMeasure(space, 10, np.full(1024, 1 / 1024))
        rep = _lp(mu, mu)
        assert (rep.w1.tolist(), rep.duality_gap.tolist()) == ([0.0], [0.0])
        assert (rep.lps, rep.lp_solves, rep.truncation_error) == (0, 0, 0.3 ** 10)
        assert not rep.potential.any()

    @pytest.mark.parametrize("mu, nu, match", [
        (np.full((2, 4), 0.25), np.full((3, 4), 0.25), "not paired"),
        (np.full((1, 2, 2), 0.25), np.full((1, 2, 2), 0.25), "not paired"),
        (np.zeros((0, 4)), np.zeros((0, 4)), "number of rows"),
        (np.full((1, 3), 1 / 3), np.full((1, 3), 1 / 3), "not a power"),
        (np.zeros((1, 0)), np.zeros((1, 0)), "not a power"),
        (np.full((1, 4), 0.3), np.full((1, 4), 0.25), "not normalized"),
    ])
    def test_malformed_tables_rejected(self, mu, nu, match):
        with pytest.raises(ValueError, match=match):
            w1_lp_oracle(SPACE, mu, nu)

    def test_distance_matrix_matches_word_metric(self):
        from maxtherm.shift import symbol_table

        D = distance_matrix(SPACE, 3)
        words = [tuple(w) for w in symbol_table(3, 2)]
        for i, u in enumerate(words):
            for j, v in enumerate(words):
                assert D[i, j] == pytest.approx(word_metric(u, v, SPACE))


def _ratio(J, mu, nu):
    """W1(L* mu, L* nu) / W1(mu, nu); bounded by (d+1) gamma."""
    return w1_tree(dual_apply(J, mu), dual_apply(J, nu)) / w1_tree(mu, nu)


def _sup_gap(J1, J2):
    """sup|J1 - J2|, both tables viewed at the deeper kernel's depth."""
    k = max(J1.depth, J2.depth)
    return np.abs(J1.at_depth(k) - J2.at_depth(k)).max()


def _perturbation(J1, J2, mu):
    """(W1 between the two dual images of mu, d * sup|J1 - J2|)."""
    w1 = w1_tree(dual_apply(J1, mu), dual_apply(J2, mu))
    return w1, SPACE.d * _sup_gap(J1, J2)


def _joint(J1, J2, mu1, mu2):
    """(W1(L1* mu1, L2* mu2), r [W1(mu1, mu2) + (d/r) sup|J1 - J2|])."""
    r = SPACE.contraction_rate
    w1 = w1_tree(dual_apply(J1, mu1), dual_apply(J2, mu2))
    kernel = (SPACE.d / r) * _sup_gap(J1, J2)
    return w1, r * (w1_tree(mu1, mu2) + kernel)


class TestContractionBounds:
    def test_uniform_kernel_contracts_by_gamma(self):
        rng = np.random.default_rng(9)
        J = make_bernoulli_jacobian(0.5, SPACE)
        mu = random_measure(SPACE, 4, rng)
        nu = random_measure(SPACE, 4, rng)
        ratio = _ratio(J, mu, nu)
        # prepending an independent fair coin shifts every tree level down
        assert ratio == pytest.approx(SPACE.gamma, abs=1e-12)
        assert ratio <= SPACE.contraction_rate

    def test_monte_carlo_never_violates_rate(self):
        rng = np.random.default_rng(11)
        r = SPACE.contraction_rate
        worst = 0.0
        for _ in range(300):
            J = random_jacobian(SPACE, int(rng.integers(1, 3)), rng)
            mu = random_measure(SPACE, 4, rng)
            nu = random_measure(SPACE, 4, rng)
            worst = max(worst, _ratio(J, mu, nu))
        assert worst <= r + 1e-10

    def test_point_mass_pair_explicit_ratio(self):
        J = make_bernoulli_jacobian(0.3, SPACE)
        mu = CylinderMeasure.point_mass(SPACE, (1,))
        nu = CylinderMeasure.point_mass(SPACE, (2,))
        ratio = _ratio(J, mu, nu)
        # images share first-level masses (0.3, 0.7), differ one level down
        assert ratio == pytest.approx(SPACE.gamma, abs=1e-12)

    def test_perturbation_bound(self):
        rng = np.random.default_rng(12)
        j3 = make_bernoulli_jacobian(0.3, SPACE)
        j4 = make_bernoulli_jacobian(0.4, SPACE)
        mu = random_measure(SPACE, 3, rng)
        w1, bound = _perturbation(j3, j4, mu)
        assert bound == pytest.approx(0.2)
        assert w1 <= bound + 1e-12
        same, zero = _perturbation(j3, j3, mu)
        assert same == 0.0 and zero == 0.0

    def test_perturbation_monte_carlo(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            depth_j = int(rng.integers(1, 3))
            J1 = random_jacobian(SPACE, depth_j, rng)
            J2 = random_jacobian(SPACE, depth_j, rng)
            mu = random_measure(SPACE, 4, rng)
            w1, bound = _perturbation(J1, J2, mu)
            assert w1 <= bound + 1e-10

    def test_joint_bound_reduces_and_holds(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            depth_j = int(rng.integers(1, 3))
            J1 = random_jacobian(SPACE, depth_j, rng)
            J2 = random_jacobian(SPACE, depth_j, rng)
            mu1 = random_measure(SPACE, 4, rng)
            mu2 = random_measure(SPACE, 4, rng)
            w1, bound = _joint(J1, J2, mu1, mu2)
            assert bound - w1 >= -1e-10
        # equal kernels and equal measures: both sides vanish
        J = make_bernoulli_jacobian(0.25, SPACE)
        mu = random_measure(SPACE, 3, rng)
        assert _joint(J, J, mu, mu) == (0.0, 0.0)
