"""Tests for weighted kernel families, attractors, and max-plus IFS."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from maxtherm import ifs, shift
from maxtherm.goldens import random_jacobian, random_mpifs
from maxtherm.ifs import (
    MpIFSSystem,
    WeightedJacobianFamily,
    attractor_build,
    density_entropy_estimate,
    invariant_pressure_solve,
    inverse_problem_solve,
    mpifs_fixed_density,
    mpifs_invariance_check,
    mpifs_markov,
    mpifs_ruelle,
    mpifs_transfer,
    pushforward_invariance_check,
    spike_family,
)
from maxtherm.semiring import BOTTOM, MaxPlus
from maxtherm.shift import CylinderMeasure, ShiftSpace, dual_apply, make_bernoulli_jacobian
from maxtherm.simplex import SimplexGrid, shannon_entropy_table
from maxtherm.transport import w1_tree
from oracles import (
    attractor_leaves,
    fixed_density_closure,
    ruelle_dense,
    transfer_per_map,
    whole_table_solve,
)

SPACE = ShiftSpace(2, 0.3)
NU0 = CylinderMeasure.point_mass(SPACE, (2,))


def mass_of_one(mu: CylinderMeasure) -> float:
    return mu.mass_of((1,))


class TestFamilyValidation:
    def test_weights_must_be_normalized(self):
        J = make_bernoulli_jacobian(0.3, SPACE)
        with pytest.raises(ValueError, match="largest weight"):
            WeightedJacobianFamily([J], [-0.5])
        with pytest.raises(ValueError, match="<= 0"):
            WeightedJacobianFamily([J, J], [0.0, 0.5])
        with pytest.raises(ValueError, match="at least one"):
            WeightedJacobianFamily([], [])

    @pytest.mark.parametrize("weights", [[[0.0], [-1.0]], [0.0], 0.0, [0.0, -1.0, -2.0]],
                             ids=["column", "short", "scalar", "long"])
    def test_weights_must_be_one_per_kernel(self, weights):
        J = make_bernoulli_jacobian(0.3, SPACE)
        with pytest.raises(ValueError, match="one weight per kernel required"):
            WeightedJacobianFamily([J, J], weights)

    def test_nan_weight_rejected_and_minus_inf_kept(self):
        J = make_bernoulli_jacobian(0.3, SPACE)
        with pytest.raises(ValueError, match="NaN"):
            WeightedJacobianFamily([J, J], [0.0, np.nan])
        fam = WeightedJacobianFamily([J, J], [0.0, -np.inf])
        assert fam.weights[1] == -np.inf


class TestAttractor:
    def test_single_kernel_single_leaf(self):
        p = 0.4
        fam = WeightedJacobianFamily([make_bernoulli_jacobian(p, SPACE)], [0.0])
        sample = attractor_build(fam, 6, NU0)
        assert len(sample.leaves) == 1
        leaf = sample.leaves[0]
        assert leaf.weight == 0.0
        target = CylinderMeasure.bernoulli(SPACE, [p, 1 - p], leaf.measure.depth)
        assert w1_tree(leaf.measure, target) <= SPACE.contraction_rate ** 6

    def test_two_kernels_zero_weights_cluster_count_grows(self):
        # the default merge tolerance r^N stays large at gamma = 0.3, so
        # resolve the scattered limit set with an explicit small eps
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.7, SPACE)],
            [0.0, 0.0],
        )
        sizes = []
        for N in (3, 5, 7):
            sample = attractor_build(fam, N, NU0, eps=1e-4)
            assert sample.raw_count == 2 ** N
            assert all(leaf.weight == 0.0 for leaf in sample.leaves)
            sizes.append(len(sample.leaves))
        assert sizes[0] < sizes[1] < sizes[2]

    def test_merging_disabled_keeps_every_word(self):
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.7, SPACE)],
            [0.0, -0.25],
        )
        sample = attractor_build(fam, 5, NU0, eps=0.0)
        assert len(sample.leaves) == 2 ** 5
        words = {leaf.word for leaf in sample.leaves}
        assert len(words) == 2 ** 5

    @pytest.mark.parametrize("eps", [np.nan, -1.0])
    def test_nan_or_negative_eps_rejected(self, eps):
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.7, SPACE)],
            [0.0, -1.0],
        )
        with pytest.raises(ValueError, match="eps must be >= 0"):
            attractor_build(fam, 4, NU0, eps=eps)
        # eps=0 is the exact enumeration and the default merges
        assert len(attractor_build(fam, 4, NU0, eps=0.0).leaves) == 16
        assert len(attractor_build(fam, 4, NU0).leaves) < 16

    def test_prefix_contraction_invariant(self):
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.2, SPACE), make_bernoulli_jacobian(0.8, SPACE)],
            [0.0, 0.0],
        )
        N = 6
        sample = attractor_build(fam, N, NU0, eps=0.0)
        r = SPACE.contraction_rate
        by_word = {leaf.word: leaf.measure for leaf in sample.leaves}
        rng = np.random.default_rng(0)
        words = list(by_word)
        for _ in range(200):
            u = words[rng.integers(len(words))]
            v = words[rng.integers(len(words))]
            shared = 0
            while shared < N and u[shared] == v[shared]:
                shared += 1
            slack = 2 * SPACE.gamma ** by_word[u].depth
            assert w1_tree(by_word[u], by_word[v]) <= r ** shared + slack

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([2, 3]),
        m=st.integers(1, 3),
        kernel_depth=st.integers(1, 2),
        seed_depth=st.integers(0, 1),
        N=st.integers(1, 6),
        eps=st.sampled_from([None, 0.0, 1e-3, 0.05]),
        block=st.sampled_from([None, 1, 7]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_leaves_equal_the_per_measure_oracle_bit_for_bit(
        self, d, m, kernel_depth, seed_depth, N, eps, block, seed
    ):
        rng = np.random.default_rng(seed)
        space = ShiftSpace(d, rng.uniform(0.05, 0.95) / (d + 1))
        weights = -np.round(rng.exponential(size=m) * 4) / 4   # ties happen
        weights[rng.integers(m)] = 0.0
        fam = WeightedJacobianFamily(
            [random_jacobian(space, kernel_depth, rng) for _ in range(m)], weights
        )
        depth = max(seed_depth, kernel_depth - 1)
        nu0 = CylinderMeasure(space, depth, rng.dirichlet(np.ones(d ** depth)))
        N = min(N, 5 if m == 3 else 6)
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                # blocks of m rows, so block boundaries fall inside clusters
                mp.setattr(shift, "BLOCK_CELLS", block)
            sample = attractor_build(fam, N, nu0, eps=eps)
        expected = attractor_leaves(fam, N, nu0, sample.epsilon)

        def bits(leaf):
            return (leaf.word, np.float64(leaf.weight).tobytes(), leaf.merged,
                    np.float64(leaf.radius).tobytes(), leaf.measure.depth,
                    leaf.measure.masses.tobytes())

        assert sample.raw_count == m ** N
        assert [bits(leaf) for leaf in sample.leaves] == [bits(leaf) for leaf in expected]

    @pytest.mark.parametrize("nu0, kernel", [
        (CylinderMeasure.trivial(SPACE), random_jacobian(SPACE, 2, np.random.default_rng(0))),
        (CylinderMeasure.point_mass(ShiftSpace(2, 0.2), (1,)),
         make_bernoulli_jacobian(0.3, SPACE)),
    ], ids=["kernel-too-deep", "space-mismatch"])
    def test_invalid_seed_raises_the_dual_apply_message(self, nu0, kernel):
        fam = WeightedJacobianFamily([make_bernoulli_jacobian(0.5, SPACE), kernel],
                                     [0.0, 0.0])
        with pytest.raises(ValueError) as applied:
            dual_apply(kernel, nu0)
        with pytest.raises(ValueError) as built:
            attractor_build(fam, 3, nu0)
        with pytest.raises(ValueError) as solved:
            invariant_pressure_solve(fam, mass_of_one, 3, nu0, eps=0.0)
        assert str(built.value) == str(solved.value) == str(applied.value)

    def test_merged_leaves_own_their_rows(self):
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.7, SPACE)],
            [0.0, -0.5],
        )
        sample = attractor_build(fam, 6, NU0, eps=0.05)
        assert 1 < len(sample.leaves) < 2 ** 6
        for leaf in sample.leaves:
            assert leaf.measure.masses.base is None
            assert leaf.measure.masses.flags.owndata

    def test_default_eps_build_holds_less_than_half_the_last_level(self):
        # the B family of the benchmark at N=10: its 2^10 images of 2^11
        # masses are 16.8 MB, the level before them a quarter of that
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.7, SPACE)],
            [0.0, -1.0],
        )
        last_level = 2 ** 10 * 2 ** 11 * 8
        tracemalloc.start()
        try:
            sample = attractor_build(fam, 10, NU0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.raw_count == sum(leaf.merged for leaf in sample.leaves) == 2 ** 10
        assert peak < last_level / 2

    def test_budget_error_suggests_length(self):
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.7, SPACE)],
            [0.0, 0.0],
        )
        with pytest.raises(ValueError, match="word_length <=") as built:
            attractor_build(fam, 30, NU0)
        with pytest.raises(ValueError) as solved:
            invariant_pressure_solve(fam, mass_of_one, 30, NU0, eps=0.0)
        assert str(solved.value) == str(built.value)

    def test_budget_error_names_a_seed_too_deep_for_any_length(self):
        # 64 images of 2^20 masses exceed the budget even at word_length 1
        fam = WeightedJacobianFamily([make_bernoulli_jacobian(0.3, SPACE)] * 64, [0.0] * 64)
        seed = CylinderMeasure.bernoulli(SPACE, [0.5, 0.5], 19)
        message = (f"a level of 64^1 images of 2^20 masses needs {64 * 2 ** 20} cells, "
                   f"over the budget of {shift.MAX_CELLS}; "
                   "the seed depth 19 is too large, even at word_length = 1")
        with pytest.raises(ValueError) as built:
            attractor_build(fam, 1, seed)
        with pytest.raises(ValueError) as solved:
            invariant_pressure_solve(fam, mass_of_one, 1, seed, eps=0.0)
        assert str(built.value) == str(solved.value) == message

    def test_an_absurd_length_is_refused_with_its_budget_message(self):
        # 2^(10^5000) words: the message names the length without printing
        # its 5,001 digits, and no level is sized
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.7, SPACE)],
            [0.0, 0.0],
        )
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^a level of 2\^at least 2\^16609 images .*"
                                             r"use word_length <= 12$") as built:
            attractor_build(fam, 10 ** 5000, NU0)
        with pytest.raises(ValueError) as solved:
            invariant_pressure_solve(fam, mass_of_one, 10 ** 5000, NU0, eps=0.0)
        assert time.perf_counter() - start < 1.0
        assert str(solved.value) == str(built.value)

    def test_a_kernel_too_deep_for_the_seed_is_refused_as_dual_rows_refuses_it(self):
        deep = shift.Jacobian(SPACE, 3, np.full(8, 0.5))
        fam = WeightedJacobianFamily([deep, make_bernoulli_jacobian(0.3, SPACE)], [0.0, 0.0])
        with pytest.raises(ValueError) as built:
            attractor_build(fam, 2, NU0)
        with pytest.raises(ValueError) as applied:
            dual_apply(deep, NU0)
        assert str(built.value) == str(applied.value) == (
            "kernel depth 3 exceeds measure depth 1 + 1; refine the measures first")

    @pytest.mark.parametrize("word_length", [2.5, True, "3", None],
                             ids=["float", "bool", "str", "None"])
    def test_non_integer_word_length_rejected(self, word_length):
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.7, SPACE)],
            [0.0, -1.0],
        )
        with pytest.raises(ValueError, match="word length must be an integer"):
            attractor_build(fam, word_length, NU0)
        for eps in (0.0, None):
            with pytest.raises(ValueError, match="word length must be an integer"):
                invariant_pressure_solve(fam, mass_of_one, word_length, NU0, eps=eps)

    def test_numpy_integer_word_length_accepted(self):
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.7, SPACE)],
            [0.0, -1.0],
        )
        sample = attractor_build(fam, np.int64(3), NU0, eps=0.0)
        assert (sample.word_length, sample.raw_count) == (3, 8)
        assert type(sample.word_length) is int
        for eps in (0.0, None):
            res = invariant_pressure_solve(fam, mass_of_one, np.uint8(3), NU0, eps=eps)
            assert res == invariant_pressure_solve(fam, mass_of_one, 3, NU0, eps=eps)
            assert type(res.words) is int and res.words == 8


def _per_leaf_estimate(sample, mu):
    """The best weight and the count of leaves within eps of mu, one leaf
    at a time (bottom when none is)."""
    best, matched = BOTTOM, 0
    for leaf in sample.leaves:
        if w1_tree(leaf.measure, mu) <= sample.epsilon:
            matched += 1
            if best.is_bottom or leaf.weight > best.value:
                best = MaxPlus(leaf.weight)
    return best, matched


class TestDensityEstimate:
    def test_single_kernel_zero_at_fixed_point_bottom_elsewhere(self):
        p = 0.4
        fam = WeightedJacobianFamily([make_bernoulli_jacobian(p, SPACE)], [0.0])
        sample = attractor_build(fam, 8, NU0)
        depth = sample.leaves[0].measure.depth
        at_fixed = density_entropy_estimate(
            sample, CylinderMeasure.bernoulli(SPACE, [p, 1 - p], depth)
        )
        assert at_fixed.value.value == 0.0
        far = density_entropy_estimate(
            sample, CylinderMeasure.point_mass(SPACE, (1,) * depth)
        )
        assert far.value.is_bottom
        assert far.matched == 0

    def test_two_kernel_zero_weight_family(self):
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.7, SPACE)],
            [0.0, 0.0],
        )
        sample = attractor_build(fam, 6, NU0, eps=1e-3)
        assert len(sample.leaves) > 2
        leaf_mu = sample.leaves[2].measure
        est = density_entropy_estimate(sample, leaf_mu)
        assert est.value.value == 0.0
        assert est.w1_margin == pytest.approx(
            SPACE.contraction_rate ** 6 / (1 - SPACE.contraction_rate)
        )

    def test_equals_the_per_leaf_loop(self):
        rng = np.random.default_rng(31)
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.7, SPACE)],
            [0.0, -0.75],
        )
        bottoms = 0
        for N, eps in ((4, None), (5, 1e-3), (6, 0.0), (6, 0.05)):
            sample = attractor_build(fam, N, NU0, eps=eps)
            depth = sample.leaves[0].measure.depth
            targets = [leaf.measure for leaf in sample.leaves[::3]] + [
                CylinderMeasure(SPACE, depth, rng.dirichlet(np.ones(2 ** depth)))
                for _ in range(3)
            ] + [CylinderMeasure.point_mass(SPACE, (1,) * depth)]
            for mu in targets:
                est = density_entropy_estimate(sample, mu)
                assert (est.value, est.matched) == _per_leaf_estimate(sample, mu)
                bottoms += est.value.is_bottom
        assert bottoms >= 4

    def test_depth_mismatch_rejected(self):
        fam = WeightedJacobianFamily([make_bernoulli_jacobian(0.4, SPACE)], [0.0])
        sample = attractor_build(fam, 4, NU0)
        with pytest.raises(ValueError, match="depth"):
            density_entropy_estimate(sample, CylinderMeasure.trivial(SPACE))

    @pytest.mark.parametrize("eps", [0.0, None])
    def test_a_target_one_level_off_fails_the_w1_pair_check(self, eps):
        fam = WeightedJacobianFamily([make_bernoulli_jacobian(0.4, SPACE)], [0.0])
        sample = attractor_build(fam, 4, NU0, eps=eps)   # leaves of depth 5
        for depth in (4, 6):
            mu = CylinderMeasure.bernoulli(SPACE, [0.4, 0.6], depth)
            with pytest.raises(ValueError, match=rf"^depth mismatch \(5 vs {depth}\); "
                                                 "refine the shallower measure first$"):
                density_entropy_estimate(sample, mu)


class TestInvariantPressure:
    def test_zero_observable_is_exactly_zero(self):
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.7, SPACE)],
            [0.0, -0.5],
        )
        res = invariant_pressure_solve(fam, lambda mu: 0.0, 7, NU0)
        assert res.value == 0.0

    def test_single_kernel_mass_observable(self):
        p = 0.3
        fam = WeightedJacobianFamily([make_bernoulli_jacobian(p, SPACE)], [0.0])
        res = invariant_pressure_solve(fam, mass_of_one, 10, NU0, lip_g=1.0)
        assert abs(res.value - p) <= res.error_bound
        assert res.fixed_point_residual <= res.error_bound + 1e-12

    @pytest.mark.parametrize("lip_g", [-1.0, np.nan, np.inf])
    def test_lipschitz_constant_must_be_finite_and_nonnegative(self, lip_g):
        fam = WeightedJacobianFamily([make_bernoulli_jacobian(0.3, SPACE)], [0.0])
        with pytest.raises(ValueError, match="lip_g must be finite and at least 0"):
            invariant_pressure_solve(fam, mass_of_one, 4, NU0, lip_g=lip_g)

    def test_weighted_two_kernel_matches_bruteforce(self):
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.7, SPACE)],
            [0.0, -1.0],
        )
        N = 6
        best = -np.inf
        for code in range(2 ** N):
            word = [(code >> (N - 1 - i)) & 1 for i in range(N)]
            rho = NU0
            for i in reversed(word):
                rho = dual_apply(fam.jacobians[i], rho)
            best = max(best, -float(sum(word)) + mass_of_one(rho))
        res = invariant_pressure_solve(fam, mass_of_one, N, NU0, eps=0.0)
        assert res.value == best

    @pytest.mark.parametrize("eps", [0.0, None])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_plus_inf_observable_rejected(self, bad, eps):
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.7, SPACE)],
            [0.0, -0.5],
        )
        with pytest.raises(ValueError, match=r"not NaN or \+inf"):
            invariant_pressure_solve(fam, lambda mu: bad, 4, NU0, eps=eps)

    @pytest.mark.parametrize("eps", [0.0, None])
    def test_bottom_observable_has_bottom_pressure_and_no_residual(self, eps):
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.7, SPACE)],
            [0.0, -0.5],
        )
        with np.errstate(invalid="raise"):
            res = invariant_pressure_solve(fam, lambda mu: -np.inf, 4, NU0, eps=eps)
        assert (res.value, res.fixed_point_residual, res.words) == (-np.inf, 0.0, 16)

    @settings(max_examples=100, deadline=None)
    @example(d=2, m=3, N=6, kernel_depths=[3, 1, 2], extra_depth=1,
             weights=[-np.inf, 0.0, -0.05], top=1, block=64, seed=1)
    @example(d=3, m=2, N=4, kernel_depths=[2, 3, 1], extra_depth=0,
             weights=[-0.3, -np.inf, 0.0], top=0, block=None, seed=2)
    @given(d=st.sampled_from((2, 3)), m=st.integers(1, 3), N=st.integers(1, 6),
           kernel_depths=st.lists(st.integers(1, 3), min_size=3, max_size=3),
           extra_depth=st.integers(0, 1),
           weights=st.lists(st.sampled_from((0.0, -0.05, -0.3, -np.inf)),
                            min_size=3, max_size=3),
           top=st.integers(0, 2), block=st.sampled_from((1, 64, None)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_streamed_solve_matches_the_whole_table_bit_for_bit(
        self, d, m, N, kernel_depths, extra_depth, weights, top, block, seed
    ):
        rng = np.random.default_rng(seed)
        space = ShiftSpace(d, 0.2)
        depths = kernel_depths[:m]
        depth0 = max(depths) - 1 + extra_depth
        assume(m ** N * d ** (depth0 + N) <= 1 << 18)
        # one kernel at weight 0; -inf weights make blocks whose words are
        # all bottom, which a per-block pressure would reject
        q = weights[:m]
        q[top % m] = 0.0
        fam = WeightedJacobianFamily([random_jacobian(space, k, rng) for k in depths], q)
        nu0 = CylinderMeasure(space, depth0, rng.dirichlet(np.ones(d ** depth0)))
        cylinder = tuple(int(s) for s in rng.integers(1, d + 1, min(2, depth0 + N)))
        scale = float(rng.uniform(-4.0, 4.0))

        def g(mu):
            return scale * mu.mass_of(cylinder)

        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(shift, "BLOCK_CELLS", block)
            res = invariant_pressure_solve(fam, g, N, nu0, eps=0.0)
        want = whole_table_solve(fam, g, N, nu0)
        assert np.array([res.value, res.fixed_point_residual]).tobytes() == \
            np.array(want).tobytes()
        assert res.words == m ** N

    def test_exact_solve_holds_less_than_half_the_last_level(self):
        # the B family of the benchmark at N=10: its 2^10 images of 2^11
        # masses are 16.8 MB, the level before them a quarter of that
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.7, SPACE)],
            [0.0, -1.0],
        )
        last_level = 2 ** 10 * 2 ** 11 * 8
        tracemalloc.start()
        try:
            res = invariant_pressure_solve(fam, mass_of_one, 10, NU0, eps=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.words == 2 ** 10
        assert peak < last_level / 2

    def test_seed_independence_bound(self):
        fam = WeightedJacobianFamily(
            [make_bernoulli_jacobian(0.25, SPACE), make_bernoulli_jacobian(0.6, SPACE)],
            [0.0, -0.3],
        )
        a = invariant_pressure_solve(fam, mass_of_one, 8, NU0)
        b = invariant_pressure_solve(
            fam, mass_of_one, 8, CylinderMeasure(SPACE, 1, [0.5, 0.5])
        )
        assert abs(a.value - b.value) <= SPACE.contraction_rate ** 8 + 1e-12


def _pushed_indices(pts, symbol_map):
    """The grid index of each point's pushforward, matched by search."""
    push = np.zeros_like(pts)
    for i, t in enumerate(symbol_map):
        push[:, t - 1] += pts[:, i]
    return np.array([int(np.flatnonzero(np.abs(pts - q).max(axis=1) < 1e-9)[0])
                     for q in push])


def _per_observable_pushforward(pts, h, symbol_map, observables):
    """The pushforward report with the pushed grid matched by search and
    one pressure per observable written out."""
    sigma = _pushed_indices(pts, symbol_map)
    worst_fn, worst = 0.0, (0 if observables else None)
    with np.errstate(invalid="ignore"):
        for k, g in enumerate(observables):
            gv = g(pts)
            gap = abs(np.max(h + gv[sigma]) - np.max(h + gv))
            if gap > worst_fn:
                worst_fn, worst = gap, k
    fiber = np.array([max(h[sigma == i], default=-np.inf) for i in range(len(pts))])
    worst_dens = max(0.0 if a == b == -np.inf else abs(a - b) for a, b in zip(h, fiber))
    return ifs.InvarianceReport(float(worst_fn), worst_dens, worst)


class TestPushforwardInvariance:
    def _observables(self, seed=0, count=8):
        rng = np.random.default_rng(seed)
        obs = []
        for _ in range(count):
            a = rng.uniform(-2, 2, 2)
            b = float(rng.uniform(-1, 1))
            obs.append(
                lambda pts, a=a, b=b: np.atleast_2d(pts) @ a
                + b * np.atleast_2d(pts)[:, 0] ** 2
            )
        return obs

    def test_swap_with_symmetric_density_is_invariant(self):
        grid = SimplexGrid(2, 100)
        h = shannon_entropy_table(grid.points())
        rep = pushforward_invariance_check(grid, h, [2, 1], self._observables())
        assert rep.functional_residual <= 1e-9
        assert rep.density_residual <= 1e-9

    def test_density_on_invariant_points_only(self):
        grid = SimplexGrid(2, 100)
        pts = grid.points()
        h = np.where(np.abs(pts[:, 0] - 0.5) < 1e-12, 0.0, -np.inf)
        rep = pushforward_invariance_check(grid, h, [2, 1], self._observables(1))
        assert rep.functional_residual <= 1e-9
        assert rep.density_residual <= 1e-9

    def test_density_off_image_fails_with_witness(self):
        grid = SimplexGrid(2, 100)
        pts = grid.points()
        # constant symbol map: everything lands on the first vertex
        h = np.where(np.abs(pts[:, 0] - 0.5) < 1e-12, 0.0, -np.inf)
        rep = pushforward_invariance_check(grid, h, [1, 1], self._observables(2))
        assert rep.functional_residual > 1e-9
        assert rep.density_residual > 1e-9

    def test_equals_the_per_observable_loop(self):
        rng = np.random.default_rng(32)
        maps = {2: ([2, 1], [1, 2], [1, 1], [2, 2]),
                3: ([2, 3, 1], [1, 3, 2], [1, 1, 1], [3, 3, 1])}
        witnessed = 0
        for trial in range(60):
            d = 2 + trial % 2
            grid = SimplexGrid(d, 12 if d == 2 else 6)
            pts = grid.points()
            n = len(pts)
            h = rng.uniform(-3, 0, n)
            h[rng.random(n) < 0.3] = -np.inf
            h[int(rng.integers(0, n))] = 0.0
            symbol_map = maps[d][trial // 2 % 4]
            obs = []
            for _ in range(int(rng.integers(0, 6))):
                a = rng.uniform(-2, 2, d)
                cut = rng.uniform(-0.2, 1.0)   # -inf on part of the grid
                obs.append(lambda p, a=a, cut=cut: np.where(p[:, 0] > cut, -np.inf, p @ a))
            rep = pushforward_invariance_check(grid, h, symbol_map, obs)
            assert rep == _per_observable_pushforward(pts, h, symbol_map, obs)
            witnessed += rep.functional_residual > 1e-9
        assert witnessed >= 10

    @pytest.mark.parametrize("d, m, symbol_map", [
        (2, 400, [2, 1]), (2, 400, [1, 1]), (3, 60, [2, 3, 1]), (3, 60, [1, 1, 2]),
    ])
    def test_is_the_one_map_system_check_on_the_golden_grids(self, d, m, symbol_map):
        grid = SimplexGrid(d, m)
        pts = grid.points()
        n = len(pts)
        h = shannon_entropy_table(pts)
        rng = np.random.default_rng(d)
        obs = [lambda p, a=rng.uniform(-2, 2, d): p @ a + p[:, 0] ** 2 for _ in range(8)]
        one_map = MpIFSSystem(_pushed_indices(pts, symbol_map)[None], np.zeros((1, n)))
        G = np.array([g(pts) for g in obs])
        assert pushforward_invariance_check(grid, h, symbol_map, obs) == (
            mpifs_invariance_check(h, one_map, G)
        )

    def test_invalid_density_rejected(self):
        grid = SimplexGrid(2, 10)
        pts = grid.points()
        for h, message in ((np.full(len(pts), -np.inf), "empty support"),
                           (np.where(pts[:, 0] > 0.5, np.nan, 0.0), "NaN")):
            with pytest.raises(ValueError, match=message):
                pushforward_invariance_check(grid, h, [2, 1], self._observables())

    @pytest.mark.parametrize("symbol_map", [[1.5, 1], [2.0, 1.0]])
    def test_non_integer_symbol_map_rejected(self, symbol_map):
        grid = SimplexGrid(2, 4)
        with pytest.raises(ValueError, match="integer symbols, not float64"):
            pushforward_invariance_check(grid, np.zeros(5), symbol_map,
                                         self._observables())

    @pytest.mark.parametrize("symbol_map", [[0, 1], [3, 1], [2, -1]])
    def test_symbol_map_target_outside_alphabet_rejected(self, symbol_map):
        grid = SimplexGrid(2, 4)
        with pytest.raises(ValueError, match="must lie in 1..d"):
            pushforward_invariance_check(grid, np.zeros(5), symbol_map,
                                         self._observables())

    def test_unsigned_symbol_map_accepted(self):
        grid = SimplexGrid(2, 4)
        h = shannon_entropy_table(grid.points())
        obs = self._observables()
        assert pushforward_invariance_check(grid, h, np.array([2, 1], np.uint8), obs) == (
            pushforward_invariance_check(grid, h, [2, 1], obs)
        )

    def test_point_map_equals_the_search_on_random_lattices(self, monkeypatch):
        seen = []

        def capture(lam, sys, f_family=None):
            seen.append(sys.maps[0].copy())
            return mpifs_invariance_check(lam, sys, f_family)

        monkeypatch.setattr(ifs, "mpifs_invariance_check", capture)
        rng = np.random.default_rng(41)
        collapsing = 0
        for trial in range(90):
            d = 2 + trial % 3
            grid = SimplexGrid(d, int(rng.integers(1, {2: 30, 3: 12, 4: 7}[d])))
            pts = grid.points()
            symbol_map = rng.integers(1, d + 1, d)
            pushforward_invariance_check(grid, np.zeros(len(pts)), symbol_map, [])
            np.testing.assert_array_equal(seen.pop(), _pushed_indices(pts, symbol_map))
            collapsing += len(set(symbol_map.tolist())) < d
        assert collapsing >= 30


class TestMpIFSOperators:
    def test_ruelle_zero_observable_reads_normalization(self):
        sys = random_mpifs(7, np.random.default_rng(0))
        out = mpifs_ruelle(np.zeros(7), sys)
        assert np.abs(out).max() <= 1e-15

    def test_ruelle_constant_maps_formula(self):
        q = np.array([[0.0, -1.0], [-2.0, 0.0]])
        sys = MpIFSSystem.constant_maps(q)
        f = np.array([3.0, 5.0])
        out = mpifs_ruelle(f, sys)
        # (Lf)(p) = max_m q[m, p] + f(m)
        assert out[0] == max(0.0 + 3.0, -2.0 + 5.0)
        assert out[1] == max(-1.0 + 3.0, 0.0 + 5.0)

    def test_single_point_system_is_identity(self):
        sys = MpIFSSystem.constant_maps(np.array([[0.0]]))
        f = np.array([1.25])
        assert mpifs_ruelle(f, sys)[0] == f[0]

    def test_transfer_constant_maps_formula(self):
        q = np.array([[0.0, -1.0], [-2.0, 0.0]])
        sys = MpIFSSystem.constant_maps(q)
        lam = np.array([-0.5, 0.0])
        out = mpifs_transfer(lam, sys)
        # (L lam)(p) = max_eta q[p, eta] + lam(eta)
        assert out[0] == max(0.0 - 0.5, -1.0 + 0.0)
        assert out[1] == max(-2.0 - 0.5, 0.0 + 0.0)

    def test_transfer_off_image_is_bottom(self):
        maps = np.array([[1, 1], [1, 1]])   # nothing maps to point 0
        q = np.array([[0.0, 0.0], [-1.0, -1.0]])
        sys = MpIFSSystem(maps, q)
        out = mpifs_transfer(np.zeros(2), sys)
        assert np.isneginf(out[0])
        assert out[1] == 0.0

    def test_duality_exact_on_random_systems(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            constant = bool(rng.integers(0, 2))
            sys = random_mpifs(n, rng, constant_maps=constant)
            lam = -rng.exponential(1.0, n)
            lam -= lam.max()
            f = rng.uniform(-3, 3, n)
            assert mpifs_markov(lam, f, sys) == np.max(lam + mpifs_ruelle(f, sys))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 30),
        m=st.integers(1, 5),
        k=st.sampled_from([None, 0, 1, 4]),
        constant=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_ruelle_equals_the_dense_oracle_bit_for_bit(self, n, m, k, constant, seed):
        rng = np.random.default_rng(seed)
        q = -rng.exponential(size=(n if constant else m, n))
        q[rng.random(q.shape) < 0.2] = -np.inf
        q[rng.integers(len(q), size=n), np.arange(n)] = 0.0
        sys = (MpIFSSystem.constant_maps(q) if constant
               else MpIFSSystem(rng.integers(0, n, (m, n)), q))
        shape = (n,) if k is None else (n, k)
        f = np.where(rng.random(shape) < 0.3, -np.inf, rng.uniform(-3, 3, shape))
        out = mpifs_ruelle(f, sys)
        assert out.shape == f.shape
        pairs = [(f, out)] if k is None else zip(f.T, out.T)
        for column, image in pairs:
            assert np.array_equal(image, ruelle_dense(column, sys))

    @pytest.mark.parametrize("call", [
        lambda sys: mpifs_ruelle(np.arange(5.0), sys),
        lambda sys: mpifs_ruelle(np.zeros(2), sys),
        lambda sys: mpifs_ruelle(np.zeros((3, 2, 1)), sys),
        lambda sys: mpifs_transfer(np.zeros(1), sys),
        lambda sys: mpifs_transfer(np.zeros((3, 2)), sys),
        lambda sys: mpifs_transfer(0.0, sys),
        lambda sys: mpifs_markov(np.zeros(1), np.zeros(3), sys),
        lambda sys: mpifs_markov(np.zeros(3), np.zeros(4), sys),
    ], ids=["ruelle-long", "ruelle-short", "ruelle-3d", "transfer-short",
            "transfer-2d", "transfer-scalar", "markov-density", "markov-observable"])
    def test_mis_sized_inputs_rejected(self, call):
        sys = random_mpifs(3, np.random.default_rng(1), constant_maps=False)
        with pytest.raises(ValueError, match="n_points = 3 rows"):
            call(sys)

    @pytest.mark.parametrize("call", [
        lambda sys: mpifs_markov(np.array([np.nan, 0.0]), np.zeros(2), sys),
        lambda sys: mpifs_markov(np.zeros(2), np.array([0.0, np.inf]), sys),
        lambda sys: mpifs_transfer(np.array([np.nan, 0.0]), sys),
        lambda sys: mpifs_transfer(np.array([np.inf, 0.0]), sys),
        lambda sys: mpifs_ruelle(np.array([np.inf, 0.0]), sys),
        lambda sys: mpifs_ruelle(np.array([[0.0, 1.0], [np.nan, 0.0]]), sys),
    ], ids=["markov-nan-density", "markov-inf-observable", "transfer-nan", "transfer-inf",
            "ruelle-inf", "ruelle-nan-column"])
    def test_nan_or_plus_inf_values_rejected(self, call):
        """A NaN density made the markov value -inf and the transfer image
        NaN; a +inf observable came back as a +inf Ruelle image."""
        sys = MpIFSSystem.constant_maps(np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"must be real or -inf, not NaN or \+inf"):
            call(sys)

    def test_non_integer_map_targets_rejected(self):
        with pytest.raises(ValueError, match="integer point indices, not float64"):
            MpIFSSystem([[1.7, 0.2]], [[0.0, 0.0]])

    @pytest.mark.parametrize("weights", [np.zeros(3), np.zeros((2, 3)), np.zeros((1, 1, 1))])
    def test_constant_maps_need_a_square_table(self, weights):
        with pytest.raises(ValueError, match="square weight table"):
            MpIFSSystem.constant_maps(weights)

    def test_weight_normalization_enforced(self):
        with pytest.raises(ValueError, match="attain 0"):
            MpIFSSystem.constant_maps(np.array([[-0.5, -1.0], [-1.0, -0.5]]))

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)])
    def test_empty_system_rejected(self, shape):
        n_maps, n_points = shape
        with pytest.raises(ValueError, match=f"at least one map and one point, got "
                                             f"{n_maps} maps on {n_points} points"):
            MpIFSSystem(np.zeros(shape, int), np.zeros(shape))


class TestFixedDensity:
    """The two-phase transfer iteration against the Floyd-Warshall closure
    it replaced, and the flat transfer against its per-map loop."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        m=st.integers(1, 5),
        image=st.sampled_from([None, 1, 3]),
        continuous=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_equals_the_closure_oracle_bit_for_bit(self, n, m, image, continuous, seed):
        rng = np.random.default_rng(seed)
        if continuous:
            # inexact path sums, as in random_mpifs, so the closure's
            # grouping of additions differs from the transfer's
            q = -rng.exponential(size=(m, n))
            q -= q.max(axis=0, keepdims=True)
            q[(rng.random((m, n)) < 0.2) & (q < 0.0)] = -np.inf
        else:
            # ties, barely negative and -inf weights all happen
            levels = np.array([0.0, -1e-9, -0.25, -0.5, -1.0, -np.inf])
            q = np.where(rng.random((m, n)) < 0.5, rng.choice(levels, (m, n)),
                         -np.round(rng.exponential(size=(m, n)) * 4) / 4)
            q[rng.integers(m, size=n), np.arange(n)] = 0.0
        hi = n if image is None else min(image, n)   # small images leave bottoms
        sys = MpIFSSystem(rng.integers(0, hi, (m, n)), q)

        lam, passes = mpifs_fixed_density(sys)
        assert np.array_equal(lam, fixed_density_closure(sys)[0])
        assert np.array_equal(mpifs_transfer(lam, sys), lam)
        assert passes <= 2 * (n + 1)

        dens = np.where(rng.random(n) < 0.3, -np.inf, rng.uniform(-3, 0, n))
        for x in (dens, lam):
            assert np.array_equal(mpifs_transfer(x, sys), transfer_per_map(x, sys))

    @pytest.mark.parametrize("constant", [True, False])
    def test_equals_the_closure_oracle_on_random_mpifs(self, constant):
        rng = np.random.default_rng(16)
        for _ in range(40):
            n = int(rng.integers(2, 81))
            sys = random_mpifs(n, rng, constant_maps=constant)
            lam, passes = mpifs_fixed_density(sys)
            assert np.array_equal(lam, fixed_density_closure(sys)[0])
            assert np.array_equal(mpifs_transfer(lam, sys), transfer_per_map(lam, sys))
            assert passes <= 2 * (n + 1)

    def test_barely_negative_cycle(self):
        # the cycle 0 -> 1 -> 2 -> 3 -> 0 weighs -1e-9, barely below zero:
        # only the self-loop at 0 is a zero cycle
        sys = MpIFSSystem([[1, 2, 3, 0], [0, 0, 0, 0]],
                          [[-1e-9, 0.0, 0.0, 0.0], [0.0, -5.0, -5.0, -5.0]])
        lam, passes = mpifs_fixed_density(sys)
        assert lam.tolist() == [0.0, -1e-9, -1e-9, -1e-9]
        assert passes <= 2 * (4 + 1)


class TestInvarianceEquivalence:
    def test_fixed_density_passes_all_three(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            sys = random_mpifs(n, rng)
            lam, iters = mpifs_fixed_density(sys)
            rep = mpifs_invariance_check(lam, sys)
            assert all(rep.passes())
            assert rep.consistent()

    def test_perturbed_density_fails_all_three(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            sys = random_mpifs(n, rng)
            lam, _ = mpifs_fixed_density(sys)
            off = lam.copy()
            off[int(rng.integers(0, n))] -= 0.7
            rep = mpifs_invariance_check(off, sys)
            assert not any(rep.passes())
            assert rep.consistent()

    def test_lowered_density_can_stay_invariant(self):
        # each point keeps itself at weight 0, so every density is fixed:
        # lowering a point of the fixed density [0, 0] leaves it invariant
        sys = MpIFSSystem.constant_maps(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        lam, _ = mpifs_fixed_density(sys)
        assert np.array_equal(lam, [0.0, 0.0])
        rep = mpifs_invariance_check(np.array([0.0, -0.7]), sys)
        assert all(rep.passes())
        assert rep.consistent()

    def test_inverse_problem_solution_is_invariant(self):
        rng = np.random.default_rng(6)
        h = -rng.exponential(1.0, 12)
        h -= h.max()
        sys = inverse_problem_solve(h)
        assert np.array_equal(sys.weights, np.repeat(h[:, None], 12, axis=1))
        assert np.array_equal(mpifs_transfer(h, sys), h)
        rep = mpifs_invariance_check(h, sys)
        assert all(rep.passes())

    def test_spike_family_separates_points(self):
        fams = spike_family(5)
        assert fams.shape == (5 + 5, 5)
        for i, f in enumerate(fams[:5]):
            assert f[i] == 0.0
            assert (np.delete(f, i) < -1e6).all()
        # the random rows are five successive draws of the seed-0 stream
        rng = np.random.default_rng(0)
        for f in fams[5:]:
            assert np.array_equal(f, rng.uniform(-2, 2, 5))


def _per_observable_report(lam, sys, f_family):
    """Invariance residuals with one pass over the maps per observable.  The
    functional gap of each observable is read off its Ruelle image, and the
    pressure operator ``mpifs_markov`` must give the same gap."""
    image = mpifs_transfer(lam, sys)
    both_bottom = np.isneginf(image) & np.isneginf(lam)
    with np.errstate(invalid="ignore"):
        transfer = float(np.where(both_bottom, 0.0, np.abs(image - lam)).max())
    functional, worst = 0.0, (0 if len(f_family) else None)
    for k, f in enumerate(f_family):
        base = float(np.max(lam + f))
        gap = abs(float(np.max(lam + ruelle_dense(f, sys))) - base)
        np.testing.assert_equal(abs(mpifs_markov(lam, f, sys) - base), gap)
        if gap > functional:
            functional, worst = gap, k
    return ifs.InvarianceReport(functional, transfer, worst)


class TestBatchedInvarianceCheck:
    """The family-wide check against the per-observable loop it replaced:
    the additions are the same, so the residuals must be bit-identical."""

    @pytest.mark.parametrize("constant", [True, False])
    def test_residuals_identical_on_random_systems(self, constant):
        rng = np.random.default_rng(21 + constant)
        for trial in range(30):
            n = int(rng.integers(2, 6)) if trial % 4 == 0 else int(rng.integers(2, 81))
            sys = random_mpifs(n, rng, constant_maps=constant)
            lam, _ = mpifs_fixed_density(sys)
            off = lam.copy()
            off[int(rng.integers(0, n))] -= 0.7
            for dens in (lam, off, -rng.exponential(1.0, n)):
                assert mpifs_invariance_check(dens, sys) == _per_observable_report(
                    dens, sys, spike_family(n)
                )
            fams = [rng.uniform(-3, 3, n) for _ in range(int(rng.integers(1, 8)))]
            assert mpifs_invariance_check(off, sys, fams) == _per_observable_report(
                off, sys, fams
            )

    def test_invalid_density_rejected(self):
        sys = random_mpifs(4, np.random.default_rng(24))
        for lam, message in ((np.full(4, -np.inf), "empty support"),
                             (np.array([0.0, np.nan, -1.0, -2.0]), "NaN"),
                             (np.array([0.0, np.inf, -1.0, -2.0]), r"\+inf")):
            with pytest.raises(ValueError, match=message):
                mpifs_invariance_check(lam, sys)

    def test_bottom_values_and_empty_family(self):
        rng = np.random.default_rng(23)
        sys = random_mpifs(6, rng, constant_maps=False)
        lam = np.array([0.0, -np.inf, -1.0, -np.inf, -2.0, -0.5])
        fams = [np.full(6, -np.inf), np.where(np.arange(6) % 2, -np.inf, 1.0),
                rng.uniform(-2, 2, 6)]
        assert mpifs_invariance_check(lam, sys, fams) == _per_observable_report(
            lam, sys, fams
        )
        empty = mpifs_invariance_check(lam, sys, [])
        assert (empty.functional_residual, empty.worst_observable) == (0.0, None)
        assert mpifs_invariance_check(lam, sys, np.zeros((0, 6))) == empty
        # +inf is not a max-plus value: against a -inf weight it would score
        # nan, so a +inf or NaN observable is rejected
        sys = MpIFSSystem.constant_maps(np.array([[0.0, -np.inf], [-np.inf, 0.0]]))
        lam = np.array([0.0, -1.0])
        for bad in (np.inf, np.nan):
            fams = [np.array([bad, 0.0]), np.array([0.0, -2.0])]
            with pytest.raises(ValueError, match=r"not NaN or \+inf"):
                mpifs_invariance_check(lam, sys, fams)

    @pytest.mark.parametrize("family", [
        [np.zeros(6)], np.zeros((2, 4)), np.zeros(3), np.zeros((1, 3, 1)), [np.zeros(0)],
    ], ids=["one 6-long row", "4 columns", "1-D", "3-D", "one empty row"])
    def test_family_must_be_a_table_of_rows_on_the_points(self, family):
        sys = random_mpifs(3, np.random.default_rng(24), constant_maps=False)
        lam, _ = mpifs_fixed_density(sys)
        with pytest.raises(ValueError, match=r"must be a \(k, 3\) table, got shape"):
            mpifs_invariance_check(lam, sys, family)


class TestInverseProblem:
    def test_all_zero_density(self):
        sys = inverse_problem_solve(np.zeros(4))
        assert np.all(sys.weights == 0.0)
        assert np.array_equal(mpifs_transfer(np.zeros(4), sys), np.zeros(4))

    def test_three_point_ladder(self):
        h = np.array([0.0, -1.0, -2.0])
        sys = inverse_problem_solve(h)
        # map i sends every point to point i, at weight h(i) from any source
        assert np.array_equal(sys.maps, np.repeat(np.arange(3)[:, None], 3, axis=1))
        assert np.array_equal(sys.weights, np.repeat(h[:, None], 3, axis=1))
        assert np.array_equal(mpifs_transfer(h, sys), h)

    def test_unnormalized_density_rejected(self):
        with pytest.raises(ValueError, match="attain 0"):
            inverse_problem_solve(np.array([-0.5, -1.0]))
        with pytest.raises(ValueError, match="<= 0"):
            inverse_problem_solve(np.array([0.5, 0.0]))
