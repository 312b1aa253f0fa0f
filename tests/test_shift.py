"""Tests for cylinder measures and transfer operators on shift spaces."""

import functools
import re
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import dual_image, index_word, integrate, transfer_repeated, word_metric

from maxtherm import shift
from maxtherm.goldens import check_contraction_bounds, random_jacobian, random_measure
from maxtherm.ifs import WeightedJacobianFamily, attractor_build
from maxtherm.shift import (
    MAX_CELLS,
    CylinderMeasure,
    DepthKFunction,
    Jacobian,
    ShiftSpace,
    check_kernel_rows,
    compose_duals,
    dual_apply,
    dual_rows,
    lipschitz_constant,
    lipschitz_rows,
    make_bernoulli_jacobian,
    pushforward_apply,
    row_blocks,
    symbol_table,
    transfer_rows,
    word_index,
)
from maxtherm.simplex import SimplexGrid

SPACE = ShiftSpace(2, 0.3)


class TestSpaceAndWords:
    def test_gamma_range_enforced(self):
        with pytest.raises(ValueError):
            ShiftSpace(2, 1 / 3)          # must be strictly below 1/(d+1)
        with pytest.raises(ValueError):
            ShiftSpace(2, 0.0)
        with pytest.raises(ValueError):
            ShiftSpace(1, 0.1)
        assert ShiftSpace(3, 0.24).contraction_rate == pytest.approx(0.96)

    @pytest.mark.parametrize("d", [2.0, 2.5, "2"])
    def test_alphabet_size_must_be_an_integer(self, d):
        with pytest.raises(ValueError, match="must be an integer"):
            ShiftSpace(d, 0.2)
        assert ShiftSpace(np.int64(3), 0.2).n_words(2) == 9

    @pytest.mark.parametrize("symbol", [1.0, 1.5, "1", np.float64(2.0)])
    def test_non_integer_symbols_are_named(self, symbol):
        mu = CylinderMeasure.bernoulli(SPACE, [0.3, 0.7], 2)
        message = re.escape(f"symbol must be an integer, got {symbol!r}")
        with pytest.raises(ValueError, match=message):
            mu.mass_of((symbol,))
        with pytest.raises(ValueError, match=message):
            CylinderMeasure.point_mass(SPACE, (symbol, 2))
        assert mu.mass_of((np.int64(2), np.int64(1))) == mu.mass_of((2, 1))

    def test_word_codes_roundtrip_lexicographically(self):
        d, n = 3, 4
        table = symbol_table(n, d)
        for idx in range(d ** n):
            word = index_word(idx, n, d)
            assert word_index(word, d) == idx
            assert tuple(table[idx]) == word
        # lexicographic order: earlier rows compare smaller
        assert tuple(table[0]) < tuple(table[1]) < tuple(table[-1])

    def test_metric_examples(self):
        assert word_metric((1, 1), (1, 1), SPACE) == 0.0
        assert word_metric((1, 1), (2, 1), SPACE) == 1.0   # diameter 1
        assert word_metric((1, 1), (1, 2), SPACE) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            word_metric((1,), (1, 2), SPACE)


class TestLipschitz:
    def test_constant_function(self):
        f = DepthKFunction(SPACE, 2, [1.5, 1.5, 1.5, 1.5])
        assert lipschitz_constant(f) == 0.0

    def test_depth1_indicator(self):
        f = DepthKFunction(SPACE, 1, [0.0, 1.0])
        assert lipschitz_constant(f) == 1.0

    def test_last_coordinate_bump_against_pair_enumeration(self):
        c = 1.7
        f = DepthKFunction(SPACE, 2, [0.0, 0.0, 0.0, c])
        # oracle: scan all word pairs directly
        words = [(1, 1), (1, 2), (2, 1), (2, 2)]
        vals = dict(zip(words, [0.0, 0.0, 0.0, c]))
        best = 0.0
        for u in words:
            for v in words:
                if u == v:
                    continue
                gap = abs(vals[u] - vals[v]) / word_metric(u, v, SPACE)
                best = max(best, gap)
        assert best == pytest.approx(c / 0.3)
        assert lipschitz_constant(f) == pytest.approx(best, abs=1e-12)

    def test_random_tables_match_pair_enumeration(self):
        rng = np.random.default_rng(8)
        for d, k in ((2, 3), (3, 2)):
            space = ShiftSpace(d, 0.2 if d == 2 else 0.18)
            vals = rng.uniform(-2, 2, d ** k)
            f = DepthKFunction(space, k, vals)
            words = [tuple(w) for w in symbol_table(k, d)]
            oracle = max(
                abs(vals[i] - vals[j]) / word_metric(words[i], words[j], space)
                for i in range(len(words))
                for j in range(len(words))
                if i != j
            )
            assert lipschitz_constant(f) == pytest.approx(oracle, abs=1e-12)


class TestJacobianValidation:
    def test_bernoulli_values_and_lipschitz(self):
        j = make_bernoulli_jacobian(0.3, SPACE)
        assert j.values == pytest.approx([0.3, 0.7])
        assert lipschitz_constant(j) == pytest.approx(0.4)
        assert lipschitz_constant(make_bernoulli_jacobian(0.5, SPACE)) == 0.0

    def test_p_range(self):
        with pytest.raises(ValueError):
            make_bernoulli_jacobian(1.2, SPACE)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            Jacobian(SPACE, 1, [0.3, 0.3])

    def test_lipschitz_bound_enforced(self):
        # adjacent cylinders with a jump of 0.5 at position 1: constant
        # 0.5 / 0.3 > 1
        with pytest.raises(ValueError, match="Lipschitz"):
            Jacobian(SPACE, 2, [0.25, 0.75, 0.75, 0.25])

    def test_value_range_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Jacobian(SPACE, 1, [1.2, -0.2])

    def test_the_kernel_table_check_is_the_jacobian_check(self):
        # row 1: columns (0.4, 0.6) and (0.45, 0.55), Lipschitz constant 0.2
        good = np.array([[0.5, 0.5, 0.5, 0.5], [0.4, 0.45, 0.6, 0.55]])
        assert check_kernel_rows(SPACE, good, lipschitz_rows(SPACE, 2, good)) is good
        for bad, match in (
            ([0.3, 0.45, 0.6, 0.55], "normalized"),      # first column sums to 0.9
            ([0.25, 0.75, 0.75, 0.25], "Lipschitz"),     # 0.5 / 0.3 > 1
        ):
            table = np.array([good[0], bad])
            with pytest.raises(ValueError, match=match) as one:
                Jacobian(SPACE, 2, bad)
            with pytest.raises(ValueError, match=f"^{re.escape(str(one.value))}$"):
                check_kernel_rows(SPACE, table, lipschitz_rows(SPACE, 2, table))

    def test_the_kernel_table_check_leaves_the_table_unclipped(self):
        table = np.array([[-1e-13, 1.0 + 1e-13]])
        check_kernel_rows(SPACE, table, lipschitz_rows(SPACE, 1, table))
        assert table.tolist() == [[-1e-13, 1.0 + 1e-13]]

    def test_the_kernel_keeps_the_table_it_checked(self):
        v = np.array([0.3, 0.7])
        J = Jacobian(SPACE, 1, v)
        v[0] = 5.0
        assert J.values.tolist() == [0.3, 0.7]
        with pytest.raises(ValueError, match="read-only"):
            J.values[0] = 5.0


class TestCylinderMeasure:
    def test_refine_then_coarsen_is_identity(self):
        rng = np.random.default_rng(4)
        mu = random_measure(SPACE, 3, rng)
        back = mu.refine().coarsen()
        assert np.abs(back.masses - mu.masses).max() <= 1e-15

    def test_mass_of_prefix(self):
        mu = CylinderMeasure(SPACE, 2, [0.18, 0.12, 0.42, 0.28])
        assert mu.mass_of((1,)) == pytest.approx(0.3)
        assert mu.mass_of((2, 2)) == pytest.approx(0.28)

    def test_validation(self):
        with pytest.raises(ValueError, match="sum"):
            CylinderMeasure(SPACE, 1, [0.7, 0.7])
        with pytest.raises(ValueError, match="nonnegative"):
            CylinderMeasure(SPACE, 1, [1.5, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mass_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CylinderMeasure(SPACE, 1, [bad, 1.0])

    def test_the_callers_array_is_not_clipped(self):
        masses = np.array([1.0 + 1e-13, -1e-13])
        mu = CylinderMeasure(SPACE, 1, masses)
        assert mu.masses[1] == 0.0
        assert masses[1] == -1e-13

    def test_bernoulli_constructor(self):
        mu = CylinderMeasure.bernoulli(SPACE, [0.3, 0.7], 2)
        assert mu.masses == pytest.approx([0.09, 0.21, 0.21, 0.49])


class TestTransferOperator:
    def test_normalization_maps_one_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            J = random_jacobian(SPACE, int(rng.integers(1, 4)), rng)
            out = transfer_rows(SPACE, J.values[None], np.ones((1, 4)))
            assert np.abs(out - 1.0).max() <= 1e-12

    def test_depth1_hand_evaluation(self):
        J = make_bernoulli_jacobian(0.3, SPACE)
        out = transfer_rows(SPACE, J.values[None], np.array([[2.0, 5.0]]))
        assert out.shape == (1, 1)   # depth 0
        assert out[0, 0] == pytest.approx(0.3 * 2.0 + 0.7 * 5.0)

    def test_depth_bookkeeping(self):
        # the image reads one symbol fewer than the deeper input
        J = random_jacobian(SPACE, 2, np.random.default_rng(0))
        kernels = np.repeat(J.values[None], 3, axis=0)
        assert transfer_rows(SPACE, kernels, np.arange(24.0).reshape(3, 8)).shape == (3, 4)
        assert transfer_rows(SPACE, kernels, np.zeros((3, 2))).shape == (3, 2)

    def test_lipschitz_contraction(self):
        rng = np.random.default_rng(7)
        r = SPACE.contraction_rate
        for _ in range(100):
            J = random_jacobian(SPACE, int(rng.integers(1, 3)), rng)
            vals = rng.uniform(0, 3, 8)
            vals -= vals.min()        # normalize to min 0
            f = DepthKFunction(SPACE, 3, vals)
            out = transfer_rows(SPACE, J.values[None], vals[None])
            assert (
                lipschitz_rows(SPACE, 2, out)[0]
                <= r * lipschitz_constant(f) + 1e-10
            )


class TestDualOperator:
    def test_first_level_masses(self):
        J = make_bernoulli_jacobian(0.3, SPACE)
        for nu0 in (
            CylinderMeasure.trivial(SPACE),
            CylinderMeasure(SPACE, 1, [0.9, 0.1]),
        ):
            out = dual_apply(J, nu0)
            assert out.mass_of((1,)) == pytest.approx(0.3, abs=1e-15)
            assert out.mass_of((2,)) == pytest.approx(0.7, abs=1e-15)

    def test_two_step_composition_product_masses(self):
        res = compose_duals(
            [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.6, SPACE)],
            CylinderMeasure.trivial(SPACE),
            track_trace=False,
        )
        assert res.measure.masses == pytest.approx(
            [0.18, 0.12, 0.42, 0.28], abs=1e-15
        )

    def test_mass_conservation(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            J = random_jacobian(SPACE, int(rng.integers(1, 4)), rng)
            mu = random_measure(SPACE, 3, rng)
            out = dual_apply(J, mu)
            assert out.depth == 4
            assert abs(out.masses.sum() - 1.0) <= 1e-12

    def test_duality_against_transfer(self):
        # integrating f against the dual image equals integrating the
        # transferred f against the original
        rng = np.random.default_rng(9)
        for _ in range(50):
            J = random_jacobian(SPACE, int(rng.integers(1, 3)), rng)
            mu = random_measure(SPACE, 3, rng)
            f = DepthKFunction(SPACE, 3, rng.uniform(-2, 2, 8))
            Lf = transfer_rows(SPACE, J.values[None], f.values[None])[0]
            lhs = integrate(dual_apply(J, mu), f)
            rhs = integrate(mu, DepthKFunction(SPACE, 2, Lf))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_transfer_allocates_only_its_product(self):
        # the product and the half-size sums; repeating the kernel and the
        # observable out to depth k, as ``at_depth`` does, peaks at 3.0x
        f = DepthKFunction(SPACE, 16, np.random.default_rng(6).uniform(-1, 1, 1 << 16))
        J = random_jacobian(SPACE, 3, np.random.default_rng(5))
        tracemalloc.start()
        try:
            out = transfer_rows(SPACE, J.values[None], f.values[None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.tobytes() == transfer_repeated(J, f).tobytes()
        assert peak <= 1.6 * f.values.nbytes

    def test_depth_precondition(self):
        deep = Jacobian(
            SPACE, 3, np.full(8, 0.5) + 0.0
        )
        with pytest.raises(ValueError, match=r"^kernel depth 3 exceeds measure depth 1 \+ 1; "
                                             "refine the measures first$"):
            dual_apply(deep, CylinderMeasure(SPACE, 1, [0.4, 0.6]))

    def test_one_image_allocates_only_its_output(self):
        # a repeated kernel table or a re-checked copy of the product would
        # each add the output's size again
        mu = CylinderMeasure.bernoulli(SPACE, [0.3, 0.7], 16)
        J = random_jacobian(SPACE, 3, np.random.default_rng(5))
        tracemalloc.start()
        try:
            nu = dual_apply(J, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * nu.masses.nbytes


class TestPushforward:
    def test_bernoulli_is_invariant(self):
        mu = CylinderMeasure.bernoulli(SPACE, [0.3, 0.7], 2)
        out = pushforward_apply(mu)
        assert out.masses == pytest.approx([0.3, 0.7], abs=1e-15)

    def test_section_identity_random(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            depth = int(rng.integers(1, 5))
            J = random_jacobian(SPACE, int(rng.integers(1, min(depth + 1, 3) + 1)), rng)
            mu = random_measure(SPACE, depth, rng)
            back = pushforward_apply(dual_apply(J, mu))
            assert np.abs(back.masses - mu.masses).max() <= 1e-12

    def test_inhomogeneous_product_not_invariant(self):
        seq = [make_bernoulli_jacobian(p, SPACE) for p in (0.3, 0.6, 0.45)]
        rho = compose_duals(seq, CylinderMeasure.trivial(SPACE), track_trace=False).measure
        shifted = pushforward_apply(rho)       # drops the first coordinate
        truncated = rho.coarsen()              # drops the last coordinate
        assert np.abs(shifted.masses - truncated.masses).max() > 1e-3

    def test_constant_product_is_invariant(self):
        seq = [make_bernoulli_jacobian(0.3, SPACE)] * 3
        rho = compose_duals(seq, CylinderMeasure.trivial(SPACE), track_trace=False).measure
        shifted = pushforward_apply(rho)
        truncated = rho.coarsen()
        assert np.abs(shifted.masses - truncated.masses).max() <= 1e-12

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            pushforward_apply(CylinderMeasure.trivial(SPACE))


class TestComposeDuals:
    def test_constant_kernel_converges_to_bernoulli(self):
        from maxtherm.transport import w1_tree

        p = 0.35
        jp = make_bernoulli_jacobian(p, SPACE)
        res = compose_duals([jp] * 8, CylinderMeasure.point_mass(SPACE, (2,)))
        target = CylinderMeasure.bernoulli(SPACE, [p, 1 - p], res.measure.depth)
        assert w1_tree(res.measure, target) <= SPACE.contraction_rate ** 8
        # successive prefix distances decay at least geometrically
        trace = res.w1_trace
        for a, b in zip(trace, trace[1:]):
            if a > 1e-13:
                assert b <= SPACE.contraction_rate * a + 1e-12

    def test_seed_independence(self):
        from maxtherm.transport import w1_tree

        seq = [make_bernoulli_jacobian(p, SPACE) for p in (0.3, 0.6, 0.2, 0.8, 0.5)]
        a = compose_duals(seq, CylinderMeasure(SPACE, 1, [1.0, 0.0]), track_trace=False)
        b = compose_duals(seq, CylinderMeasure(SPACE, 1, [0.2, 0.8]), track_trace=False)
        n = len(seq)
        assert (
            w1_tree(a.measure, b.measure) <= SPACE.contraction_rate ** n + 1e-12
        )

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            compose_duals([], CylinderMeasure.trivial(SPACE))


SPACES = {2: SPACE, 3: ShiftSpace(3, 0.2), 4: ShiftSpace(4, 0.15)}
SEEDS = st.integers(0, 2**32 - 1)


def kernel_with_a_negative_entry(space: ShiftSpace, depth: int,
                                 rng: np.random.Generator) -> Jacobian:
    """Admissible kernel whose first symbol has weight -1e-13, inside the
    normalization tolerance: every image it makes needs the clip at 0."""
    p = np.concatenate([[-1e-13], rng.dirichlet(np.ones(space.d - 1))])
    return Jacobian(space, depth, np.repeat(p, space.d ** (depth - 1)))


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(d=st.sampled_from((2, 3, 4)), depth=st.integers(0, 5),
           kernel_depths=st.tuples(st.integers(1, 6), st.integers(1, 6)),
           spiky=st.booleans(), negative=st.booleans(), seed=SEEDS)
    def test_dual_images_match_the_per_word_oracle(self, d, depth, kernel_depths,
                                                   spiky, negative, seed):
        # dual_apply and attractor_build are both dual_rows products, so
        # both are held to the oracle, bit for bit (the sign of 0 too)
        rng = np.random.default_rng(seed)
        space = SPACES[d]
        depths = [min(k, depth + 1) for k in kernel_depths]
        J = (kernel_with_a_negative_entry if negative else random_jacobian)(
            space, depths[0], rng)
        K = random_jacobian(space, depths[1], rng)
        mu = random_measure(space, depth, rng, spiky=spiky)
        want = [dual_image(J, mu), dual_image(K, mu)]
        assert dual_apply(J, mu).masses.tobytes() == want[0].tobytes()
        sample = attractor_build(WeightedJacobianFamily([J, K], [0.0, -1.0]), 1, mu,
                                 eps=0.0)
        for leaf in sample.leaves:
            assert leaf.measure.masses.tobytes() == want[leaf.word[0] - 1].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(d=st.sampled_from((2, 3, 4)), f_depth=st.integers(0, 5),
           kernel_depth=st.integers(1, 5), rows=st.integers(1, 5), seed=SEEDS)
    def test_transfer_matches_the_repeated_tables_bit_for_bit(self, d, f_depth,
                                                              kernel_depth, rows, seed):
        # row i of the kernel table acts on row i of the values table
        rng = np.random.default_rng(seed)
        space = SPACES[d]
        js = [random_jacobian(space, kernel_depth, rng) for _ in range(rows)]
        fs = rng.uniform(-2.0, 2.0, (rows, d ** f_depth))
        out = transfer_rows(space, np.array([J.values for J in js]), fs)
        assert out.shape == (rows, d ** (max(f_depth, kernel_depth) - 1))
        for row, J, f in zip(out, js, fs):
            want = transfer_repeated(J, DepthKFunction(space, f_depth, f))
            assert row.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(d=st.sampled_from((2, 3, 4)), depth=st.integers(0, 4), rows=st.integers(1, 6),
           seed=SEEDS)
    def test_row_lipschitz_constants_are_each_rows_constant(self, d, depth, rows, seed):
        table = np.random.default_rng(seed).uniform(-2.0, 2.0, (rows, d ** depth))
        want = [lipschitz_constant(DepthKFunction(SPACES[d], depth, row)) for row in table]
        assert lipschitz_rows(SPACES[d], depth, table).tolist() == want

    @settings(max_examples=150, deadline=None)
    @given(d=st.sampled_from((2, 3, 4)), depth=st.integers(0, 4),
           kernel_depth=st.integers(1, 5), rows=st.integers(1, 5), spiky=st.booleans(),
           negative=st.booleans(), seed=SEEDS)
    def test_paired_dual_images_are_each_rows_dual_apply(self, d, depth, kernel_depth,
                                                         rows, spiky, negative, seed):
        rng = np.random.default_rng(seed)
        space, depth_j = SPACES[d], min(kernel_depth, depth + 1)
        make = kernel_with_a_negative_entry if negative else random_jacobian
        js = [make(space, depth_j, rng) for _ in range(rows)]
        mus = [random_measure(space, depth, rng, spiky=spiky) for _ in range(rows)]
        got = dual_rows(space, np.array([J.values for J in js]),
                        np.array([mu.masses for mu in mus]))
        assert got.shape == (rows, d ** (depth + 1))
        for row, J, mu in zip(got, js, mus):
            assert row.tobytes() == dual_apply(J, mu).masses.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(d=st.sampled_from((2, 3, 4)), depth=st.integers(0, 4),
           kernel_depths=st.lists(st.integers(1, 5), min_size=1, max_size=4),
           rows=st.integers(1, 4), spiky=st.booleans(), negative=st.booleans(), seed=SEEDS)
    def test_broadcast_dual_images_are_dual_apply_and_the_oracle(
            self, d, depth, kernel_depths, rows, spiky, negative, seed):
        # one kernel against one measure, and a mixed-depth family viewed at
        # its deepest depth, (m, d^k), against (rows, 1, d^n) masses: each
        # image is its (row, kernel) pair's product, bit for bit
        rng = np.random.default_rng(seed)
        space = SPACES[d]
        make = kernel_with_a_negative_entry if negative else random_jacobian
        js = [make(space, min(k, depth + 1), rng) for k in kernel_depths]
        mus = [random_measure(space, depth, rng, spiky=spiky) for _ in range(rows)]
        one = dual_rows(space, js[0].values, mus[0].masses)
        assert one.shape == (d ** (depth + 1),)
        assert one.tobytes() == dual_image(js[0], mus[0]).tobytes()
        deepest = max(J.depth for J in js)
        got = dual_rows(space, np.array([J.at_depth(deepest) for J in js]),
                        np.array([mu.masses for mu in mus])[:, None])
        assert got.shape == (rows, len(js), d ** (depth + 1))
        for images, mu in zip(got, mus):
            for image, J in zip(images, js):
                want = dual_image(J, mu).tobytes()
                assert image.tobytes() == dual_apply(J, mu).masses.tobytes() == want

    def test_paired_dual_images_need_the_kernel_depth_precondition(self):
        kernels = np.full((1, 8), 0.5)   # depth 3, against a depth-1 measure
        with pytest.raises(ValueError, match="refine the measures first"):
            dual_rows(SPACE, kernels, np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize("d, kernels, masses, j, n", [
        (2, (2, 16), (3, 1, 4), 4, 2),
        (3, (3, 81), (2, 1, 9), 4, 2),
    ], ids=["d2", "d3"])
    def test_a_too_deep_family_against_a_batch_names_both_depths(self, d, kernels, masses,
                                                                 j, n):
        # a family of kernels against a batch of rows, as a level grows
        message = (rf"^kernel depth {j} exceeds measure depth {n} \+ 1; "
                   "refine the measures first$")
        with pytest.raises(ValueError, match=message):
            dual_rows(SPACES[d], np.full(kernels, 1 / d), np.full(masses, 1 / masses[-1]))

    @settings(max_examples=200, deadline=None)
    @given(d=st.sampled_from((2, 3)), depth=st.integers(0, 4),
           kernel_depth=st.integers(1, 3), spiky=st.booleans(), seed=SEEDS)
    def test_pushforward_undoes_the_dual_transfer(self, d, depth, kernel_depth,
                                                  spiky, seed):
        rng = np.random.default_rng(seed)
        J = random_jacobian(SPACES[d], min(kernel_depth, depth + 1), rng)
        mu = random_measure(SPACES[d], depth, rng, spiky=spiky)
        back = pushforward_apply(dual_apply(J, mu))
        assert back.depth == mu.depth
        assert np.abs(back.masses - mu.masses).max() <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(d=st.sampled_from((2, 3)), count=st.integers(1, 4),
           seed_depth=st.integers(0, 2), seed=SEEDS)
    def test_symbol_kernels_compose_to_the_product_measure(self, d, count,
                                                           seed_depth, seed):
        # depth-1 kernels are symbol distributions p_i: composing them on
        # nu0 gives p_1 x ... x p_count x nu0, and with one repeated kernel
        # from the trivial seed the product is shift invariant
        rng = np.random.default_rng(seed)
        space = SPACES[d]
        probs = [rng.dirichlet(np.ones(d)) for _ in range(count)]
        nu0 = random_measure(space, seed_depth, rng)
        js = [Jacobian(space, 1, p) for p in probs]
        rho = compose_duals(js, nu0, track_trace=False).measure
        product = functools.reduce(np.kron, probs + [nu0.masses])
        assert np.abs(rho.masses - product).max() <= 1e-15

        const = compose_duals([js[0]] * (count + 1), CylinderMeasure.trivial(space),
                              track_trace=False).measure
        shifted = pushforward_apply(const).masses
        assert np.abs(shifted - const.coarsen().masses).max() <= 1e-15


def bernoulli_family_build(m: int, seed_depth: int, n: int):
    """An attractor of m Bernoulli kernels from a depth-``seed_depth`` seed."""
    fam = WeightedJacobianFamily([make_bernoulli_jacobian(0.3, SPACE)] * m, [0.0] * m)
    return attractor_build(fam, n, CylinderMeasure.bernoulli(SPACE, [0.5, 0.5], seed_depth))


# name: (cells at a count, a call that sizes its table by that count, the
# largest count drawn), each with two more parameters: the lattice's d,
# the family's size and its seed's depth, the image's d
BUDGETS = {
    "lattice": (lambda d, _, m: comb(m + d - 1, d - 1) * d,
                lambda d, _, m: SimplexGrid(d, m), 1 << 26),
    "attractor": (lambda m, depth, n: m ** n * 2 ** (depth + n),
                  bernoulli_family_build, 200),
    "image": (lambda d, _, depth: d ** (depth + 1),
              lambda d, _, depth: check_contraction_bounds(0, 1, d, 0.5 / (d + 1), depth),
              200),
}


def gallop(value: int) -> list:
    """The counts 1, 2, 4, ... below ``value``, then ``value``."""
    return [1 << k for k in range(value.bit_length()) if 1 << k < value] + [value]


def first_over_budget(cells, value: int):
    """The first count of ``gallop(value)`` whose cells pass MAX_CELLS, or
    None if value fits."""
    return next((n for n in gallop(value) if cells(n) > MAX_CELLS), None)


class TestBudgets:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(0, 3000), cells=st.integers(1, 2000),
           block=st.sampled_from((1, 7, 128, 1000, shift.BLOCK_CELLS)))
    def test_row_blocks_cover_the_rows_once_in_order(self, rows, cells, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shift, "BLOCK_CELLS", block)
            blocks = list(row_blocks(rows, cells))
        sizes = [b.stop - b.start for b in blocks]
        assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(rows))
        assert all(b.step is None and b.stop > b.start for b in blocks)
        # only the last block is short
        full = max(1, block // cells)
        assert sizes[:-1] == [full] * (len(blocks) - 1)
        assert rows == 0 or 1 <= sizes[-1] <= full

    @settings(max_examples=150, deadline=None)
    @given(budget=st.sampled_from(sorted(BUDGETS)), a=st.integers(2, 6),
           b=st.integers(0, 10), data=st.data())
    def test_check_cells_suggests_the_largest_count_that_fits(self, budget, a, b, data):
        cells, build, top = BUDGETS[budget]
        value = data.draw(st.integers(1, top))
        need = cells(a, b, value)
        assume(need > MAX_CELLS)
        with pytest.raises(ValueError, match=f" cells, over the budget of "
                                             f"{MAX_CELLS}; use ") as err:
            build(a, b, value)
        K = int(re.search(r"<= (\d+)$", str(err.value)).group(1))
        assert cells(a, b, K) <= MAX_CELLS < cells(a, b, K + 1)
        # the need is exact up to twice the first count over the budget
        # among 1, 2, 4, ..., value, and past that a lower bound over it
        shown = re.search(r" needs (.*) cells, ", str(err.value)).group(1)
        if value <= 2 * first_over_budget(functools.partial(cells, a, b), value):
            assert shown == shift.count_text(need)
        else:
            bound = shown.removeprefix("at least ")
            low = 2 ** int(bound[2:]) if bound.startswith("2^") else int(bound)
            assert shown != bound and MAX_CELLS < low <= need

    @settings(max_examples=150, deadline=None)
    @given(budget=st.sampled_from(sorted(BUDGETS)), a=st.integers(2, 6),
           b=st.integers(0, 10), value=st.integers(0, 10 ** 12))
    def test_check_cells_reads_no_count_past_twice_the_first_over_budget(self, budget, a,
                                                                         b, value):
        cells = functools.partial(BUDGETS[budget][0], a, b)
        calls = []

        def recorded(n: int) -> int:
            calls.append(n)
            return cells(n)

        over = first_over_budget(cells, value)
        try:
            shift.check_cells("a table", "n", value, recorded, "it")
        except ValueError:
            assert over is not None
            assert max(calls) <= min(2 * over, value)
        else:
            assert over is None
            assert max(calls) == value
        # the search gallops from 1 up to the first count over the budget
        steps = gallop(value)
        steps = steps if over is None else steps[: steps.index(over) + 1]
        assert calls[: len(steps)] == steps

    def test_an_absurd_count_is_rejected_without_sizing_it(self):
        # 3^30000001 alone takes seconds to compute
        calls = []

        def cells(depth: int) -> int:
            calls.append(depth)
            return 3 ** (depth + 1)

        with pytest.raises(ValueError, match=r"^an image needs at least 5559060566555523 "
                                             r"cells, over the budget of 33554432; "
                                             r"use depth <= 14$"):
            shift.check_cells("an image", "depth", 30_000_000, cells, "d = 3")
        # 3^17 cells at depth 16 is the first count over the budget; the
        # bisection reads between 8 and 16, and the bound reads 32
        assert calls[:5] == [1, 2, 4, 8, 16] and calls[-1] == 32
        assert all(8 < depth < 16 for depth in calls[5:-1])
