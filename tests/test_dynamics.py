"""Tests for running-max Birkhoff sums and the large-deviation machinery."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    bootstrap_by_indices,
    maxplus_birkhoff,
    one_sample_c,
    worked_example_words,
)

from maxtherm import dynamics, shift
from maxtherm.dynamics import (
    BirkhoffReport,
    OrbitSampler,
    bernoulli_ldp_bound,
    birkhoff_limit_test,
    birkhoff_max_table,
    c_limit_exact,
    c_maxplus_convexity_check,
    c_n_exact,
    chebyshev_step_exact,
    ldp_upper_bound,
    log_event_probability,
    partition_function_mc,
)
from maxtherm.shift import DepthKFunction, ShiftSpace

SPACE = ShiftSpace(2, 0.3)
F_FIRST = DepthKFunction(SPACE, 1, [1.0, 0.0])   # indicator of first symbol 1
LOG2 = 0.6931471805599453


def running_max(f, orbit, n):
    """birkhoff_max_table on one orbit, checked against the window loop."""
    got = float(birkhoff_max_table(f, np.array([orbit]), n)[0])
    assert got == maxplus_birkhoff(f, orbit, n)
    return got


class TestBirkhoffMax:
    def test_single_window(self):
        assert running_max(F_FIRST, [2, 1, 2], 1) == 0.0
        assert running_max(F_FIRST, [1, 2, 2], 1) == 1.0

    def test_hit_at_step_two(self):
        assert running_max(F_FIRST, [2, 2, 1, 2], 3) == 1.0

    def test_all_twos_stays_zero(self):
        for n in (1, 5, 20):
            assert running_max(F_FIRST, [2] * (n + 3), n) == 0.0

    def test_depth2_windows(self):
        f = DepthKFunction(SPACE, 2, [0.0, 1.0, 2.0, 3.0])
        # windows of (2,1,2): (2,1) -> 2.0, (1,2) -> 1.0
        assert running_max(f, [2, 1, 2], 2) == 2.0

    def test_short_orbit_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            birkhoff_max_table(F_FIRST, np.array([[1, 2]]), 3)

    def test_symbols_outside_the_alphabet_rejected(self):
        # symbol 0 would give a negative code that wraps around the table
        f = DepthKFunction(ShiftSpace(3, 0.2), 2, [0.0] * 8 + [1.0])
        for orbit in ([1, 2, 2, 0], [1, 4, 2, 2]):
            with pytest.raises(ValueError, match="1..3"):
                birkhoff_max_table(f, np.array([orbit]), 3)

    def test_narrow_symbol_zero_rejected(self):
        # a uint8 0 minus 1 would wrap to 255 if the check came after it
        orbits = np.array([[1, 2, 0, 2]], dtype=np.uint8)
        with pytest.raises(ValueError, match="1..2"):
            birkhoff_max_table(F_FIRST, orbits, 2)

    @pytest.mark.parametrize("n", [0, -2])
    def test_fewer_than_one_window_rejected(self, n):
        with pytest.raises(ValueError, match=f"window count must be at least 1, got {n}"):
            birkhoff_max_table(F_FIRST, np.array([[1, 2, 1]]), n)

    def test_window_count_zero_rejected_by_sampling_paths(self):
        s = OrbitSampler.bernoulli([0.5, 0.5], n_orbits=10, seed=0)
        with pytest.raises(ValueError, match="window count must be at least 1, got 0"):
            birkhoff_limit_test(s, F_FIRST, 0)
        with pytest.raises(ValueError, match="window count must be at least 1, got 0"):
            partition_function_mc(s, F_FIRST, -0.2, 0)

    @pytest.mark.parametrize(
        "orbits, message",
        [
            (np.array([[1.0, 2.0, 1.0]]), "must be integers, got dtype float64"),
            (np.array([[True, True, True]]), "must be integers, got dtype bool"),
            (np.array([1, 2, 1]), r"2-D table with at least one row, got \(3,\)"),
            (np.zeros((0, 3), dtype=np.int64), r"at least one row, got \(0, 3\)"),
        ],
        ids=["float", "bool", "1-D", "no rows"],
    )
    def test_malformed_orbit_tables_rejected(self, orbits, message):
        with pytest.raises(ValueError, match=message):
            birkhoff_max_table(F_FIRST, orbits, 2)

    def test_wide_unsigned_symbols_read(self):
        orbits = np.array([[2, 1, 2], [2, 2, 2]], dtype=np.uint64)
        assert birkhoff_max_table(F_FIRST, orbits, 3).tolist() == [1.0, 0.0]


class TestSampler:
    def test_bernoulli_reproducible(self):
        s1 = OrbitSampler.bernoulli([0.5, 0.5], n_orbits=10, seed=3)
        s2 = OrbitSampler.bernoulli([0.5, 0.5], n_orbits=10, seed=3)
        assert np.array_equal(s1.sample(50), s2.sample(50))

    @pytest.mark.parametrize("n_orbits", [0, -4])
    def test_fewer_than_one_orbit_rejected(self, n_orbits):
        with pytest.raises(ValueError, match=f"n_orbits must be at least 1, got {n_orbits}"):
            OrbitSampler.bernoulli([0.5, 0.5], n_orbits=n_orbits, seed=0)
        with pytest.raises(ValueError, match="n_orbits must be at least 1"):
            OrbitSampler.markov([[0.5, 0.5], [0.5, 0.5]], n_orbits=n_orbits, seed=0)

    @pytest.mark.parametrize("name, n_orbits, seed", [
        ("n_orbits", 2.7, 0), ("n_orbits", 3.0, 0), ("n_orbits", "3", 0),
        ("seed", 10, 1.5), ("seed", 10, np.float64(2.0)),
    ])
    def test_non_integer_orbit_count_or_seed_rejected(self, name, n_orbits, seed):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            OrbitSampler.bernoulli([0.5, 0.5], n_orbits, seed)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            OrbitSampler.markov([[0.5, 0.5], [0.5, 0.5]], n_orbits, seed)

    @pytest.mark.parametrize("name, n_orbits, seed", [
        ("n_orbits", True, 0), ("seed", 10, False), ("n_orbits", np.True_, 0),
    ])
    def test_bool_orbit_count_or_seed_rejected(self, name, n_orbits, seed):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got"):
            OrbitSampler([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], n_orbits, seed)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            OrbitSampler.bernoulli([0.5, 0.5], n_orbits, seed)

    def test_numpy_integers_accepted(self):
        s = OrbitSampler.bernoulli([0.5, 0.5], np.int64(3), np.uint32(7))
        assert s.n_orbits == 3 and s.seed == 7
        assert np.array_equal(s.sample(5), OrbitSampler.bernoulli([0.5, 0.5], 3, 7).sample(5))

    @pytest.mark.parametrize("markov", [False, True], ids=["bernoulli", "markov"])
    def test_length_zero_gives_empty_rows_and_negative_is_rejected(self, markov):
        s = _sampler(2, 4, 0, markov)
        empty = s.sample(0)
        assert empty.shape == (4, 0) and empty.dtype == np.uint8
        with pytest.raises(ValueError, match="orbit length must be at least 0, got -1"):
            s.sample(-1)
        # before any block is asked for
        with pytest.raises(ValueError, match="orbit length must be at least 0, got -1"):
            s.steps(-1)
        assert list(s.steps(0)) == []

    def test_markov_rows_and_stationarity(self):
        P = np.array([[0.9, 0.1], [0.4, 0.6]])
        s = OrbitSampler.markov(P, n_orbits=4000, seed=5)
        assert s.positive_on_cylinders
        orbits = s.sample(200)
        freq1 = (orbits == 1).mean()
        assert freq1 == pytest.approx(s.probs[0], abs=0.02)

    @pytest.mark.parametrize("transition", [
        [[0.6, 0.4], [0.3, 0.7 - 5e-13]],
        # its stationary vector sums to 0.9999999999999998
        [[0.2, 0.8, 0.0], [0.0, 0.3, 0.7], [0.9, 0.0, 0.1]],
    ], ids=["row", "start"])
    def test_largest_uniform_draws_the_last_symbol(self, monkeypatch, transition):
        """Rows within the normalization tolerance below 1 still end on
        symbol d when the generator returns its largest value, 1 - 2^-53."""
        class TopGenerator:
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        s = OrbitSampler.markov(transition, 4, 0)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: TopGenerator())
        assert s.sample(3).tolist() == [[s.d] * 3] * 4

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            OrbitSampler.bernoulli([0.7, 0.7], 10, 0)
        with pytest.raises(ValueError):
            OrbitSampler.markov(np.array([[0.5, 0.4], [0.5, 0.5]]), 10, 0)

    def test_degenerate_sampler_rejected_by_limit_test(self):
        s = OrbitSampler.bernoulli([1.0, 0.0], n_orbits=10, seed=0)
        with pytest.raises(ValueError, match="positive"):
            birkhoff_limit_test(s, F_FIRST, length=100)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_sampler_on_another_alphabet_rejected_by_limit_test(self, depth):
        s = OrbitSampler.bernoulli([0.5, 0.5], n_orbits=10, seed=0)
        f = DepthKFunction(ShiftSpace(3, 0.2), depth, [0.0] * (3 ** depth - 1) + [1.0])
        with pytest.raises(ValueError, match="sampler draws 2 symbols but f reads 3"):
            birkhoff_limit_test(s, f, length=20)

    def test_sampler_on_another_alphabet_rejected_by_partition_mc(self):
        s = OrbitSampler.bernoulli([0.2, 0.3, 0.5], n_orbits=10, seed=0)
        with pytest.raises(ValueError, match="sampler draws 3 symbols but f reads 2"):
            partition_function_mc(s, F_FIRST, -0.2, 5)


def _inline_limit_report(sampler, f, length, tol=1e-9):
    """birkhoff_limit_test over the whole orbit table at once, with its
    window codes and depth-0 table built in place, and for depth <= 1 the
    miss probability summed over every word of `length` symbols below the
    sup, or None past 3^8 words, too many to enumerate."""
    k = max(f.depth, 1)
    orbits = sampler.sample(length + k - 1)
    sup_f = float(f.values.max())
    codes = np.zeros((orbits.shape[0], length), dtype=np.int64)
    for j in range(k):
        codes = codes * sampler.d + (orbits[:, j : j + length] - 1)
    table = f.values if f.depth > 0 else np.repeat(f.values, sampler.d)
    hit = table[codes] >= sup_f - tol
    attained = hit.any(axis=1)
    first = np.where(attained, hit.argmax(axis=1) + 1, length + 1)
    if f.depth <= 1 and sampler.d ** length > 3 ** 8:
        miss = None
    elif f.depth <= 1:
        words = np.array(list(itertools.product(range(sampler.d), repeat=length)))
        words = words[(table[words] < sup_f - tol).all(axis=1)]
        steps = sampler.transition[words[:, :-1], words[:, 1:]].prod(axis=1)
        miss = float((sampler.probs[words[:, 0]] * steps).sum())
    else:
        miss = float(1.0 - attained.mean())
    return BirkhoffReport(
        sup_value=sup_f,
        attained_fraction=float(attained.mean()),
        first_hit_mean=float(first[attained].mean()) if attained.any() else np.inf,
        miss_probability_estimate=miss,
    )


def _assert_same_report(got, want):
    """The sampled fields exactly, the miss probability to rounding where
    the oracle has one."""
    assert (got.sup_value, got.attained_fraction, got.first_hit_mean) == (
        want.sup_value, want.attained_fraction, want.first_hit_mean
    )
    if want.miss_probability_estimate is None:
        return
    assert got.miss_probability_estimate == pytest.approx(
        want.miss_probability_estimate, rel=1e-12, abs=0.0
    )


class TestBirkhoffLimit:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_report_equals_the_inline_window_code(self, depth):
        rng = np.random.default_rng(40 + depth)
        samplers = [
            OrbitSampler.bernoulli([0.3, 0.7], n_orbits=60, seed=depth),
            OrbitSampler.markov([[0.2, 0.8], [0.6, 0.4]], n_orbits=60, seed=depth),
        ]
        for sampler in samplers:
            for length in (1, 3, 12):
                # few distinct values, so ties at the sup and misses occur
                f = DepthKFunction(SPACE, depth, rng.integers(0, 3, 2 ** depth) / 2)
                _assert_same_report(
                    birkhoff_limit_test(sampler, f, length),
                    _inline_limit_report(sampler, f, length),
                )

    def test_fair_coin_attains_quickly(self):
        s = OrbitSampler.bernoulli([0.5, 0.5], n_orbits=100, seed=7)
        rep = birkhoff_limit_test(s, F_FIRST, length=200)
        assert rep.sup_value == 1.0
        assert rep.attained_fraction == 1.0
        assert rep.miss_probability_estimate == pytest.approx(0.5 ** 200)
        assert rep.first_hit_mean < 5.0

    def test_constant_observable_attains_at_one(self):
        s = OrbitSampler.bernoulli([0.5, 0.5], n_orbits=20, seed=8)
        f = DepthKFunction(SPACE, 0, [2.5])
        rep = birkhoff_limit_test(s, f, length=10)
        assert rep.attained_fraction == 1.0
        assert rep.first_hit_mean == 1.0

    def test_drawing_stops_once_every_orbit_has_hit(self, monkeypatch):
        """Every orbit hits a constant f at its first window, so of 10^6
        steps only the first block is drawn: one uniform per orbit a step."""
        draws = []
        make = np.random.default_rng

        class CountingGenerator:
            def __init__(self, seed):
                self.rng = make(seed)

            def random(self, size):
                draws.append(size)
                return self.rng.random(size)

        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        s = OrbitSampler.markov([[0.2, 0.8], [0.6, 0.4]], n_orbits=50, seed=8)
        rep = birkhoff_limit_test(s, DepthKFunction(SPACE, 0, [2.5]), length=10 ** 6)
        assert (rep.attained_fraction, rep.first_hit_mean) == (1.0, 1.0)
        assert 1 <= len(draws) <= dynamics.STEP_BLOCK
        assert set(draws) == {50}


def _markov_reference(sampler, length):
    """The sampler's draws written into an int64 table, one step column at a
    time, by a whole-row gather and compare per step."""
    rng = np.random.default_rng(sampler.seed)
    orbits = np.empty((sampler.n_orbits, length), dtype=np.int64)
    cum0 = np.cumsum(sampler.probs)
    orbits[:, 0] = np.searchsorted(cum0, rng.random(sampler.n_orbits)) + 1
    cum = np.cumsum(sampler.transition, axis=1)
    for t in range(1, length):
        u = rng.random(sampler.n_orbits)
        orbits[:, t] = (cum[orbits[:, t - 1] - 1] < u[:, None]).sum(axis=1) + 1
    return orbits


def _sampler(d, rows, seed, markov):
    rng = np.random.default_rng(seed)
    if markov:
        return OrbitSampler.markov(rng.dirichlet(np.ones(d), size=d), rows, seed)
    return OrbitSampler.bernoulli(rng.dirichlet(np.ones(d)), rows, seed)


def _traced_peak(call):
    """Peak bytes traced by tracemalloc while call() runs."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()


def near_multiples(blocks):
    """(block, count) with the count just below, at or just past a multiple
    of the block."""
    return st.tuples(
        st.sampled_from(blocks), st.integers(1, 3), st.sampled_from((-1, 0, 1))
    ).map(lambda t: (t[0], max(1, t[0] * t[1] + t[2])))


block_rows = near_multiples((1, 3, 7))
block_steps = near_multiples((1, 3, 7, dynamics.STEP_BLOCK))


class TestRowBlocks:
    @settings(max_examples=100, deadline=None)
    @given(block_rows=block_rows, d=st.sampled_from((2, 3)), depth=st.integers(0, 3),
           n=st.integers(1, 8), seed=st.integers(0, 2 ** 16))
    def test_max_table_equals_the_window_by_window_max(self, block_rows, d, depth, n,
                                                       seed):
        block, rows = block_rows
        rng = np.random.default_rng(seed)
        f = DepthKFunction(ShiftSpace(d, 0.2), depth, rng.integers(0, 3, d ** depth) / 2)
        orbits = rng.integers(1, d + 1, (rows, n + max(depth, 1) - 1)).astype(np.uint8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shift, "BLOCK_CELLS", block * n)
            got = birkhoff_max_table(f, orbits, n)
        assert got.tolist() == [maxplus_birkhoff(f, row.tolist(), n) for row in orbits]

    @settings(max_examples=150, deadline=None)
    @given(block_steps=block_steps, d=st.sampled_from((2, 3)), depth=st.integers(0, 3),
           rows=st.integers(1, 12), seed=st.integers(0, 2 ** 16), markov=st.booleans())
    def test_limit_report_equals_the_inline_window_code(self, block_steps, d, depth,
                                                        rows, seed, markov):
        """The streamed report, with its carried steps and early stop, is the
        whole table's, at window counts around multiples of the step block."""
        block, length = block_steps
        sampler = _sampler(d, rows, seed, markov)
        rng = np.random.default_rng(seed)
        f = DepthKFunction(ShiftSpace(d, 0.2), depth, rng.integers(0, 3, d ** depth) / 2)
        # the oracle draws with the default block, so the draws are compared too
        want = _inline_limit_report(sampler, f, length)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "STEP_BLOCK", block)
            _assert_same_report(birkhoff_limit_test(sampler, f, length), want)

    # 256 steps is one block longer than the orbits
    @pytest.mark.parametrize("block", [1, 3, 7, 256])
    @pytest.mark.parametrize("d", [2, 3, 300])
    @pytest.mark.parametrize("markov", [False, True], ids=["bernoulli", "markov"])
    def test_draws_are_pinned(self, monkeypatch, block, d, markov):
        monkeypatch.setattr(dynamics, "STEP_BLOCK", block)
        sampler = _sampler(d, 15, 23, markov)
        got = sampler.sample(6)
        want = _markov_reference(sampler, 6)
        assert got.dtype == (np.uint8 if d <= 255 else np.uint16)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("d", [2, 3, 300])
    @pytest.mark.parametrize("markov", [False, True], ids=["bernoulli", "markov"])
    def test_step_blocks_stack_to_the_sample(self, extra, d, markov):
        sampler = _sampler(d, 15, 37, markov)
        length = dynamics.STEP_BLOCK + extra
        blocks = list(sampler.steps(length))
        assert [len(b) for b in blocks] == (
            [length] if extra <= 0 else [dynamics.STEP_BLOCK, extra]
        )
        stacked = np.concatenate(blocks)
        sample = sampler.sample(length)
        assert stacked.dtype == sample.dtype == (np.uint8 if d <= 255 else np.uint16)
        assert np.array_equal(stacked, sample.T)
        assert np.array_equal(sample, _markov_reference(sampler, length))

    @pytest.mark.parametrize("d, depth", [(2, 8), (16, 2), (3, 6)])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint16])
    def test_two_byte_codes_read_the_window_by_window_max(self, d, depth, dtype):
        """d^depth = 256 or 729 takes uint16 codes and ranks; the rows of
        all d reach the top code, d^depth - 1."""
        assert np.min_scalar_type(d ** depth) == np.uint16
        rng = np.random.default_rng(d * depth)
        # few distinct values, so ranks break ties
        f = DepthKFunction(ShiftSpace(d, 0.01), depth, rng.integers(0, 40, d ** depth) / 4)
        n = 20
        orbits = rng.integers(1, d + 1, (shift.BLOCK_CELLS // n + 44, n + depth - 1))
        orbits[::50] = d
        orbits = orbits.astype(dtype)
        got = birkhoff_max_table(f, orbits, n)
        assert got.tolist() == [maxplus_birkhoff(f, row.tolist(), n) for row in orbits]

    @pytest.mark.parametrize("markov", [False, True], ids=["bernoulli", "markov"])
    def test_sample_allocates_only_its_table(self, markov):
        """The uniforms are drawn one step at a time: a block of 256 steps
        at 4,000 orbits would take 7.8 MiB."""
        sampler = _sampler(2, 4000, 31, markov)
        assert _traced_peak(lambda: sampler.sample(1000)) <= 4000 * 1000 + 2 ** 20

    @pytest.mark.parametrize("markov", [False, True], ids=["bernoulli", "markov"])
    def test_limit_test_allocates_no_whole_table_temporary(self, markov):
        """4,000 x 1,000 orbits take 3.8 MiB as uint8, and their whole-table
        int64 codes or float64 window values 30.5 MiB each; with all three
        the traced peak was about 122 MiB."""
        sampler = _sampler(2, 4000, 29, markov)
        f = DepthKFunction(SPACE, 3, np.linspace(0.0, 1.0, 8))
        assert _traced_peak(lambda: birkhoff_limit_test(sampler, f, 998)) < 32 * 2 ** 20

    @pytest.mark.parametrize("markov", [False, True], ids=["bernoulli", "markov"])
    def test_streamed_limit_test_holds_no_orbit_table(self, markov):
        """Symbol 2 is rare, so most orbits never see the sup word 222 and
        all 1,000 steps are drawn; the traced peak stays below a quarter
        of the 4,000 x 1,000 uint8 orbit table."""
        if markov:
            sampler = OrbitSampler.markov([[0.999, 0.001], [0.5, 0.5]], 4000, 29)
        else:
            sampler = OrbitSampler.bernoulli([0.999, 0.001], 4000, 29)
        f = DepthKFunction(SPACE, 3, [0.0] * 7 + [1.0])
        assert birkhoff_limit_test(sampler, f, 998).attained_fraction < 1.0
        assert _traced_peak(lambda: birkhoff_limit_test(sampler, f, 998)) < 4000 * 1000 / 4


class TestPartitionFunction:
    def test_half_log2_plugin(self):
        # at n = 1: 1/2 + 1/2 * exp(-log 2) = 3/4
        val = c_n_exact(0.5, np.log(2.0), 1)
        assert np.exp(val) == pytest.approx(0.75, abs=1e-15)
        assert val == pytest.approx(-0.2876820724517809, abs=1e-14)

    def test_t_zero_is_one(self):
        for n in (1, 7, 30):
            assert np.exp(n * c_n_exact(0.37, 0.0, n)) == pytest.approx(1.0, abs=1e-14)
            assert c_n_exact(0.37, 0.0, n) == pytest.approx(0.0, abs=1e-14)

    def test_direct_cylinder_summation_oracle(self):
        # the worked example's 2^n words one at a time, at 20 random draws
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = float(rng.uniform(0.1, 0.9))
            t = float(rng.uniform(0.0, 2.0))
            n = int(rng.integers(1, 12))
            total = sum(mass * np.exp(-n * t * m) for mass, m in worked_example_words(p, n))
            assert np.exp(n * c_n_exact(p, t, n)) == pytest.approx(total, abs=1e-12)

    def test_huge_negative_t_stays_finite(self):
        # n |t| is far past the float range, but c_n(1e306) ~ 1e306
        assert c_n_exact(0.5, -1e306, 2000) == pytest.approx(1e306, rel=1e-12)
        assert c_n_exact(0.5, 1e306, 2000) == np.log(0.5)

    @pytest.mark.parametrize("p", [0.0, 1.0, 2.0, -0.5, np.nan])
    def test_p_outside_the_open_unit_interval_rejected(self, p):
        for call in (lambda: c_n_exact(p, 0.1, 10), lambda: c_limit_exact(p, 0.1),
                     lambda: bernoulli_ldp_bound(p, 0.5),
                     lambda: log_event_probability(p, 0.5, 10),
                     lambda: chebyshev_step_exact(p, 0.1, 0.5, 10)):
            with pytest.raises(ValueError, match=r"p must lie in \(0, 1\)"):
                call()

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
            c_n_exact(0.5, 0.2, n)
        with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
            log_event_probability(0.5, 0.5, n)

    def test_c_n_limit(self):
        # at p = 0.5, t = 0.2 the limit is max(-0.2, log 0.5) = -0.2
        assert c_limit_exact(0.5, 0.2) == pytest.approx(-0.2)
        assert c_n_exact(0.5, 0.2, 2000) == pytest.approx(-0.2, abs=0.01)
        # deep in the other regime the limit is log p
        assert c_limit_exact(0.5, 3.0) == pytest.approx(np.log(0.5))
        assert c_n_exact(0.5, 3.0, 2000) == pytest.approx(np.log(0.5), abs=0.01)

    def test_mc_matches_exact_within_ci(self):
        p, t, n = 0.5, 0.3, 10
        sampler = OrbitSampler.bernoulli([1 - p, p], n_orbits=100_000, seed=11)
        est = partition_function_mc(sampler, F_FIRST, -t, n)
        exact = c_n_exact(p, t, n)
        assert est.ci_low <= exact <= est.ci_high
        assert est.value == pytest.approx(exact, abs=5e-3)

    def test_mc_nonnegative_t_tends_to_sup(self):
        sampler = OrbitSampler.bernoulli([0.5, 0.5], n_orbits=20_000, seed=12)
        est = partition_function_mc(sampler, F_FIRST, 1.0, 60)
        assert est.value == pytest.approx(1.0, abs=0.01)   # t * sup f = 1

    def test_mc_lower_bound_at_negative_t(self):
        # c(-t) >= -t * sup f at finite n
        sampler = OrbitSampler.bernoulli([0.5, 0.5], n_orbits=20_000, seed=13)
        t = 0.4
        est = partition_function_mc(sampler, F_FIRST, -t, 40)
        assert est.value >= -t * 1.0 - 1e-9

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_t_rejected(self, t):
        sampler = OrbitSampler.bernoulli([0.5, 0.5], n_orbits=100, seed=13)
        with pytest.raises(ValueError, match="t must be a finite number"):
            partition_function_mc(sampler, F_FIRST, t, 5)
        with pytest.raises(ValueError, match="t must be a finite number"):
            c_n_exact(0.5, t, 10)
        with pytest.raises(ValueError, match="t must be a finite number"):
            c_limit_exact(0.5, t)


class TestPartitionBootstrap:
    """The interval bootstraps the counts of the distinct running maxes; the
    index resample it replaced is ``oracles.bootstrap_by_indices``."""

    @pytest.mark.parametrize("d, depth, t, n, seed", [
        (2, 1, -0.3, 10, 11), (2, 1, 1.0, 60, 12), (3, 2, -0.7, 7, 5), (3, 0, 0.4, 3, 6),
    ])
    def test_value_is_the_log_mean_exp_of_the_maxes(self, d, depth, t, n, seed):
        rng = np.random.default_rng(seed)
        f = DepthKFunction(ShiftSpace(d, 0.2), depth, rng.uniform(-1, 2, d ** depth))
        sampler = OrbitSampler.bernoulli(np.full(d, 1 / d), n_orbits=3000, seed=seed)
        maxes = birkhoff_max_table(f, sampler.sample(n + max(depth, 1) - 1), n)
        est = partition_function_mc(sampler, f, t, n)
        assert est.value == dynamics._log_mean_exp(n * t * maxes) / n
        assert est.ci_low <= est.ci_high

    def test_one_seed_one_estimate_and_other_seeds_other_intervals(self):
        def estimate(seed):
            sampler = OrbitSampler.bernoulli([0.5, 0.5], n_orbits=2000, seed=seed)
            return partition_function_mc(sampler, F_FIRST, -0.3, 6)

        assert estimate(3) == estimate(3)
        intervals = {(est.ci_low, est.ci_high) for est in map(estimate, range(8))}
        assert len(intervals) == 8

    @settings(max_examples=200, deadline=None)
    @given(
        levels=st.lists(st.floats(-50, 50), min_size=1, max_size=64, unique=True),
        gap=st.sampled_from([0.0, 800.0]),
        drop=st.one_of(st.none(), st.integers(0, 63)),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    # the resample misses the top level, 801 above the other: shifted by
    # the sample's top level alone, exp(-801) would underflow to log 0
    @example(levels=[0.0, -1.0], gap=800.0, drop=1, seed=0)
    def test_counts_give_the_index_resample_statistic(self, levels, gap, drop, seed):
        rng = np.random.default_rng(seed)
        levels = np.array(levels)
        levels[levels.argmax()] += gap
        expo = rng.permutation(np.repeat(levels, rng.integers(1, 4, levels.size)))
        values, labels = np.unique(expo, return_inverse=True)
        if drop is not None and values.size > 1:
            idx = rng.choice(np.flatnonzero(labels != drop % values.size), expo.size)
        else:
            idx = rng.integers(0, expo.size, expo.size)
        counts = np.bincount(labels[idx], minlength=values.size)
        assert drop is None or values.size == 1 or counts.min() == 0
        want = bootstrap_by_indices(expo, 1, [idx])[0]
        assert np.isfinite(want)
        assert abs(dynamics._log_mean_exp_counts(values, counts) - want) <= 1e-12

    def test_coverage_matches_the_index_bootstrap(self):
        # the two bootstraps draw resample counts from one law, so over 200
        # seeds their intervals cover the exact c_6(-0.3) about as often
        p, t, n = 0.5, 0.3, 6
        exact = c_n_exact(p, t, n)
        covered = {"counts": 0, "indices": 0}
        for seed in range(200):
            sampler = OrbitSampler.bernoulli([1 - p, p], n_orbits=1000, seed=seed)
            est = partition_function_mc(sampler, F_FIRST, -t, n)
            covered["counts"] += est.ci_low <= exact <= est.ci_high
            expo = -n * t * birkhoff_max_table(F_FIRST, sampler.sample(n), n)
            rng = np.random.default_rng(seed + 0x9E3779B9)
            boots = bootstrap_by_indices(
                expo, n, [rng.integers(0, expo.size, expo.size) for _ in range(200)]
            )
            lo, hi = np.quantile(boots, [0.025, 0.975])
            covered["indices"] += lo <= exact <= hi
        assert min(covered.values()) >= 180
        assert abs(covered["counts"] - covered["indices"]) <= 10


class TestLdpBound:
    def test_bernoulli_closed_form(self):
        p, b = 0.5, 0.5
        t_star, bound = bernoulli_ldp_bound(p, b)
        assert t_star == pytest.approx(-np.log(p), abs=1e-8)
        assert bound == pytest.approx((1 - b) * np.log(p), abs=1e-8)

    def test_threshold_to_zero_recovers_log_p(self):
        p = 0.3
        _, bound = bernoulli_ldp_bound(p, 1e-9)
        assert bound == pytest.approx(np.log(p), abs=1e-6)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError, match="below sup"):
            ldp_upper_bound(lambda t: max(-t, np.log(0.5)), 1.5, sup_f=1.0, t_max=5.0)

    @pytest.mark.parametrize("b, t_max, message", [
        (0.5, -3.0, "t_max must be at least 0, got -3.0"),
        (0.5, np.nan, "t_max must be a finite number"),
        (0.5, np.inf, "t_max must be a finite number"),
        (np.nan, 5.0, "b must be a finite number"),
    ])
    def test_invalid_search_interval_rejected(self, b, t_max, message):
        # unchecked, t_max = -3 gave the minimizer -1.5 and a false bound 0.75
        with pytest.raises(ValueError, match=message):
            ldp_upper_bound(lambda t: c_limit_exact(0.5, t), b, sup_f=1.0,
                            t_max=t_max)

    def test_generic_convex_objective(self):
        # smooth strictly convex case with a calculus solution:
        # minimize t b + t^2 / 2 at t = -b -- but t >= 0 pins it at 0 for
        # b > 0; use c(-t) = t^2/2 - t so the minimum is at t = 1 - b
        b = 0.25
        t_star, bound = ldp_upper_bound(
            lambda t: t ** 2 / 2 - t, b, sup_f=1.0, t_max=5.0
        )
        assert t_star == pytest.approx(1 - b, abs=1e-7)
        assert bound == pytest.approx(b * (1 - b) + (1 - b) ** 2 / 2 - (1 - b),
                                      abs=1e-10)


class TestEmpiricalRate:
    """The decay rate at n is (1/n) log P(max-sum <= b), from the event law."""

    def test_rate_is_log_p_at_every_n(self):
        for n in (1, 2, 5, 10, 100, 5000):
            rate = log_event_probability(0.5, 0.5, n) / n
            assert rate == pytest.approx(np.log(0.5), abs=1e-12)

    def test_explicit_n10_value(self):
        rate = log_event_probability(0.5, 0.5, 10) / 10
        assert rate == pytest.approx(np.log(0.5 ** 10) / 10, abs=1e-15)

    def test_strict_gap_to_bound(self):
        _, bound = bernoulli_ldp_bound(0.5, 0.5)
        assert log_event_probability(0.5, 0.5, 10) / 10 < bound
        assert bound == pytest.approx(0.5 * np.log(0.5), abs=1e-8)

    def test_threshold_above_sup_gives_zero_rate(self):
        assert [log_event_probability(0.4, 1.5, n) for n in (3, 7)] == [0.0, 0.0]

    def test_nan_threshold_rejected(self):
        # NaN fails both b < 0 and b < 1, so unchecked it read as b >= 1
        with pytest.raises(ValueError, match="b must be a number, got nan"):
            log_event_probability(0.5, np.nan, 3)
        with pytest.raises(ValueError, match="b must be a number, got nan"):
            chebyshev_step_exact(0.5, 0.1, np.nan, 3)


class TestChebyshevStep:
    def test_exact_inequality_in_the_example(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            p = float(rng.uniform(0.1, 0.9))
            b = float(rng.uniform(0.05, 0.95))
            t = float(rng.uniform(0.0, 3.0))
            n = int(rng.integers(1, 20))
            prob, bound = chebyshev_step_exact(p, t, b, n)
            assert prob <= bound + 1e-12

    def test_zero_threshold_is_the_all_two_cylinder(self):
        # max-sum <= 0 only on the all-2 cylinder, as for 0 < b < 1
        p, n = 0.5, 4
        for t in (0.0, 0.7, 3.0):
            prob, bound = chebyshev_step_exact(p, t, 0.0, n)
            assert prob == p ** n == 0.0625
            assert prob <= bound


class TestWordLoopOracle:
    """The closed forms against the worked example's 2^n words, one at a
    time (``oracles.worked_example_words``)."""

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(0.01, 0.99), t=st.floats(-5.0, 5.0), n=st.integers(1, 10))
    def test_closed_forms_match_the_word_loop(self, p, t, n):
        words = worked_example_words(p, n)
        total = sum(mass * np.exp(-n * t * m) for mass, m in words)
        assert np.exp(n * c_n_exact(p, t, n)) == pytest.approx(total, rel=1e-12)
        for b in (-0.5, 0.0, 0.5, 1.0, 1.5):
            event = sum(mass for mass, m in words if m <= b)
            assert np.exp(log_event_probability(p, b, n)) == pytest.approx(event, rel=1e-12)
            if t >= 0:
                prob, bound = chebyshev_step_exact(p, t, b, n)
                assert prob <= bound * (1 + 1e-12)


class TestMaxPlusConvexity:
    @staticmethod
    def sampled(sampler, f, n):
        """c_n over one seeded sample: every call draws the same orbits."""
        return lambda u: partition_function_mc(sampler, f, u, n).value

    def test_equal_arguments(self):
        sampler = OrbitSampler.bernoulli([0.5, 0.5], n_orbits=2000, seed=15)
        f = DepthKFunction(SPACE, 1, [2.0, 1.0])   # f >= 1
        rep = c_maxplus_convexity_check(self.sampled(sampler, f, 30), s=0.4, t=0.4,
                                        alpha=0.0, beta=-0.3)
        assert rep.equality_residual <= 1e-12
        assert rep.convexity_slack >= -1e-12

    def test_degenerate_weight(self):
        sampler = OrbitSampler.bernoulli([0.5, 0.5], n_orbits=2000, seed=16)
        f = DepthKFunction(SPACE, 1, [2.0, 1.0])
        rep = c_maxplus_convexity_check(self.sampled(sampler, f, 25), s=0.7, t=0.2,
                                        alpha=0.0, beta=-np.inf)
        assert rep.convexity_slack >= -1e-15

    def test_closed_form_shifted_example(self):
        # shifting f up by 1 shifts c by t: c_new(u) = max(u, log p) + u
        p = 0.4
        c_shifted = lambda u: max(u, np.log(p)) + u
        rep = c_maxplus_convexity_check(c_shifted, s=-0.8, t=0.3, alpha=0.0, beta=-0.5)
        assert rep.equality_residual <= 1e-12
        assert rep.convexity_slack >= -1e-12

    @pytest.mark.parametrize("s, t, alpha, beta, reads", [
        (0.4, 0.2, 0.0, -0.3, [0.4, 0.2]),      # the joint argument is t
        (0.4, 0.2, 0.0, -0.1, [0.4, 0.2, 0.30000000000000004]),
        (0.3, 0.3, -0.5, 0.0, [0.3]),            # s = t = the joint argument
        (0.7, 0.2, 0.0, -np.inf, [0.7, 0.2]),
    ])
    def test_reads_c_once_per_distinct_argument(self, s, t, alpha, beta, reads):
        calls = []
        rep = c_maxplus_convexity_check(lambda u: calls.append(u) or 2.0 * u,
                                        s, t, alpha, beta)
        assert calls == reads
        assert rep.holds

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(2, 3), depth=st.integers(0, 2), n=st.integers(1, 60),
           seed=st.integers(0, 2 ** 32), data=st.data())
    def test_sampled_c_is_the_one_sample_oracle(self, d, depth, n, seed, data):
        """``partition_function_mc``'s value is the one-sample c bit for bit,
        and over it, for f >= 1, the equality holds exactly and convexity up
        to rounding: at f = 1, where it is tight, beta + c(s) can round one
        ulp below c(beta + s)."""
        cells = d ** depth
        f = DepthKFunction(ShiftSpace(d, 0.5 / (d + 1)), depth, data.draw(
            st.lists(st.floats(1.0, 20.0), min_size=cells, max_size=cells)))
        probs = np.random.default_rng(seed).dirichlet(np.ones(d))
        sampler = OrbitSampler.bernoulli(probs, n_orbits=40, seed=seed)
        u = data.draw(st.floats(-1e3, 1e3))
        assert partition_function_mc(sampler, f, u, n).value == one_sample_c(f, sampler, u, n)
        s, t = data.draw(st.floats(-5.0, 5.0)), data.draw(st.floats(-5.0, 5.0))
        weight = data.draw(st.one_of(st.floats(-5.0, 0.0), st.just(-np.inf)))
        alpha, beta = data.draw(st.sampled_from([(0.0, weight), (weight, 0.0)]))
        rep = c_maxplus_convexity_check(self.sampled(sampler, f, n), s, t, alpha, beta)
        assert rep.equality_residual == 0.0
        assert rep.holds

    @pytest.mark.parametrize("s, t", [(np.nan, 0.2), (0.1, np.inf), (-np.inf, 0.2)])
    def test_non_finite_arguments_rejected(self, s, t):
        name = "s" if not np.isfinite(s) else "t"
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            c_maxplus_convexity_check(lambda u: u, s, t, 0.0, -1.0)

    @pytest.mark.parametrize("alpha, beta", [(0.0, np.nan), (np.nan, 0.0), (np.nan, -np.inf)])
    def test_nan_weight_rejected(self, alpha, beta):
        """max(0.0, nan) is 0.0, so a NaN weight passed the normalization
        test and the report held with both residuals 0."""
        sampler = OrbitSampler.bernoulli([0.5, 0.5], n_orbits=100, seed=19)
        f = DepthKFunction(SPACE, 1, [2.0, 1.0])
        for c in (self.sampled(sampler, f, 50), lambda u: max(u, np.log(0.4)) + u):
            with pytest.raises(ValueError, match=r"max-plus weights must be real or -inf, "
                                                 r"not NaN or \+inf"):
                c_maxplus_convexity_check(c, 0.4, 0.2, alpha, beta)

    def test_minus_infinite_weight_is_bottom_in_closed_form(self):
        rep = c_maxplus_convexity_check(lambda u: max(u, np.log(0.4)) + u,
                                        0.4, 0.2, 0.0, -np.inf)
        assert rep.holds

    def test_weights_within_tolerance_of_zero_are_zero(self):
        """The weights are an idempotent probability, so they share its
        tolerance: a largest weight of -1e-13 is 0."""
        c = lambda u: max(u, np.log(0.4)) + u
        assert (c_maxplus_convexity_check(c, 0.4, 0.2, -1e-13, -0.5)
                == c_maxplus_convexity_check(c, 0.4, 0.2, 0.0, -0.5))

    def test_weights_must_be_normalized(self):
        with pytest.raises(ValueError, match="largest weight must attain 0, not -0.5"):
            c_maxplus_convexity_check(lambda u: u, 0.1, 0.2, -0.5, -1.0)
