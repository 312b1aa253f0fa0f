"""The golden battery: every check passes, and a crashing check is a FAIL."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    contraction_bounds_per_trial,
    random_jacobian_in_one_piece,
    section_identity_per_trial,
)

from maxtherm import cli, goldens, ifs, shift, transport
from maxtherm.shift import CylinderMeasure, ShiftSpace, make_bernoulli_jacobian


# The detail line of each check at its default arguments, as recorded.  A
# refactor must reproduce every line byte for byte; a change that moves a
# number re-records the line and says why.
RECORDED_DETAILS = {
    "gibbs-equilibrium": (
        "worst argmax gap 7.30e-07 (tol 1e-3), worst pressure gap 8.94e-12 (tol 1e-4)"
    ),
    "transport-oracle": (
        "200 pairs, worst |tree - LP| and duality gap 3.47e-16 (tol 1e-9)"
    ),
    "contraction-bounds": (
        "1000 trials each: max ratio 0.506468 (bound 0.8999999999999999), "
        "perturbation excess -6.28e-04, joint excess -3.41e-02"
    ),
    "section-identity": (
        "1000 trials, max |recovered - original| = 1.11e-16 (tol 1e-12); "
        "max |mu(Lf) - (L*mu)(f)| = 3.33e-16 (tol 1e-12)"
    ),
    "product-formula": (
        "mass error 5.55e-17 over 3 seeds (tol 1e-12); "
        "shift gap 0.240 inhomogeneous vs 2.78e-17 constant"
    ),
    "ifs-invariant-pressure": (
        "decay ratios <= 0.300 (r=0.8999999999999999), limit gap 6.89e-06; "
        "pressure of 0 = 0; single-kernel pressure gap 0.00e+00 <= bound 3.49e+00; "
        "seed dependence 0.00e+00 <= r^10 = 3.49e-01; "
        "2^10 words match brute force exactly: True; "
        "density at 8 of the 2^5 word images is their weight, bottom off them: True"
    ),
    "mpifs-operators": (
        "100 systems: duality residual 0.00e+00 (tol 1e-12), "
        "density and pressure checks consistent: True, "
        "perturbed densities rejected: 100/100, inverse-problem residual 0.0"
    ),
    "ldp-worked-example": (
        "cylinder summation gap 1.11e-16 (tol 1e-10); "
        "c_2000 vs limit gap 0.00e+00 (tol 0.01); minimizer gap 2.46e-11, "
        "bound gap 1.23e-11 (tol 1e-8); rate gap 0.00e+00; "
        "strict gap log p=-0.69315 < bound=-0.34657: True; "
        "Chebyshev step P(max-sum <= b) / bound <= 0.500; max-plus convexity of c, "
        "closed form and 2000 orbits: equality residual 0.00e+00, slack 0.00e+00"
    ),
    "birkhoff-attainment": (
        "100 orbits of length 1e4 all attain sup: True; "
        "per-orbit miss probability 0.5^10000 (~1e-3011, underflows to 0.0)"
    ),
    "convex-pressure-suite": (
        "axiom violations 4.44e-16 (tol 1e-6); "
        "density below recovered entropy within 0.00e+00 (tol 1e-6), "
        "midpoint concavification gap 0.720; "
        "Shannon recovery gap 7.77e-16 (tol 1e-4); "
        "envelope projection gap 0.00e+00 (tol 1e-6)"
    ),
    "nonlinear-quadratic": (
        "2 equilibria, swap-symmetric: True, away from uniform: True, "
        "midpoint value 0.6931 < max 2.0003: True; "
        "Markov-family pressure of a symbol potential vs log-sum-exp gap 1.71e-12 "
        "(tol 1e-4)"
    ),
    "pushforward-invariance": (
        "Shannon density under [2, 1] and [2, 3, 1]: residual 2.22e-16 (tol 1e-9); "
        "off the image of [1, 1] and [1, 1, 2] rejected with witnesses "
        "observable #4, observable #4"
    ),
}


@pytest.mark.parametrize("name", list(goldens.ALL_CHECKS))
def test_check_passes(name):
    result = goldens.ALL_CHECKS[name]()
    assert result.name == name
    assert result.passed is True, result.detail
    assert result.detail == RECORDED_DETAILS[name]


def test_transport_oracle_packs_its_pairs_into_few_lps():
    # the 3^5-word pairs are each larger than one LP's budget; the other
    # entries share 1 to 4 LPs each
    record = goldens.check_transport_oracle().record
    assert (record["pairs"], record["lps"], record["lp_solves"], record["lp_retries"]) == (
        200, 24, 24, 0
    )
    assert max(record["worst_tree_gap"], record["worst_duality_gap"]) <= 1e-9


# The flags of the ``gamma``, ``ifs`` and ``ldp`` subcommands, at small sizes.
UNIT = st.floats(0.0, 1.0)
OPEN_UNIT = st.floats(0.01, 0.99)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from((2, 3)),
       m=st.integers(1, 20), trials=st.integers(1, 3))
def test_convex_pressure_suite_passes_at_valid_flags(seed, d, m, trials):
    result = goldens.check_convex_pressure_suite(seed, d, m, trials)
    assert result.passed is True, result.detail


@settings(max_examples=25, deadline=None)
@given(gamma=st.floats(0.01, 0.33), p=UNIT, p2=UNIT, same=st.booleans(),
       q2=st.floats(-3.0, 0.0), length=st.integers(1, 6))
def test_ifs_invariant_pressure_passes_at_valid_flags(gamma, p, p2, same, q2, length):
    result = goldens.check_ifs_invariant_pressure(gamma, p, p if same else p2, q2, length)
    assert result.passed is True, result.detail


@settings(max_examples=15, deadline=None)
@given(p=OPEN_UNIT, b=OPEN_UNIT, t=st.floats(-3.0, 3.0), n_max=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1), mc_samples=st.sampled_from((0, 1, 7, 40)))
def test_ldp_worked_example_passes_at_valid_flags(p, b, t, n_max, seed, mc_samples):
    result = goldens.check_ldp_worked_example(p, b, t, n_max, seed, mc_samples)
    assert result.passed is True, result.detail
    assert [row["n"] for row in result.record["per_n"]] == list(range(1, n_max + 1))


@pytest.mark.parametrize("n, block", [(1, None), (5, None), (17, None), (20, None),
                                      (9, 1 << 7), (12, 1 << 8)])
def test_blocked_cylinder_sums_keep_the_bits_of_one_sum(monkeypatch, n, block):
    if block is not None:
        monkeypatch.setattr(shift, "BLOCK_CELLS", block)
    p, ts = 0.3, (0.0, 0.1, 0.5, np.log(2.0), 2.0)
    count2 = np.bitwise_count(np.arange(1 << n, dtype=np.uint64))
    k = np.arange(n + 1)
    masses = (p ** k * (1.0 - p) ** (n - k))[count2]
    maxsum = (count2 < n).astype(float)
    whole = [float((np.exp(-n * t * maxsum) * masses).sum()) for t in ts]
    assert goldens._partition_bruteforce(p, ts, n) == whole


def test_the_density_line_holds_when_both_kernels_make_one_image():
    # at p == p2 every word of a length has the same image, so a query at
    # it matches all 32 words and carries their best weight, 0
    result = goldens.check_ifs_invariant_pressure(p=0.5, p2=0.5, q2=-0.1, length=5)
    assert result.passed is True, result.detail
    assert result.detail.endswith("bottom off them: True")
    space = ShiftSpace(2, 0.3)
    jp = make_bernoulli_jacobian(0.5, space)
    small = ifs.attractor_build(ifs.WeightedJacobianFamily([jp, jp], [0.0, -0.1]), 5,
                                CylinderMeasure.point_mass(space, (2,)), eps=0.0)
    est = ifs.density_entropy_estimate(small, small.leaves[-1].measure)
    assert (est.value.value, est.matched) == (0.0, 32)


@pytest.mark.parametrize("seed", [19, 22])
def test_mpifs_operators_accepts_perturbed_densities_that_stay_invariant(seed):
    # at these seeds a 2-point system has the fixed density [0, 0], and
    # lowering one of its points leaves it invariant
    result = goldens.check_mpifs_operators(seed=seed)
    assert result.passed is True, result.detail
    assert "perturbed densities rejected: 98/100" in result.detail


# The two operator checks run their trials as groups of tables; each must
# give the detail line and record of its per-trial loop, every bit of
# every worst value included.
@pytest.mark.parametrize("seed", [13, 14, 20])
def test_contraction_bounds_equal_the_per_trial_loop_at_the_recorded_seeds(seed):
    got = goldens.check_contraction_bounds(seed)
    assert (got.detail, got.record) == contraction_bounds_per_trial(seed, 1000)
    assert (got.record["trials"], got.record["groups"], got.record["w1_rows"]) == (
        1000, 2, 4000)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 30),
       space=st.sampled_from(((2, 0.3), (3, 0.2), (2, 0.05))), depth=st.integers(1, 4))
def test_contraction_bounds_equal_the_per_trial_loop(seed, trials, space, depth):
    got = goldens.check_contraction_bounds(seed, trials, *space, depth)
    assert got.passed is True, got.detail
    assert (got.detail, got.record) == contraction_bounds_per_trial(seed, trials, *space, depth)


@pytest.mark.parametrize("cells", [32, 100, 1000])
def test_the_checks_keep_their_lines_over_several_trial_blocks(monkeypatch, cells):
    # blocks of 1, 3 and 31 trials at the default depths
    monkeypatch.setattr(shift, "BLOCK_CELLS", cells)
    got = goldens.check_contraction_bounds(7, 40)
    assert (got.detail, got.record) == contraction_bounds_per_trial(7, 40)
    assert got.record["groups"] > 2
    got = goldens.check_section_identity(8, 40)
    assert (got.detail, got.record) == section_identity_per_trial(8, 40)
    assert got.record["groups"] > 11


@pytest.mark.parametrize("seed", [14, 15, 21])
def test_section_identity_equals_the_per_trial_loop_at_the_recorded_seeds(seed):
    got = goldens.check_section_identity(seed)
    assert (got.detail, got.record) == section_identity_per_trial(seed, 1000)
    assert (got.record["trials"], got.record["groups"]) == (1000, 11)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 30))
def test_section_identity_equals_the_per_trial_loop(seed, trials):
    got = goldens.check_section_identity(seed, trials)
    assert got.passed is True, got.detail
    assert (got.detail, got.record) == section_identity_per_trial(seed, trials)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from((2, 3, 4)), depth=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_the_split_random_jacobian_makes_the_one_piece_kernel(d, depth, seed):
    space = ShiftSpace(d, 0.5 / (d + 1))
    split, one, whole = (np.random.default_rng(seed) for _ in range(3))
    want = random_jacobian_in_one_piece(space, depth, whole).values.tobytes()
    raw = goldens.draw_kernel(space, depth, split)
    assert goldens.shrink_kernels(space, depth, raw[None])[0].tobytes() == want
    kernel = goldens.random_jacobian(space, depth, one)
    assert kernel.values.tobytes() == want and not kernel.values.flags.writeable
    assert split.bit_generator.state == one.bit_generator.state == whole.bit_generator.state


@pytest.mark.parametrize("check, kwargs", [
    (goldens.check_gibbs_equilibrium, {"per_d": 0}),
    (goldens.check_contraction_bounds, {"trials": -1}),
    (goldens.check_transport_oracle, {"plan": ((2, 0.3, 2, 3), (2, 0.3, 3, 0))}),
    (goldens.check_mpifs_operators, {"systems": 0}),
    (goldens.check_mpifs_operators, {"points": 0}),
    (goldens.check_section_identity, {"trials": 0}),
    (goldens.check_gibbs_equilibrium, {"grids": ()}),
    (goldens.check_transport_oracle, {"plan": ()}),
])
def test_a_count_below_one_is_rejected(check, kwargs):
    with pytest.raises(ValueError, match="must be at least 1"):
        check(**kwargs)


@pytest.mark.parametrize("d, depth, need, fits", [
    (2, 28, "536870912", 24), (2, 40, "2199023255552", 24), (3, 20, "10460353203", 14),
    # 3^3000001 is not computed: the need is stated as at least 3^33, the
    # cells at depth 32, twice the first depth over the budget (16)
    (3, 3_000_000, "at least 5559060566555523", 14),
])
def test_contraction_bounds_reject_an_image_over_the_budget_before_drawing(d, depth,
                                                                            need, fits):
    message = (f"an image of {d}\\^{depth + 1} masses needs {need} cells, "
               f"over the budget of {shift.MAX_CELLS}; use depth <= {fits}$")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            goldens.check_contraction_bounds(trials=1, d=d, gamma=0.2, depth=depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the exact cell counts of the last case take a few MB; one image, GBs
    assert peak < 1 << 24


def test_contraction_bounds_refuse_an_absurd_depth_with_the_budget_message():
    # depth 10^5000: the message names d^(depth + 1) without printing the
    # depth's 5,001 digits
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^an image of 2\^at least 2\^16609 masses needs "
                                         r"at least 2\^65 cells, .*use depth <= 24$"):
        goldens.check_contraction_bounds(trials=1, depth=10 ** 5000)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("plan", [((2, 0.3, 30, 1),), ((2, 0.3, 11, 1),),
                                  ((2, 0.3, 2, 3), (3, 0.2, 7, 2))])
def test_transport_oracle_rejects_an_entry_over_the_lp_limit_before_drawing(monkeypatch,
                                                                            plan):
    def no_draws(*args, **kwargs):
        raise AssertionError("a pair was drawn")

    monkeypatch.setattr(goldens, "random_measure", no_draws)
    d, _, depth, _ = plan[-1]
    with pytest.raises(ValueError, match=f"{d}\\^{depth} support points exceed the "
                                         f"oracle limit {transport.LP_MAX_POINTS}$"):
        goldens.check_transport_oracle(plan=plan)


def _raising_check():
    raise ZeroDivisionError("boom")


def test_run_all_reports_a_crash_as_fail_and_goes_on(monkeypatch):
    monkeypatch.setitem(goldens.ALL_CHECKS, "product-formula", _raising_check)
    results = goldens.run_all(["product-formula", "ldp-worked-example"])
    assert [r.name for r in results] == ["product-formula", "ldp-worked-example"]
    crashed, after = results
    assert crashed.passed is False
    assert crashed.detail.startswith("raised ZeroDivisionError: boom (test_goldens.py:")
    assert after.passed is True


def test_verify_exits_2_on_a_crashing_check(monkeypatch, capsys):
    monkeypatch.setitem(goldens.ALL_CHECKS, "product-formula", _raising_check)
    code = cli.main(["verify", "--checks", "product-formula,ldp-worked-example"])
    out = capsys.readouterr().out
    assert code == 2
    assert "[FAIL] product-formula" in out
    assert "1/2 golden checks passed" in out


def test_unknown_check_is_rejected_before_any_check_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(goldens.ALL_CHECKS, "product-formula", lambda: ran.append(1))
    with pytest.raises(ValueError, match="unknown check"):
        goldens.run_all(["product-formula", "no-such-check"])
    assert ran == []
