"""Every subcommand at small sizes: each prints its golden checks' detail
lines and exits 2 when one fails, usage and config errors exit 1, and
JSON reports are strict, reproducible, exact and enough to rerun their
configuration."""

import dataclasses
import inspect
import json
import platform
import re
import time
import tracemalloc

import numpy as np
import pytest
import scipy

from maxtherm import __version__, cli, dynamics, goldens, ifs, shift, simplex, transport
from maxtherm.shift import CylinderMeasure, ShiftSpace, make_bernoulli_jacobian


def _run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv, expected", [
    (["pressure", "--m", "100", "--trials", "2", "--seed", "4"],
     lambda: goldens.check_gibbs_equilibrium(4, per_d=2, grids=((2, 100),))),
    (["pressure", "--d", "3", "--m", "30", "--trials", "2"],
     lambda: goldens.check_gibbs_equilibrium(0, per_d=2, grids=((3, 30),))),
    (["transport", "--trials", "20", "--seed", "5"],
     lambda: goldens.check_contraction_bounds(5, 20)),
    (["transport", "--d", "3", "--gamma", "0.2", "--depth", "3", "--trials", "10"],
     lambda: goldens.check_transport_oracle(0, plan=((3, 0.2, 3, 10),))),
    (["mpifs", "--points", "5", "--systems", "3", "--seed", "2"],
     lambda: goldens.check_mpifs_operators(2, 3, points=5)),
    (["gamma", "--m", "200", "--trials", "2"],
     lambda: goldens.check_convex_pressure_suite(0, d=2, m=200, trials=2)),
    (["gamma", "--d", "3", "--m", "20", "--trials", "2", "--seed", "4"],
     lambda: goldens.check_convex_pressure_suite(4, d=3, m=20, trials=2)),
    (["ifs", "--length", "4", "--gamma", "0.2", "--p", "0.6", "--q2", "-0.5"],
     lambda: goldens.check_ifs_invariant_pressure(0.2, 0.6, 0.7, -0.5, length=4)),
    (["ldp", "--n-max", "3", "--p", "0.3", "--t", "0.7", "--seed", "6"],
     lambda: goldens.check_ldp_worked_example(0.3, 0.5, 0.7, n_max=3, seed=6)),
])
def test_check_subcommand_prints_its_checks_detail_line(capsys, argv, expected):
    code, out = _run(capsys, *argv)
    result = expected()
    assert code == 0
    assert f"[PASS] {result.name}" in out
    assert result.detail in out


def test_transport_repeats_the_contraction_bounds_check_at_its_seed(capsys):
    code, out = _run(capsys, "transport", "--seed", "13")
    assert code == 0
    assert goldens.check_contraction_bounds().detail in out


def test_transport_reports_the_lp_leg_skipped_beyond_the_oracle_limit(capsys):
    code, out = _run(capsys, "transport", "--depth", "11", "--trials", "3")
    assert code == 0
    assert "transport-oracle skipped: 2^11 = 2048 words exceed" in out
    assert "[PASS] transport-oracle" not in out
    assert "1/1 golden checks passed" in out


def test_transport_exits_2_when_the_lp_oracle_disagrees(capsys, monkeypatch):
    exact = transport.w1_lp_oracle

    def wrong(space, mu, nu):
        report = exact(space, mu, nu)
        return dataclasses.replace(report, w1=report.w1 + 1e-6)

    monkeypatch.setattr(transport, "w1_lp_oracle", wrong)
    code, out = _run(capsys, "transport", "--trials", "5")
    assert code == 2
    assert "[PASS] contraction-bounds" in out
    assert "[FAIL] transport-oracle" in out


def _off_by_one(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) + 1.0


def _one_more_match(fn):
    def wrong(*args, **kwargs):
        est = fn(*args, **kwargs)
        return dataclasses.replace(est, matched=est.matched + 1)
    return wrong


@pytest.mark.parametrize("argv, module, name, wrap, check", [
    (["gamma", "--m", "50", "--trials", "2"], simplex, "shannon_entropy",
     _off_by_one, "convex-pressure-suite"),
    (["ifs", "--length", "3"], ifs, "density_entropy_estimate",
     _one_more_match, "ifs-invariant-pressure"),
    (["ldp", "--n-max", "3"], dynamics, "c_n_exact",
     _off_by_one, "ldp-worked-example"),
])
def test_subcommand_exits_2_when_its_check_fails(
    capsys, monkeypatch, argv, module, name, wrap, check
):
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    code, out = _run(capsys, *argv)
    assert code == 2
    assert f"[FAIL] {check}" in out
    assert "0/1 golden checks passed" in out


@pytest.mark.parametrize("command, check", [
    ("gamma", goldens.check_convex_pressure_suite),
    ("ifs", goldens.check_ifs_invariant_pressure),
    ("mpifs", goldens.check_mpifs_operators),
    ("ldp", goldens.check_ldp_worked_example),
])
def test_subcommand_flags_are_its_checks_parameters(command, check):
    flags = cli._flags(cli.build_parser().parse_args([command]))
    assert set(flags) == set(inspect.signature(check).parameters)


@pytest.mark.parametrize("argv", [
    ["gamma", "--m", "200", "--trials", "2"],
    ["ifs", "--length", "4"],
    ["ldp", "--n-max", "3", "--mc-samples", "50"],
])
def test_experiment_subcommand_exits_0(capsys, argv):
    code, out = _run(capsys, *argv)
    assert code == 0
    assert out


def test_ldp_passes_at_a_t_whose_partition_integral_overflows(capsys):
    # n |t| = 2e309 is past the float range, but c_2000(1e306) is 1e306
    code, out = _run(capsys, "ldp", "--t=-1e306")
    assert code == 0
    assert "[PASS] ldp-worked-example" in out
    assert "c_2000 vs limit gap 0.00e+00" in out


@pytest.mark.parametrize("argv", [
    ["pressure", "--bogus", "1"], ["nosuch"], [], ["ifs", "--json-out", "x"],
])
def test_usage_errors_exit_1(capsys, argv):
    assert cli.main(argv) == 1
    assert "error: maxtherm" in capsys.readouterr().err


FLOAT_FLAGS = [("transport", "--gamma"), ("ifs", "--gamma"), ("ifs", "--p"),
               ("ifs", "--p2"), ("ifs", "--q2"), ("ldp", "--p"), ("ldp", "--b"),
               ("ldp", "--t")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
@pytest.mark.parametrize("command, flag", FLOAT_FLAGS)
def test_float_flags_reject_non_finite_values(capsys, command, flag, value):
    # "--t -inf" would read -inf as a flag; "--t=-inf" reaches the type
    assert cli.main([command, f"{flag}={value}"]) == 1
    captured = capsys.readouterr()
    assert f"argument {flag}: expected a finite number, got {value!r}" in captured.err
    assert captured.out == ""


def test_config_file_floats_pass_the_same_check(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("t=nan\n")
    assert cli.main(["ldp", "--n-max", "2", "--config", str(config)]) == 1
    assert "argument --t: expected a finite number, got 'nan'" in capsys.readouterr().err


# Each subcommand with --out, and its flags with their parsed types.
REPORTS = [
    (["pressure", "--m", "50", "--trials", "2"],
     {"d": 2, "m": 50, "trials": 2, "seed": 0}),
    (["gamma", "--m", "200", "--trials", "2"],
     {"d": 2, "m": 200, "trials": 2, "seed": 0}),
    (["transport", "--trials", "20", "--seed", "5"],
     {"d": 2, "gamma": 0.3, "depth": 4, "trials": 20, "seed": 5}),
    (["ifs", "--length", "4", "--q2", "-0.5"],
     {"gamma": 0.3, "p": 0.3, "p2": 0.7, "q2": -0.5, "length": 4}),
    (["mpifs", "--points", "5", "--systems", "3", "--seed", "2"],
     {"points": 5, "systems": 3, "seed": 2}),
    (["ldp", "--n-max", "3", "--mc-samples", "50"],
     {"p": 0.5, "b": 0.5, "t": 0.2, "n_max": 3, "seed": 0, "mc_samples": 50}),
]
REPORT_IDS = [argv[0] for argv, _ in REPORTS]
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def _no_constants(name):
    raise AssertionError(f"report holds the non-JSON constant {name}")


def _write(capsys, path, *argv):
    code, _ = _run(capsys, *argv, "--out", str(path))
    assert code == 0
    text = path.read_text()
    return text, json.loads(text, parse_constant=_no_constants)


@pytest.mark.parametrize("argv, config", REPORTS, ids=REPORT_IDS)
def test_report_is_strict_json_reproducible_and_holds_the_parsed_flags(
    capsys, tmp_path, argv, config
):
    first, report = _write(capsys, tmp_path / "a.json", *argv)
    second, _ = _write(capsys, tmp_path / "b.json", *argv)
    assert sorted(report) == ["config", "results", "subcommand", "timestamp", "versions"]
    assert report["versions"] == {
        "maxtherm": __version__, "numpy": np.__version__,
        "scipy": scipy.__version__, "python": platform.python_version(),
    }
    assert report["subcommand"] == argv[0]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", report["timestamp"])
    assert TIMESTAMP.sub("", first) == TIMESTAMP.sub("", second)
    typed = {key: (type(value), value) for key, value in report["config"].items()}
    assert typed == {key: (type(value), value) for key, value in config.items()}


@pytest.mark.parametrize("argv, config", REPORTS, ids=REPORT_IDS)
def test_report_config_as_a_config_file_reruns_the_report(
    capsys, tmp_path, argv, config
):
    first, report = _write(capsys, tmp_path / "a.json", *argv)
    config_file = tmp_path / "run.cfg"
    config_file.write_text(
        "".join(f"{key}={value}\n" for key, value in report["config"].items())
    )
    again, _ = _write(capsys, tmp_path / "b.json", argv[0], "--config", str(config_file))
    assert TIMESTAMP.sub("", again) == TIMESTAMP.sub("", first)


def test_check_report_holds_every_checks_line(capsys, tmp_path):
    _, report = _write(capsys, tmp_path / "a.json", "transport", "--trials", "20",
                       "--seed", "5")
    plan = ((2, 0.3, 4, 20),)
    expected = [goldens.check_contraction_bounds(5, 20),
                goldens.check_transport_oracle(5, plan=plan)]
    assert report["results"] == [
        {"check": r.name, "passed": True, "detail": r.detail, "record": r.record}
        for r in expected
    ]
    # the 20 pairs of 16 words share one packed LP, solved at the first try
    record = report["results"][1]["record"]
    assert (record["pairs"], record["lps"], record["lp_solves"], record["lp_retries"]) == (
        20, 1, 1, 0
    )
    assert max(record["worst_tree_gap"], record["worst_duality_gap"]) <= 1e-9


def test_verify_report_holds_each_checks_record(capsys, tmp_path):
    _, report = _write(capsys, tmp_path / "a.json", "verify", "--checks",
                       "contraction-bounds,section-identity")
    assert report["subcommand"] == "verify"
    assert report["config"] == {"checks": "contraction-bounds,section-identity"}
    expected = [goldens.check_contraction_bounds(), goldens.check_section_identity()]
    assert report["results"] == [
        {"check": r.name, "passed": True, "detail": r.detail, "record": r.record}
        for r in expected
    ]
    assert report["results"][0]["record"]["w1_rows"] == 4000


def _record(report):
    (result,) = report["results"]
    assert result["passed"] is True
    return result["record"]


def test_gamma_report_holds_the_residuals_and_the_recovery(capsys, tmp_path):
    _, report = _write(capsys, tmp_path / "a.json", "gamma", "--m", "200",
                       "--trials", "2")
    result = goldens.check_convex_pressure_suite(0, d=2, m=200, trials=2)
    assert _record(report) == result.record
    axioms = simplex.pressure_axioms_check(
        simplex.shannon_entropy_table, simplex.SimplexGrid(2, 200), trials=2, seed=0
    )
    record = result.record
    assert (record["monotonicity"], record["translation"], record["convexity"]) == (
        axioms.monotonicity, axioms.translation, axioms.convexity
    )
    mu = np.array([np.e / (1 + np.e), 1 / (1 + np.e)])
    assert (record["mu"], record["shannon"]) == (mu.tolist(), simplex.shannon_entropy(mu))


def test_ifs_report_holds_the_attractor_and_pressure_exactly(capsys, tmp_path):
    _, report = _write(capsys, tmp_path / "a.json", "ifs", "--length", "4",
                       "--q2", "-0.5")
    record = _record(report)
    assert record == goldens.check_ifs_invariant_pressure(q2=-0.5, length=4).record
    space = ShiftSpace(2, 0.3)
    fam = ifs.WeightedJacobianFamily(
        [make_bernoulli_jacobian(0.3, space), make_bernoulli_jacobian(0.7, space)],
        [0.0, -0.5],
    )
    nu0 = CylinderMeasure.point_mass(space, (2,))
    pres = ifs.invariant_pressure_solve(
        fam, lambda mu: mu.mass_of((1,)), 4, nu0, lip_g=1.0, eps=0.0
    )
    assert (record["N"], record["d"], record["r"], record["words"]) == (
        4, 2, space.contraction_rate, 16
    )
    assert (record["pressure"], record["error_bound"],
            record["fixed_point_residual"]) == (
        pres.value, pres.error_bound, pres.fixed_point_residual
    )
    best = max(ifs.attractor_build(fam, 4, nu0, eps=0.0).leaves,
               key=lambda leaf: leaf.weight + leaf.measure.mass_of((1,)))
    assert record["argmax_word"] == list(best.word)
    assert record["argmax_weight"] == best.weight


def test_ifs_builds_the_two_kernel_attractor_once(capsys, monkeypatch):
    builds = []
    build = ifs.attractor_build

    def counting(fam, word_length, *args, **kwargs):
        builds.append((len(fam), word_length))
        return build(fam, word_length, *args, **kwargs)

    monkeypatch.setattr(ifs, "attractor_build", counting)
    assert cli.main(["ifs", "--length", "6"]) == 0
    assert builds.count((2, 6)) == 1
    assert "2^6 words match brute force exactly: True" in capsys.readouterr().out


@pytest.mark.parametrize("mc_samples", [0, 50])
def test_ldp_report_has_one_record_per_n_and_mc_keys_only_when_sampling(
    capsys, tmp_path, mc_samples
):
    _, report = _write(capsys, tmp_path / "a.json", "ldp", "--n-max", "3",
                       "--t", "0.4", "--mc-samples", str(mc_samples))
    record = _record(report)
    assert record == goldens.check_ldp_worked_example(
        t=0.4, n_max=3, seed=0, mc_samples=mc_samples
    ).record
    f = dynamics.DepthKFunction(ShiftSpace(2, 0.3), 1, [1.0, 0.0])
    expected = []
    for n in (1, 2, 3):
        row = {"n": n, "c_exact": dynamics.c_n_exact(0.5, 0.4, n),
               "rate": dynamics.log_event_probability(0.5, 0.5, n) / n}
        if mc_samples:
            sampler = dynamics.OrbitSampler.bernoulli([0.5, 0.5], n_orbits=50, seed=0)
            mc = dynamics.partition_function_mc(sampler, f, -0.4, n)
            row.update(c_mc=mc.value, ci_low=mc.ci_low, ci_high=mc.ci_high)
        expected.append(row)
    assert record["per_n"] == expected


@pytest.mark.parametrize("mc_samples", [0, 50])
def test_ldp_runs_the_monte_carlo_leg_without_out(capsys, monkeypatch, mc_samples):
    calls = []
    mc = dynamics.partition_function_mc
    monkeypatch.setattr(dynamics, "partition_function_mc",
                        lambda *args: calls.append(args[-1]) or mc(*args))
    code, out = _run(capsys, "ldp", "--n-max", "3", "--mc-samples", str(mc_samples))
    assert code == 0
    # the convexity leg reads c_30 at its two distinct arguments first
    assert calls == [30, 30] + ([1, 2, 3] if mc_samples else [])
    clause = re.search(r"Monte Carlo c_n at (\d+) orbits: exact inside the "
                       r"interval at (\d)/3 n", out)
    assert (clause is not None) == bool(mc_samples)
    if clause:
        assert clause.group(1) == "50"


def test_unwritable_out_exits_1(capsys, tmp_path):
    assert cli.main(["ifs", "--length", "2", "--out", str(tmp_path)]) == 1
    assert "error: " in capsys.readouterr().err


def test_config_file_sets_the_subcommands_flags_below_the_command_line(
    capsys, tmp_path
):
    config = tmp_path / "run.cfg"
    config.write_text("# two trials at seed 3\ntrials=2\nseed=3\n")

    def detail(seed):
        return goldens.check_gibbs_equilibrium(seed, per_d=2, grids=((2, 400),)).detail

    code, out = _run(capsys, "pressure", "--config", str(config))
    assert code == 0
    assert detail(3) in out
    code, out = _run(capsys, "pressure", "--config", str(config), "--seed", "5")
    assert code == 0
    assert detail(5) in out


def test_config_file_out_writes_the_report(capsys, tmp_path):
    path = tmp_path / "a.json"
    config = tmp_path / "run.cfg"
    config.write_text(f"length=2\nout={path}\n")
    code, _ = _run(capsys, "ifs", "--config", str(config))
    assert code == 0
    report = json.loads(path.read_text())
    assert report["config"] == {"gamma": 0.3, "p": 0.3, "p2": 0.7, "q2": -1.0,
                                "length": 2}
    assert report["results"][0]["check"] == "ifs-invariant-pressure"


def test_config_file_with_an_unknown_key_exits_1(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("trails=2\n")
    assert cli.main(["pressure", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "config keys ['trails'] are not flags of 'pressure'" in err


def test_verify_with_an_unknown_check_exits_1_before_any_check_runs(capsys):
    assert cli.main(["verify", "--checks", "product-formula,nosuch"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown check 'nosuch'; known: [")
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["pressure", "--trials", "-3"], "trials must be at least 1, got -3"),
    (["transport", "--trials", "0"], "trials must be at least 1, got 0"),
    (["mpifs", "--systems", "0"], "systems must be at least 1, got 0"),
    (["mpifs", "--points", "0"], "points must be at least 1, got 0"),
    (["gamma", "--trials", "-2"], "trials must be at least 1, got -2"),
    (["ldp", "--n-max", "0"], "n_max must be at least 1, got 0"),
    (["ldp", "--mc-samples", "-3"], "mc_samples must be at least 0, got -3"),
    (["transport", "--depth", "0"], "depth must be at least 1, got 0"),
    (["gamma", "--seed", "-1"], "seed must be at least 0, got -1"),
    (["pressure", "--seed", "-1"], "seed must be at least 0, got -1"),
    (["transport", "--seed", "-1"], "seed must be at least 0, got -1"),
    (["mpifs", "--seed", "-1"], "seed must be at least 0, got -1"),
])
def test_counts_below_one_exit_1(capsys, argv, message):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "[PASS]" not in captured.out


@pytest.mark.parametrize("flag", ["p", "b"])
def test_ldp_p_and_b_outside_the_open_unit_interval_exit_1(capsys, flag):
    assert cli.main(["ldp", f"--{flag}", "1.5"]) == 1
    captured = capsys.readouterr()
    assert f"{flag} must lie in (0, 1)" in captured.err
    assert "[PASS]" not in captured.out


@pytest.mark.parametrize("argv, fits", [
    (["transport", "--depth", "28"], 24),
    (["transport", "--depth", "40", "--trials", "1"], 24),
    # 3^30000001 masses: sizing the image itself would take seconds
    (["transport", "--d", "3", "--gamma", "0.2", "--depth", "30000000", "--trials", "1"], 14),
], ids=["argv0", "argv1", "argv2"])
def test_transport_depth_over_the_cell_budget_exits_1(capsys, argv, fits):
    # rejected at once, before any measure is drawn
    start = time.perf_counter()
    tracemalloc.start()
    try:
        assert cli.main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert f"over the budget of {shift.MAX_CELLS}; use depth <= {fits}" in captured.err
    assert "[PASS]" not in captured.out
    assert peak < 1 << 20


def test_ifs_length_over_the_cell_budget_exits_1(capsys):
    # 2^17 words of 2^18 cells: rejected before any level is allocated
    assert cli.main(["ifs", "--length", "17"]) == 1
    captured = capsys.readouterr()
    assert f"over the budget of {shift.MAX_CELLS}; use word_length <= 12" in captured.err
    assert "[PASS]" not in captured.out
