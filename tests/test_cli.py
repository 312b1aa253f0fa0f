"""Every subcommand at small sizes: the check-backed ones print their
golden check's detail line, usage and config errors exit 1, a wrong LP
oracle exits 2, and CSV artifacts are reproducible and parseable."""

import csv
import dataclasses

import pytest

from maxtherm import cli, goldens, transport


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

    def wrong(mu, nu):
        report = exact(mu, nu)
        return dataclasses.replace(report, w1=report.w1 + 1e-6)

    monkeypatch.setattr(transport, "w1_lp_oracle", wrong)
    code, out = _run(capsys, "transport", "--trials", "5")
    assert code == 2
    assert "[PASS] contraction-bounds" in out
    assert "[FAIL] transport-oracle" in out


@pytest.mark.parametrize("argv", [
    ["gamma", "--m", "200", "--trials", "2"],
    ["ifs", "--length", "4"],
    ["ldp", "--n-max", "3", "--mc-samples", "50"],
])
def test_experiment_subcommand_exits_0(capsys, argv):
    code, out = _run(capsys, *argv)
    assert code == 0
    assert out


@pytest.mark.parametrize("argv", [["pressure", "--bogus", "1"], ["nosuch"], []])
def test_usage_errors_exit_1(capsys, argv):
    assert cli.main(argv) == 1
    assert "error: maxtherm" in capsys.readouterr().err


def test_out_files_are_reproducible_and_quoted(capsys, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, out = _run(capsys, "pressure", "--m", "50", "--trials", "2",
                         "--out", str(path))
        assert code == 0
    first, second = (p.read_text().splitlines() for p in paths)
    assert first[0].startswith("# timestamp=")
    assert first[1:] == second[1:]
    assert first[1] == "# config: d=2 m=50 seed=0 subcommand=pressure trials=2"
    rows = list(csv.reader(first[2:]))
    detail = goldens.check_gibbs_equilibrium(0, per_d=2, grids=((2, 50),)).detail
    assert "," in detail
    assert rows == [["check", "passed", "detail"],
                    ["gibbs-equilibrium", "True", detail]]


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


def test_config_file_with_an_unknown_key_exits_1(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("trails=2\n")
    assert cli.main(["pressure", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "config keys ['trails'] are not flags of 'pressure'" in err


@pytest.mark.parametrize("argv, message", [
    (["pressure", "--trials", "-3"], "per_d must be at least 1, got -3"),
    (["transport", "--trials", "0"], "trials must be at least 1, got 0"),
    (["mpifs", "--systems", "0"], "systems must be at least 1, got 0"),
    (["mpifs", "--points", "0"], "points must be at least 1, got 0"),
    (["gamma", "--trials", "-2"], "trials must be at least 1, got -2"),
    (["ldp", "--n-max", "0"], "n_max must be at least 1, got 0"),
    (["ldp", "--mc-samples", "-3"], "mc_samples must be at least 0 (0 is off), got -3"),
])
def test_counts_below_one_exit_1(capsys, argv, message):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "[PASS]" not in captured.out
