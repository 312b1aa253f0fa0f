"""The golden battery: every check passes, and a crashing check is a FAIL."""

import pytest

from maxtherm import cli, goldens


@pytest.mark.parametrize("name", list(goldens.ALL_CHECKS))
def test_check_passes(name):
    result = goldens.ALL_CHECKS[name]()
    assert result.name == name
    assert result.passed is True, result.detail


@pytest.mark.parametrize("seed", [19, 22])
def test_mpifs_operators_accepts_perturbed_densities_that_stay_invariant(seed):
    # at these seeds a 2-point system has the fixed density [0, 0], and
    # lowering one of its points leaves it invariant
    result = goldens.check_mpifs_operators(seed=seed)
    assert result.passed is True, result.detail
    assert "perturbed densities rejected: 98/100" in result.detail


@pytest.mark.parametrize("check, kwargs", [
    (goldens.check_gibbs_equilibrium, {"per_d": 0}),
    (goldens.check_contraction_bounds, {"trials": -1}),
    (goldens.check_transport_oracle, {"plan": ((2, 0.3, 2, 3), (2, 0.3, 3, 0))}),
    (goldens.check_mpifs_operators, {"systems": 0}),
    (goldens.check_mpifs_operators, {"points": 0}),
])
def test_a_count_below_one_is_rejected(check, kwargs):
    with pytest.raises(ValueError, match="must be at least 1"):
        check(**kwargs)


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
    with pytest.raises(KeyError, match="unknown check"):
        goldens.run_all(["product-formula", "no-such-check"])
    assert ran == []
