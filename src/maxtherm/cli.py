"""Command-line experiment runner.

``pressure``, ``transport`` and ``mpifs`` are golden checks run at the
user's parameters: ``gibbs-equilibrium``; ``contraction-bounds`` and
``transport-oracle``, whose LP leg is skipped beyond the oracle's size
limit; ``mpifs-operators``.  ``verify`` runs the whole battery at its own
seeds.  They print one ``[PASS|FAIL] name (s) detail`` line per check.
``gamma``, ``ifs`` and ``ldp`` print the numbers of one experiment.

Every subcommand but ``verify`` can write a CSV artifact.  Artifacts
embed the resolved configuration and seed; apart from the timestamp
header line, identical configurations produce byte-identical files.
Floats print with 17 significant digits so regressions show up in diffs.

Exit codes: 0 success, 1 invalid parameters or usage, 2 a check failed.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import dynamics, goldens, ifs, simplex, transport
from .shift import CylinderMeasure, ShiftSpace, make_bernoulli_jacobian


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: str, config: Dict, header: List[str], rows: List[List]) -> None:
    cfg = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(config.items()))
    with open(path, "w", newline="") as fh:
        fh.write(f"# timestamp={time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}\n")
        fh.write(f"# config: {cfg}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _report(
    results: List[goldens.GoldenResult],
    out: Optional[str] = None,
    config: Optional[Dict] = None,
) -> int:
    """Print one line per check and a summary, write the results to ``out``
    (without the seconds, which vary between runs), and return the exit
    code: 0 if every check passed, else 2."""
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  ({r.seconds:6.2f}s)  {r.detail}")
    passed = sum(r.passed for r in results)
    print(
        f"{passed}/{len(results)} golden checks passed "
        f"in {sum(r.seconds for r in results):.1f}s"
    )
    if out:
        _write_csv(out, config, ["check", "passed", "detail"],
                   [[r.name, r.passed, r.detail] for r in results])
    return 0 if passed == len(results) else 2


def _read_config_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _apply_config_file(parser: argparse.ArgumentParser, args, argv: List[str]):
    """Parse ``argv`` again with the ``--config`` file's values as flags of
    the chosen subcommand, placed before the user's own flags so that these
    win.  Precedence: built-in defaults < config file < command-line flags.
    Keys are flag names with ``_`` for ``-`` (``n_max``), as in ``args``."""
    values = _read_config_file(args.config)
    flags = set(vars(args)) - {"command", "fn", "config"}
    unknown = sorted(set(values) - flags)
    if unknown:
        raise ValueError(
            f"config keys {unknown} are not flags of {args.command!r}; "
            f"known: {sorted(flags)}"
        )
    tokens = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    return parser.parse_args([argv[0], *tokens, *argv[1:]])


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``ValueError``, so that
    they exit 1 like any other invalid parameter.  Subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_pressure(args) -> int:
    d, m, trials, seed = int(args.d), int(args.m), int(args.trials), int(args.seed)
    result = goldens.check_gibbs_equilibrium(seed, per_d=trials, grids=((d, m),))
    config = {"subcommand": "pressure", "d": d, "m": m, "trials": trials, "seed": seed}
    return _report([result], args.out, config)


def cmd_gamma(args) -> int:
    d, m, trials, seed = int(args.d), int(args.m), int(args.trials), int(args.seed)
    grid = simplex.SimplexGrid(d, m)
    report = simplex.pressure_axioms_check(
        simplex.shannon_entropy_table, grid, trials=trials, seed=seed
    )
    print(
        f"axiom residuals over {trials} trials: monotonicity "
        f"{report.monotonicity:.3e}, translation {report.translation:.3e}, "
        f"convexity {report.convexity:.3e}"
    )
    mu = np.full(d, 1.0 / d)
    family = np.vstack([
        simplex.affine_observable_family(d), simplex.shannon_recovery_minimizer(mu)
    ])
    rec = simplex.entropy_recovery(simplex.shannon_entropy_table, mu, family, grid)
    target = simplex.shannon_entropy(mu)
    print(f"entropy recovery at uniform: {rec:.17g} (Shannon {target:.17g})")
    config = {"subcommand": "gamma", "d": d, "m": m, "trials": trials, "seed": seed}
    if args.out:
        _write_csv(args.out, config,
                   ["monotonicity", "translation", "convexity",
                    "recovered_entropy", "shannon"],
                   [[report.monotonicity, report.translation, report.convexity,
                     rec, target]])
    return 0


def cmd_transport(args) -> int:
    d, gamma_ = int(args.d), float(args.gamma)
    depth, trials, seed = int(args.depth), int(args.trials), int(args.seed)
    results = [
        goldens.check_contraction_bounds(seed, trials, d=d, gamma=gamma_, depth=depth)
    ]
    if d ** depth <= transport.LP_MAX_POINTS:
        plan = ((d, gamma_, depth, min(trials, 50)),)
        results.append(goldens.check_transport_oracle(seed, plan=plan))
    else:
        print(
            f"transport-oracle skipped: {d}^{depth} = {d ** depth} words exceed "
            f"the LP oracle limit {transport.LP_MAX_POINTS}, no tree vs LP gap"
        )
    config = {"subcommand": "transport", "d": d, "gamma": gamma_,
              "depth": depth, "trials": trials, "seed": seed}
    return _report(results, args.out, config)


def cmd_ifs(args) -> int:
    d, gamma_ = 2, float(args.gamma)
    space = ShiftSpace(d, gamma_)
    p1, p2 = float(args.p), float(args.p2)
    q2, length = float(args.q2), int(args.length)
    fam = ifs.WeightedJacobianFamily(
        [make_bernoulli_jacobian(p1, space), make_bernoulli_jacobian(p2, space)],
        [0.0, q2],
    )
    nu0 = CylinderMeasure.point_mass(space, (2,))
    sample = ifs.attractor_build(fam, length, nu0)
    pres = ifs.invariant_pressure_solve(
        fam, lambda mu: mu.mass_of((1,)), length, nu0, lip_g=1.0
    )
    print(
        f"attractor: {sample.raw_count} words -> {len(sample.leaves)} clusters "
        f"at eps={sample.epsilon:.17g}"
    )
    print(
        f"invariant pressure of mass-of-[1]: {pres.value:.17g} "
        f"(error bound {pres.error_bound:.3e}, fixed-point residual "
        f"{pres.fixed_point_residual:.3e})"
    )
    config = {"subcommand": "ifs", "gamma": gamma_, "p": p1, "p2": p2,
              "q2": q2, "length": length}
    if args.out:
        _write_csv(args.out, config,
                   ["raw_words", "clusters", "epsilon", "pressure",
                    "error_bound", "fixed_point_residual"],
                   [[sample.raw_count, len(sample.leaves), sample.epsilon,
                     pres.value, pres.error_bound, pres.fixed_point_residual]])
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(sample.to_json())
    return 0


def cmd_mpifs(args) -> int:
    n, systems, seed = int(args.points), int(args.systems), int(args.seed)
    result = goldens.check_mpifs_operators(seed, systems, points=n)
    config = {"subcommand": "mpifs", "points": n, "systems": systems, "seed": seed}
    return _report([result], args.out, config)


def cmd_ldp(args) -> int:
    p, b, t = float(args.p), float(args.b), float(args.t)
    n_max, seed = int(args.n_max), int(args.seed)
    mc_samples = int(args.mc_samples)
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0, 1)")
    if not (0.0 < b < 1.0):
        raise ValueError("b must lie in (0, 1)")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if mc_samples < 0:
        raise ValueError(f"mc_samples must be at least 0 (0 is off), got {mc_samples}")
    t_star, bound = dynamics.bernoulli_ldp_bound(p, b)
    est = dynamics.empirical_rate(p, b, list(range(1, n_max + 1)))
    print(f"upper large-deviation bound: {bound:.17g} at t* = {t_star:.17g}")
    print(f"empirical decay rate: {est.limit_rate:.17g}")
    print(
        f"gap: rate {est.limit_rate:.17g} < bound {bound:.17g} "
        f"(the bound is not tight)"
    )

    space = ShiftSpace(2, 0.3)
    f = dynamics.DepthKFunction(space, 1, [1.0, 0.0])
    rows = []
    for n in range(1, n_max + 1):
        if mc_samples > 0:
            sampler = dynamics.OrbitSampler.bernoulli(
                [1.0 - p, p], n_orbits=mc_samples, seed=seed
            )
            mc = dynamics.partition_function_mc(sampler, f, -t, n)
            c_mc, lo, hi = mc.value, mc.ci_low, mc.ci_high
        else:
            c_mc = lo = hi = float("nan")
        rows.append([n, t, dynamics.c_n_exact(p, t, n), c_mc, lo, hi, seed])
        rows.append([n, b, est.rates[n - 1], float("nan"), float("nan"),
                     float("nan"), seed])
    config = {"subcommand": "ldp", "p": p, "b": b, "t": t, "n_max": n_max,
              "seed": seed, "mc_samples": mc_samples}
    if args.out:
        _write_csv(args.out, config,
                   ["n", "t_or_b", "exact_value", "mc_value", "ci_low",
                    "ci_high", "seed"], rows)
    return 0


def cmd_verify(args) -> int:
    names = args.checks.split(",") if args.checks else None
    return _report(goldens.run_all(names))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maxtherm",
        description="Max-plus pressure, transport, IFS, and large-deviation "
        "experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="key=value file applied before flags")
        p.add_argument("--out", help="CSV artifact path")

    p = sub.add_parser("pressure", help="simplex pressures and equilibria")
    common(p)
    p.add_argument("--d", default=2)
    p.add_argument("--m", default=400)
    p.add_argument("--trials", default=5)
    p.add_argument("--seed", default=0)
    p.set_defaults(fn=cmd_pressure)

    p = sub.add_parser("gamma", help="convex-pressure projection and recovery")
    common(p)
    p.add_argument("--d", default=2)
    p.add_argument("--m", default=1000)
    p.add_argument("--trials", default=8)
    p.add_argument("--seed", default=0)
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("transport", help="W1 distances and contraction checks")
    common(p)
    p.add_argument("--d", default=2)
    p.add_argument("--gamma", default=0.3)
    p.add_argument("--depth", default=4)
    p.add_argument("--trials", default=1000)
    p.add_argument("--seed", default=0)
    p.set_defaults(fn=cmd_transport)

    p = sub.add_parser("ifs", help="attractor and invariant pressure")
    common(p)
    p.add_argument("--gamma", default=0.3)
    p.add_argument("--p", default=0.3)
    p.add_argument("--p2", default=0.7)
    p.add_argument("--q2", default=-1.0)
    p.add_argument("--length", default=8)
    p.add_argument("--json-out", dest="json_out")
    p.set_defaults(fn=cmd_ifs)

    p = sub.add_parser("mpifs", help="max-plus IFS operators and inverse problem")
    common(p)
    p.add_argument("--points", default=12)
    p.add_argument("--systems", default=20)
    p.add_argument("--seed", default=0)
    p.set_defaults(fn=cmd_mpifs)

    p = sub.add_parser("ldp", help="partition function, bounds, rates")
    common(p)
    p.add_argument("--p", default=0.5)
    p.add_argument("--b", default=0.5)
    p.add_argument("--t", default=0.2)
    p.add_argument("--n-max", dest="n_max", default=20)
    p.add_argument("--seed", default=0)
    p.add_argument("--mc-samples", dest="mc_samples", default=0)
    p.set_defaults(fn=cmd_ldp)

    p = sub.add_parser("verify", help="run the golden-test battery")
    p.add_argument("--checks", help="comma-separated subset of check names")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = _apply_config_file(parser, args, argv)
        return args.fn(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
