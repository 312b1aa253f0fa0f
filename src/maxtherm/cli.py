"""Command-line experiment runner.

``pressure``, ``transport`` and ``mpifs`` are golden checks run at the
user's parameters: ``gibbs-equilibrium``; ``contraction-bounds`` and
``transport-oracle``, whose LP leg is skipped beyond the oracle's size
limit; ``mpifs-operators``.  ``verify`` runs the whole battery at its own
seeds.  They print one ``[PASS|FAIL] name (s) detail`` line per check.
``gamma``, ``ifs`` and ``ldp`` print the numbers of one experiment.

Every subcommand but ``verify`` can write a JSON report with ``--out``:
one object with the subcommand, a timestamp, the resolved flags as
``config``, the ``results`` and the ``versions`` of maxtherm, numpy,
scipy and Python.  scipy's version is read from its package metadata, so
writing a report does not import scipy.  Floats are written with
``repr``, so they read back exactly, and no NaN or infinity is written.
Apart from the timestamp, identical configurations produce
byte-identical reports, and a report's ``config`` written as a
``--config`` file reruns it.

Exit codes: 0 success, 1 invalid parameters, usage or an unwritable
report path, 2 a check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from importlib import metadata
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__, dynamics, goldens, ifs, simplex, transport
from .shift import CylinderMeasure, ShiftSpace, make_bernoulli_jacobian


def _write_report(path: str, args, results) -> None:
    """Write ``results`` and the flags they were computed from to ``path``."""
    config = {
        key: value for key, value in vars(args).items()
        if key not in ("command", "fn", "config", "out")
    }
    report = {
        "subcommand": args.command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": config,
        "results": results,
        "versions": {
            "maxtherm": __version__,
            "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
            "python": platform.python_version(),
        },
    }
    text = json.dumps(report, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _report(results: List[goldens.GoldenResult], args) -> int:
    """Print one line per check and a summary, write the results to
    ``--out`` when given (without the seconds, which vary between runs),
    and return the exit code: 0 if every check passed, else 2."""
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  ({r.seconds:6.2f}s)  {r.detail}")
    passed = sum(r.passed for r in results)
    print(
        f"{passed}/{len(results)} golden checks passed "
        f"in {sum(r.seconds for r in results):.1f}s"
    )
    if getattr(args, "out", None):
        _write_report(args.out, args, [
            {"check": r.name, "passed": bool(r.passed), "detail": r.detail}
            for r in results
        ])
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


def _finite_float(text: str) -> float:
    """The type of every float flag: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


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
    result = goldens.check_gibbs_equilibrium(
        args.seed, per_d=args.trials, grids=((args.d, args.m),)
    )
    return _report([result], args)


def cmd_gamma(args) -> int:
    d = args.d
    grid = simplex.SimplexGrid(d, args.m)
    report = simplex.pressure_axioms_check(
        simplex.shannon_entropy_table, grid, trials=args.trials, seed=args.seed
    )
    print(
        f"axiom residuals over {args.trials} trials: monotonicity "
        f"{report.monotonicity:.3e}, translation {report.translation:.3e}, "
        f"convexity {report.convexity:.3e}"
    )
    mu = np.full(d, 1.0 / d)
    family = np.vstack([
        simplex.affine_observable_family(d), simplex.shannon_recovery_minimizer(mu)
    ])
    gamma = simplex.convex_pressure_gamma(simplex.shannon_entropy_table, family, grid)
    rec = simplex.entropy_recovery(gamma, family, mu)
    target = simplex.shannon_entropy(mu)
    print(f"entropy recovery at uniform: {rec:.17g} (Shannon {target:.17g})")
    if args.out:
        _write_report(args.out, args, {
            "monotonicity": report.monotonicity,
            "translation": report.translation,
            "convexity": report.convexity,
            "recovered_entropy": rec,
            "shannon": target,
        })
    return 0


def cmd_transport(args) -> int:
    d, depth = args.d, args.depth
    results = [goldens.check_contraction_bounds(
        args.seed, args.trials, d=d, gamma=args.gamma, depth=depth
    )]
    if d ** depth <= transport.LP_MAX_POINTS:
        plan = ((d, args.gamma, depth, min(args.trials, 50)),)
        results.append(goldens.check_transport_oracle(args.seed, plan=plan))
    else:
        print(
            f"transport-oracle skipped: {d}^{depth} = {d ** depth} words exceed "
            f"the LP oracle limit {transport.LP_MAX_POINTS}, no tree vs LP gap"
        )
    return _report(results, args)


def cmd_ifs(args) -> int:
    space = ShiftSpace(2, args.gamma)
    fam = ifs.WeightedJacobianFamily(
        [make_bernoulli_jacobian(args.p, space), make_bernoulli_jacobian(args.p2, space)],
        [0.0, args.q2],
    )
    nu0 = CylinderMeasure.point_mass(space, (2,))
    pres = ifs.invariant_pressure_solve(
        fam, lambda mu: mu.mass_of((1,)), args.length, nu0, lip_g=1.0
    )
    sample = pres.sample
    print(
        f"attractor: {sample.raw_count} words -> {len(sample.leaves)} clusters "
        f"at eps={sample.epsilon:.17g}"
    )
    print(
        f"invariant pressure of mass-of-[1]: {pres.value:.17g} "
        f"(error bound {pres.error_bound:.3e}, fixed-point residual "
        f"{pres.fixed_point_residual:.3e})"
    )
    if args.out:
        _write_report(args.out, args, {
            "raw_words": sample.raw_count,
            "clusters": len(sample.leaves),
            "epsilon": sample.epsilon,
            "N": sample.word_length,
            "r": sample.rate,
            "d": space.d,
            "leaves": [
                {
                    "word": list(leaf.word),
                    "weight": leaf.weight,
                    "depth": leaf.measure.depth,
                    "masses": leaf.measure.masses.tolist(),
                }
                for leaf in sample.leaves
            ],
            "pressure": pres.value,
            "error_bound": pres.error_bound,
            "fixed_point_residual": pres.fixed_point_residual,
        })
    return 0


def cmd_mpifs(args) -> int:
    result = goldens.check_mpifs_operators(args.seed, args.systems, points=args.points)
    return _report([result], args)


def cmd_ldp(args) -> int:
    p, b, t, n_max, mc_samples = args.p, args.b, args.t, args.n_max, args.mc_samples
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0, 1)")
    if not (0.0 < b < 1.0):
        raise ValueError("b must lie in (0, 1)")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if mc_samples < 0:
        raise ValueError(f"mc_samples must be at least 0 (0 is off), got {mc_samples}")
    est = dynamics.empirical_rate(p, b, list(range(1, n_max + 1)))
    print(
        f"upper large-deviation bound: {est.ldp_bound:.17g} "
        f"at t* = {est.bound_minimizer:.17g}"
    )
    print(f"empirical decay rate: {est.limit_rate:.17g}")
    print(
        f"gap: rate {est.limit_rate:.17g} < bound {est.ldp_bound:.17g} "
        f"(the bound is not tight)"
    )
    if not args.out:
        return 0

    f = dynamics.DepthKFunction(ShiftSpace(2, 0.3), 1, [1.0, 0.0])
    records = []
    for n in range(1, n_max + 1):
        record = {"n": n, "c_exact": dynamics.c_n_exact(p, t, n),
                  "rate": est.rates[n - 1]}
        if mc_samples > 0:
            sampler = dynamics.OrbitSampler.bernoulli(
                [1.0 - p, p], n_orbits=mc_samples, seed=args.seed
            )
            mc = dynamics.partition_function_mc(sampler, f, -t, n)
            record.update(c_mc=mc.value, ci_low=mc.ci_low, ci_high=mc.ci_high)
        records.append(record)
    _write_report(args.out, args, records)
    return 0


def cmd_verify(args) -> int:
    names = args.checks.split(",") if args.checks else None
    return _report(goldens.run_all(names), args)


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
        p.add_argument("--out", help="JSON report path")

    p = sub.add_parser("pressure", help="simplex pressures and equilibria")
    common(p)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, default=400)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_pressure)

    p = sub.add_parser("gamma", help="convex-pressure projection and recovery")
    common(p)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, default=1000)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("transport", help="W1 distances and contraction checks")
    common(p)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--gamma", type=_finite_float, default=0.3)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_transport)

    p = sub.add_parser("ifs", help="attractor and invariant pressure")
    common(p)
    p.add_argument("--gamma", type=_finite_float, default=0.3)
    p.add_argument("--p", type=_finite_float, default=0.3)
    p.add_argument("--p2", type=_finite_float, default=0.7)
    p.add_argument("--q2", type=_finite_float, default=-1.0)
    p.add_argument("--length", type=int, default=8)
    p.set_defaults(fn=cmd_ifs)

    p = sub.add_parser("mpifs", help="max-plus IFS operators and inverse problem")
    common(p)
    p.add_argument("--points", type=int, default=12)
    p.add_argument("--systems", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_mpifs)

    p = sub.add_parser("ldp", help="partition function, bounds, rates")
    common(p)
    p.add_argument("--p", type=_finite_float, default=0.5)
    p.add_argument("--b", type=_finite_float, default=0.5)
    p.add_argument("--t", type=_finite_float, default=0.2)
    p.add_argument("--n-max", dest="n_max", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mc-samples", dest="mc_samples", type=int, default=0)
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
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
