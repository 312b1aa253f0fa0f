"""Command-line experiment runner.

Every subcommand runs golden checks at the user's parameters and prints
one ``[PASS|FAIL] name (s) detail`` line per check: ``pressure`` runs
``gibbs-equilibrium``; ``gamma`` ``convex-pressure-suite``; ``transport``
``contraction-bounds`` and ``transport-oracle``, whose LP leg is skipped
beyond the oracle's size limit; ``ifs`` ``ifs-invariant-pressure``;
``mpifs`` ``mpifs-operators``; ``ldp`` ``ldp-worked-example``.  Each flag
of ``gamma``, ``ifs``, ``mpifs`` and ``ldp`` is the parameter of the same
name of its check.  ``verify`` runs the whole battery at its own seeds.

Every subcommand but ``verify`` can write a JSON report with ``--out``:
one object with the subcommand, a timestamp, the resolved flags as
``config``, the ``results`` and the ``versions`` of maxtherm, numpy,
scipy and Python.  ``results`` has one ``{"check", "passed", "detail",
"record"}`` entry per check, where ``record`` holds the check's numbers.
scipy's version is read from its package metadata, so writing a report
does not import scipy.  Floats are written with ``repr``, so they read
back exactly, and no NaN or infinity is written.  Apart from the
timestamp, identical configurations produce byte-identical reports, and a
report's ``config`` written as a ``--config`` file reruns it.

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

from . import __version__, goldens, transport


def _flags(args) -> Dict[str, object]:
    """The subcommand's own flags: its check's arguments, and a report's
    ``config``."""
    return {
        key: value for key, value in vars(args).items()
        if key not in ("command", "fn", "config", "out")
    }


def _report(results: List[goldens.GoldenResult], args) -> int:
    """Print one line per check and a summary, write the report to ``--out``
    when given, and return the exit code: 0 if every check passed, else 2.
    The report holds each result without its seconds, which vary between
    runs, and the flags that the results were computed from."""
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
        report = {
            "subcommand": args.command,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "config": _flags(args),
            "results": [
                {"check": r.name, "passed": bool(r.passed), "detail": r.detail,
                 "record": r.record}
                for r in results
            ],
            "versions": {
                "maxtherm": __version__,
                "numpy": np.__version__,
                "scipy": metadata.version("scipy"),
                "python": platform.python_version(),
            },
        }
        text = json.dumps(report, sort_keys=True, allow_nan=False)
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
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
    return _report([goldens.check_convex_pressure_suite(**_flags(args))], args)


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
    return _report([goldens.check_ifs_invariant_pressure(**_flags(args))], args)


def cmd_mpifs(args) -> int:
    return _report([goldens.check_mpifs_operators(**_flags(args))], args)


def cmd_ldp(args) -> int:
    return _report([goldens.check_ldp_worked_example(**_flags(args))], args)


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
