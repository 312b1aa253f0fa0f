"""Command-line experiment runner.

Every subcommand runs golden checks at the user's parameters and prints
one ``[PASS|FAIL] name (s) detail`` line per check.  ``verify`` runs the
whole battery at its own seeds.  Every other subcommand is one row of
``SUBCOMMANDS``: its help, the function it runs, and that function's
parameters with their defaults, one flag each (``n_max`` is ``--n-max``).
A float default makes a flag that rejects NaN and infinities, any other
an integer flag.  The function is the golden check itself for ``gamma``
(``convex-pressure-suite``), ``ifs`` (``ifs-invariant-pressure``),
``mpifs`` (``mpifs-operators``) and ``ldp`` (``ldp-worked-example``).
``pressure`` runs ``gibbs-equilibrium`` on one grid, and ``transport``
``contraction-bounds`` and ``transport-oracle``, whose LP leg is skipped
beyond the oracle's size limit.

Every subcommand can write a JSON report with ``--out``: one object
with the subcommand, a timestamp, the resolved flags as ``config``
(``verify``'s is its ``--checks``), the ``results`` and the ``versions``
of maxtherm, numpy, scipy and Python.  ``results`` has one ``{"check",
"passed", "detail", "record"}`` entry per check, where ``record`` holds
the check's numbers.  scipy's version is read from its package metadata,
so writing a report does not import scipy.  Floats are written with
``repr``, so they read back exactly, and no NaN or infinity is written.
Apart from the timestamp, identical configurations produce
byte-identical reports, and the ``config`` of a subcommand other than
``verify``, written as a ``--config`` file, reruns it.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, goldens, transport
from .shift import check_count


def _flags(args) -> Dict[str, object]:
    """The subcommand's own flags: the arguments of its row's ``run``, and a
    report's ``config``; ``verify``'s is its ``--checks``."""
    if args.command == "verify":
        return {"checks": args.checks}
    return {key: getattr(args, key) for key in SUBCOMMANDS[args.command][2]}


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
    flags = {*SUBCOMMANDS[args.command][2], "out"}
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


def _pressure(d: int, m: int, trials: int, seed: int) -> goldens.GoldenResult:
    """``gibbs-equilibrium`` with ``trials`` observables on one (d, m) grid."""
    check_count("trials", trials, 1)
    return goldens.check_gibbs_equilibrium(seed, per_d=trials, grids=((d, m),))


def _transport(d: int, gamma: float, depth: int, trials: int, seed: int):
    """``contraction-bounds``, and ``transport-oracle`` on up to 50 pairs
    unless the d^depth words exceed the LP oracle's limit."""
    results = [goldens.check_contraction_bounds(
        seed, trials, d=d, gamma=gamma, depth=depth
    )]
    if d ** depth <= transport.LP_MAX_POINTS:
        plan = ((d, gamma, depth, min(trials, 50)),)
        results.append(goldens.check_transport_oracle(seed, plan=plan))
    else:
        print(
            f"transport-oracle skipped: {d}^{depth} = {d ** depth} words exceed "
            f"the LP oracle limit {transport.LP_MAX_POINTS}, no tree vs LP gap"
        )
    return results


# name: (help, run, defaults); run(**flags) returns one result or a list
SUBCOMMANDS: Dict[str, Tuple[str, Callable, Dict[str, object]]] = {
    "pressure": ("simplex pressures and equilibria", _pressure,
                 {"d": 2, "m": 400, "trials": 5, "seed": 0}),
    "gamma": ("convex-pressure projection and recovery",
              goldens.check_convex_pressure_suite,
              {"d": 2, "m": 1000, "trials": 8, "seed": 0}),
    "transport": ("W1 distances and contraction checks", _transport,
                  {"d": 2, "gamma": 0.3, "depth": 4, "trials": 1000, "seed": 0}),
    "ifs": ("attractor and invariant pressure", goldens.check_ifs_invariant_pressure,
            {"gamma": 0.3, "p": 0.3, "p2": 0.7, "q2": -1.0, "length": 8}),
    "mpifs": ("max-plus IFS operators and inverse problem",
              goldens.check_mpifs_operators,
              {"points": 12, "systems": 20, "seed": 0}),
    "ldp": ("partition function, bounds, rates", goldens.check_ldp_worked_example,
            {"p": 0.5, "b": 0.5, "t": 0.2, "n_max": 20, "seed": 0, "mc_samples": 0}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maxtherm",
        description="Max-plus pressure, transport, IFS, and large-deviation "
        "experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, defaults) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="key=value file applied before flags")
        p.add_argument("--out", help="JSON report path")
        for key, default in defaults.items():
            p.add_argument(
                f"--{key.replace('_', '-')}", dest=key, default=default,
                type=_finite_float if isinstance(default, float) else int,
            )
    p = sub.add_parser("verify", help="run the golden-test battery")
    p.add_argument("--checks", help="comma-separated subset of check names")
    p.add_argument("--out", help="JSON report path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            results = goldens.run_all(args.checks.split(",") if args.checks else None)
        else:
            if args.config:
                args = _apply_config_file(parser, args, argv)
            results = SUBCOMMANDS[args.command][1](**_flags(args))
        return _report(results if isinstance(results, list) else [results], args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
