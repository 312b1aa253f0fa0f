"""Command-line experiment runner.

Every subcommand validates its parameters, runs one reproducible
experiment, and optionally writes a CSV artifact.  Artifacts embed the
resolved configuration and seed; apart from the timestamp header line,
identical configurations produce byte-identical files.  Floats print with
17 significant digits so regressions show up in diffs.

Exit codes: 0 success, 1 invalid parameters, 2 failed verification.
"""

from __future__ import annotations

import argparse
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
    lines = [f"# timestamp={time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}"]
    cfg = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(config.items()))
    lines.append(f"# config: {cfg}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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


def _apply_config_file(parser: argparse.ArgumentParser, argv: Sequence[str]):
    """Pre-scan for --config and install its values as parser defaults.

    Precedence: built-in defaults < config file < command-line flags.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if known.config:
        parser.set_defaults(**_read_config_file(known.config))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_pressure(args) -> int:
    d, m, trials, seed = int(args.d), int(args.m), int(args.trials), int(args.seed)
    grid = simplex.SimplexGrid(d, m)
    rng = np.random.default_rng(seed)
    rows = []
    for trial in range(trials):
        g = simplex.Level1Observable(rng.uniform(-2.0, 2.0, d))
        res = simplex.level2_pressure(
            simplex.shannon_entropy_table, simplex.inclusion_j(g), grid
        )
        closed = simplex.log_sum_exp(g)
        target = simplex.gibbs_solution(g)
        gap = float(np.abs(res.argmax[0] - target).max())
        rows.append([trial, _fmt_list(g.coeffs), res.value, closed,
                     abs(res.value - closed), gap])
        print(
            f"trial {trial}: pressure {res.value:.17g} closed form "
            f"{closed:.17g} argmax gap {gap:.3e}"
        )
    config = {"subcommand": "pressure", "d": d, "m": m, "trials": trials, "seed": seed}
    if args.out:
        _write_csv(args.out, config,
                   ["trial", "coefficients", "pressure", "closed_form",
                    "value_gap", "argmax_gap"], rows)
    return 0


def _fmt_list(vals) -> str:
    return ";".join(f"{float(v):.17g}" for v in vals)


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
    family = simplex.affine_observable_family(d) + [
        simplex.shannon_recovery_minimizer(mu)
    ]
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
    space = ShiftSpace(d, gamma_)
    rng = np.random.default_rng(seed)
    r = space.contraction_rate
    worst_ratio, worst_perturb, worst_joint, worst_oracle = 0.0, -np.inf, -np.inf, 0.0
    oracle_trials = min(trials, 50)
    for i in range(trials):
        J1 = goldens.random_jacobian(space, int(rng.integers(1, 3)), rng)
        J2 = goldens.random_jacobian(space, J1.depth, rng)
        mu = goldens.random_measure(space, depth, rng)
        nu = goldens.random_measure(space, depth, rng)
        worst_ratio = max(worst_ratio, transport.contraction_check(J1, mu, nu))
        w1, bound = transport.jacobian_perturbation_check(J1, J2, mu)
        worst_perturb = max(worst_perturb, w1 - bound)
        joint = transport.joint_contraction_check(J1, J2, mu, nu)
        worst_joint = max(worst_joint, -joint.slack)
        if i < oracle_trials and space.n_words(depth) <= transport.LP_MAX_POINTS:
            rep = transport.w1_lp_oracle(mu, nu)
            worst_oracle = max(worst_oracle, abs(transport.w1_tree(mu, nu) - rep.w1))
    print(
        f"{trials} trials: max contraction ratio {worst_ratio:.17g} "
        f"(bound {r:.17g})"
    )
    print(f"perturbation excess {worst_perturb:.3e}, joint excess {worst_joint:.3e}")
    print(f"tree vs LP oracle gap {worst_oracle:.3e} over {oracle_trials} pairs")
    config = {"subcommand": "transport", "d": d, "gamma": gamma_,
              "depth": depth, "trials": trials, "seed": seed}
    if args.out:
        _write_csv(args.out, config,
                   ["max_contraction_ratio", "rate_bound", "perturbation_excess",
                    "joint_excess", "oracle_gap"],
                   [[worst_ratio, r, worst_perturb, worst_joint, worst_oracle]])
    ok = worst_ratio <= r + 1e-10 and worst_perturb <= 1e-10 and worst_joint <= 1e-10
    return 0 if ok else 2


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
    rng = np.random.default_rng(seed)
    worst_dual = 0.0
    consistent = True
    for _ in range(systems):
        sys_ = goldens.random_mpifs(n, rng, constant_maps=True)
        lam = -rng.exponential(1.0, n)
        lam -= lam.max()
        f = rng.uniform(-2, 2, n)
        lhs = ifs.mpifs_markov(lam, f, sys_)
        rhs = ifs.mpifs_pressure(lam, ifs.mpifs_ruelle(f, sys_))
        worst_dual = max(worst_dual, abs(lhs - rhs))
        fixed, iters = ifs.mpifs_fixed_density(sys_)
        rep = ifs.mpifs_invariance_check(fixed, sys_)
        consistent &= rep.consistent() and all(rep.passes())
    h = -rng.exponential(1.0, n)
    h -= h.max()
    sol = ifs.inverse_problem_solve(h)
    print(f"{systems} systems of {n} points: duality residual {worst_dual:.3e}")
    print(f"invariance three-way consistent: {consistent}")
    print(
        f"inverse problem: equation residual {sol.eq_residual!r}, "
        f"normalization residual {sol.normalization_residual!r}"
    )
    config = {"subcommand": "mpifs", "points": n, "systems": systems, "seed": seed}
    if args.out:
        _write_csv(args.out, config,
                   ["duality_residual", "consistent", "inverse_eq_residual",
                    "inverse_norm_residual"],
                   [[worst_dual, consistent, sol.eq_residual,
                     sol.normalization_residual]])
    return 0 if (worst_dual <= 1e-12 and consistent) else 2


def cmd_ldp(args) -> int:
    p, b, t = float(args.p), float(args.b), float(args.t)
    n_max, seed = int(args.n_max), int(args.seed)
    mc_samples = int(args.mc_samples)
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0, 1)")
    if not (0.0 < b < 1.0):
        raise ValueError("b must lie in (0, 1)")
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
    results = goldens.run_all(names)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  ({r.seconds:6.2f}s)  {r.detail}")
        failures += 0 if r.passed else 1
    print(
        f"{len(results) - failures}/{len(results)} golden checks passed "
        f"in {sum(r.seconds for r in results):.1f}s"
    )
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    _apply_config_file(parser, argv)
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
