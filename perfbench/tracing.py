"""Spans around the calls into maxtherm's layers, recorded from outside.

A ``Tracer`` wraps each traced public function in every ``maxtherm``
module namespace that binds it: the from-imports in ``ifs``, ``transport``
and ``goldens`` bind ``dual_apply`` and ``w1_tree`` under their own names,
and the package re-exports several.  ``OrbitSampler.sample`` is wrapped on
its class.  Each call records one span ``[name, start, end, parent, job]``
in memory and adds its work counts at the same boundary; the caller writes
the spans out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


def _arg(args, kwargs, i: int, name: str) -> Any:
    return args[i] if len(args) > i else kwargs[name]


@dataclass(frozen=True)
class Traced:
    name: str           # span name; also the prefix of its metrics
    module: str
    attr: str           # "function" or "Class.method"
    counts: Optional[Callable[[tuple, dict, Any], Dict[str, float]]] = None
    span: bool = True   # False: count calls only, so the caller's self time keeps the cost
    # rewrites the call's arguments, given (tracer, args, kwargs)
    wrap_args: Optional[Callable] = None


def _time_objective(tracer: "Tracer", args: tuple, kwargs: dict):
    """Give ``maximize_on_simplex`` an objective that records its calls:
    the first is the coarse scan, later ones are refine patches."""
    objective = _arg(args, kwargs, 0, "objective")
    calls = [0]

    def timed(points):
        idx = tracer.open("simplex.scan" if calls[0] == 0 else "simplex.refine")
        calls[0] += 1
        try:
            return objective(points)
        finally:
            tracer.close(idx)

    if args:
        return (timed,) + tuple(args[1:]), kwargs
    return args, {**kwargs, "objective": timed}


# Work counts are computed from argument and result sizes ("cells" are
# table entries), not measured.
TRACED = (
    Traced("simplex.maximize", "maxtherm.simplex", "maximize_on_simplex",
           lambda a, k, r: {"simplex.evaluations": r.evaluations},
           wrap_args=_time_objective),
    Traced("transport.w1_tree", "maxtherm.transport", "w1_tree",
           lambda a, k, r: {"transport.w1_tree.cells": _arg(a, k, 0, "mu").masses.size}),
    Traced("transport.w1_lp_oracle", "maxtherm.transport", "w1_lp_oracle"),
    Traced("transport.linprog", "maxtherm.transport", "linprog", span=False),
    Traced("shift.dual_apply", "maxtherm.shift", "dual_apply",
           lambda a, k, r: {"shift.dual_apply.cells": r.masses.size}),
    Traced("shift.lipschitz_constant", "maxtherm.shift", "lipschitz_constant"),
    Traced("ifs.attractor_build", "maxtherm.ifs", "attractor_build",
           lambda a, k, r: {"ifs.words": r.raw_count, "ifs.clusters": len(r.leaves)}),
    Traced("ifs.invariant_pressure_solve", "maxtherm.ifs", "invariant_pressure_solve"),
    Traced("ifs.density_entropy_estimate", "maxtherm.ifs", "density_entropy_estimate"),
    Traced("ifs.mpifs_fixed_density", "maxtherm.ifs", "mpifs_fixed_density",
           lambda a, k, r: {"ifs.mpifs_polish_iters": r[1]}),
    Traced("ifs.mpifs_invariance_check", "maxtherm.ifs", "mpifs_invariance_check"),
    Traced("dynamics.sample", "maxtherm.dynamics", "OrbitSampler.sample",
           lambda a, k, r: {"dynamics.symbols": r.size}),
    Traced("dynamics.birkhoff_max_table", "maxtherm.dynamics", "birkhoff_max_table",
           lambda a, k, r: {"dynamics.windows":
                            _arg(a, k, 1, "orbits").shape[0] * _arg(a, k, 2, "n")}),
    Traced("dynamics.partition_function_mc", "maxtherm.dynamics", "partition_function_mc"),
)

BUILD = "ifs.attractor_build"
SOLVE = "ifs.invariant_pressure_solve"


class Tracer:
    """Records spans and work counts while its wrappers are installed."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._job = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def job(self, job_id: int, name: str):
        """Span of one job; every span opened inside carries its id."""
        self._job = job_id
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)
            self._job = -1

    def _wrap(self, spec: Traced, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[spec.name + ".calls"] += 1
            if spec.wrap_args is not None:
                args, kwargs = spec.wrap_args(tracer, args, kwargs)
            idx = tracer.open(spec.name) if spec.span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    tracer.close(idx)
            if spec.counts is not None:
                for key, value in spec.counts(args, kwargs, result).items():
                    tracer.counts[key] += value
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block.

        A traced name missing from maxtherm raises here, so a rename
        cannot silently drop a layer from the trace.
        """
        swaps = []
        try:
            for spec in TRACED:
                module = sys.modules[spec.module]
                if "." in spec.attr:
                    cls_name, meth = spec.attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    swaps.append((owner, meth, original))
                    setattr(owner, meth, self._wrap(spec, original))
                    continue
                original = getattr(module, spec.attr)
                wrapper = self._wrap(spec, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "maxtherm" and not mod_name.startswith("maxtherm."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            swaps.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(swaps):
                setattr(owner, key, original)

    def summarize(self) -> Dict[str, float]:
        """Per-layer totals of the recorded spans and counts.

        Self time is a span's duration minus that of its direct children.
        ``ifs.enumerate_s`` and ``ifs.cluster_s`` are the ``dual_apply`` and
        ``w1_tree`` time under ``attractor_build``; ``ifs.reapply_s`` is the
        ``dual_apply`` time under ``invariant_pressure_solve`` but outside
        its build.
        """
        n = len(self.spans)
        dur = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * n
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += dur[i]
        under_build = [False] * n
        under_solve = [False] * n
        out: Dict[str, float] = defaultdict(float)
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                parent_name = self.spans[parent][0]
                under_build[i] = under_build[parent] or parent_name == BUILD
                under_solve[i] = under_solve[parent] or parent_name == SOLVE
            out[name + ".s"] += dur[i]
            out[name + ".self_s"] += dur[i] - child[i]
            if name == "shift.dual_apply":
                if under_build[i]:
                    out["ifs.enumerate_s"] += dur[i]
                elif under_solve[i]:
                    out["ifs.reapply_s"] += dur[i]
            elif name == "transport.w1_tree" and under_build[i]:
                out["ifs.cluster_s"] += dur[i]
                out["ifs.cluster_w1_calls"] += 1
        out.update(self.counts)
        out["simplex.scan_s"] = out["simplex.scan.s"]
        out["simplex.refine_s"] = out["simplex.refine.s"]
        out["transport.lp_solves"] = out["transport.linprog.calls"]
        words = out["ifs.words"]
        out["ifs.w1_per_word"] = out["ifs.cluster_w1_calls"] / words if words else 0.0
        return dict(out)
