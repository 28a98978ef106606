"""Outside-in layer tracing of `loadcap`.

`Recorder.install` wraps the public functions of each layer and puts every
wrapper on each name under which a `loadcap` module looks the function up:
`capacity` imports `kinematic_supremum`, `optimal_stress_dual` and
`_dual_builder` by name, so wrapping only `stress.<name>` would miss its
calls.  A span is (name, start, end, parent, job, info); spans stay in
memory and `write` saves them when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
from time import perf_counter

# span name -> (module, attribute); "LPBuilder.build" is a method
TRACED = {
    "mesh.read_mesh": ("loadcap.mesh", "read_mesh"),
    "mesh.validate": ("loadcap.mesh", "validate"),
    "kinematics.assemble": ("loadcap.kinematics", "assemble"),
    "kinematics.rigid_kernel_dim": ("loadcap.kinematics", "rigid_kernel_dim"),
    "lp.solve": ("loadcap.lp", "solve"),
    "lp.solve_brute": ("loadcap.lp", "solve_brute"),
    "lp.build": ("loadcap.lp", "LPBuilder.build"),
    "stress.optimal_stress_primal": ("loadcap.stress", "optimal_stress_primal"),
    "stress.kinematic_supremum": ("loadcap.stress", "kinematic_supremum"),
    "stress.dual_builder": ("loadcap.stress", "_dual_builder"),
    "stress.check_equilibrium": ("loadcap.stress", "check_equilibrium"),
    "capacity.generalized_K": ("loadcap.capacity", "generalized_K"),
    "capacity.generalized_K_dual_check": ("loadcap.capacity",
                                          "generalized_K_dual_check"),
    "capacity.limit_analysis": ("loadcap.capacity", "limit_analysis"),
    "capacity.kinematic_limit_check": ("loadcap.capacity",
                                       "kinematic_limit_check"),
}

CLI_SPAN = "cli.main"

NAME, START, END, PARENT, JOB, INFO = range(6)


def _lp_shape(prob, *args, **kwargs):
    m, n = prob.A.shape
    return {"rows": m, "cols": n}


_INFO = {"lp.solve": _lp_shape}


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.job = None

    def span(self, name: str, fn, *args, info=None, **kwargs):
        """Call fn(*args, **kwargs) inside a span; an exception that escapes
        is named in the span's info."""
        span = [name, perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, self.job, info]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span[INFO] = dict(span[INFO] or {}, error=type(exc).__name__)
            raise
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        info_of = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = info_of(*args, **kwargs) if info_of else None
            return self.span(name, fn, *args, info=info, **kwargs)
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "loadcap" or n.startswith("loadcap."))]
        for name, (modname, attr) in TRACED.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            traced = self._wrap(name, orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._undo.append((module, key, orig))
                        setattr(module, key, traced)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "job": s[JOB], "info": s[INFO]}) + "\n")


# ------------------------------------------------------- per-layer metrics

def _outer_time(spans, names) -> float:
    """Time in spans named in `names`, not counting one nested in another."""
    total = 0.0
    for s in spans:
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            total += s[END] - s[START]
    return total


def _self_time(spans, prefix) -> float:
    """Duration of spans whose name starts with `prefix`, minus the time
    their direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return sum(s[END] - s[START] - child[i] for i, s in enumerate(spans)
               if s[NAME].startswith(prefix))


def layer_metrics(spans, report_bytes: int) -> dict:
    """Per-layer figures of one traced pass, as {name: (value, unit)}."""
    def calls(name):
        return sum(1 for s in spans if s[NAME] == name)

    solves = [s for s in spans if s[NAME] == "lp.solve"]
    solve_ms = sorted((s[END] - s[START]) * 1e3 for s in solves)
    shapes = [(s[INFO]["rows"], s[INFO]["cols"]) for s in solves]
    tableau = max(((m + 1) * (n + m + 1) * 8 / 1e6 for m, n in shapes), default=0.0)
    return {
        "mesh.read_s": (_outer_time(spans, {"mesh.read_mesh", "mesh.validate"}), "s"),
        "kinematics.assemble_s": (_outer_time(spans, {"kinematics.assemble"}), "s"),
        "kinematics.assemble_calls": (calls("kinematics.assemble"), "count"),
        "lp.solves": (len(solves), "count"),
        "lp.solve_s": (_outer_time(spans, {"lp.solve"}), "s"),
        "lp.solve_p50_ms": (statistics.median(solve_ms) if solve_ms else 0.0, "ms"),
        "lp.solve_p99_ms": (_percentile(solve_ms, 0.99), "ms"),
        "lp.failed": (sum(1 for s in solves
                          if (s[INFO] or {}).get("error") == "LPIterationError"),
                      "count"),
        "lp.rows_max": (max((m for m, _ in shapes), default=0), "count"),
        "lp.cols_max": (max((n for _, n in shapes), default=0), "count"),
        "lp.tableau_mb_max": (tableau, "MB"),
        "lp.build_s": (_outer_time(spans, {"lp.build"}), "s"),
        "lp.builds": (calls("lp.build"), "count"),
        "stress.primal_s": (_outer_time(spans, {"stress.optimal_stress_primal"}), "s"),
        "stress.primal_calls": (calls("stress.optimal_stress_primal"), "count"),
        "stress.kinematic_s": (_outer_time(spans, {"stress.kinematic_supremum"}), "s"),
        "stress.kinematic_calls": (calls("stress.kinematic_supremum"), "count"),
        "stress.self_s": (_self_time(spans, "stress."), "s"),
        "capacity.enumerate_s": (_outer_time(spans, {"capacity.generalized_K"}), "s"),
        "capacity.traction_check_s": (
            _outer_time(spans, {"capacity.generalized_K_dual_check"}), "s"),
        "capacity.limit_s": (_outer_time(spans, {"capacity.limit_analysis",
                                                 "capacity.kinematic_limit_check"}), "s"),
        "cli.self_s": (_self_time(spans, CLI_SPAN), "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
    }


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def solves_per_job(spans) -> dict:
    counts = {}
    for s in spans:
        if s[NAME] == "lp.solve":
            counts[s[JOB]] = counts.get(s[JOB], 0) + 1
    return counts
