"""Wall-clock record of large `loadcap` CLI cases on two checkouts.

    python3 tools/wall.py REFERENCE OUT

REFERENCE is the root of another checkout and OUT the JSON file to write.
Each case of `cases()` is one CLI command on an input that `bench/workloads.py`
builds: `analyze` on end-tension plates and on seeded random loads of
Kuhn cubes, and exact `capacity` on the graded 2x3 plate.  In each of
`ROUNDS` rounds, each case runs once on this checkout and once on
REFERENCE, the two in turn and the first of them alternating from case to
case and from round to round, each in a fresh Python process with one BLAS
thread, under a timeout of `TIMEOUT_S`.  For each case and tree OUT
records every run: the exit code (null after a timeout), the first stderr
line, the wall time, the CPU time and peak RSS of the process
(`os.wait4`), the report's `sigma_opt` or `K`, and what the process
counted of its LPs (`RUN_CLI`); and the median wall time of the runs.  A
case that fails or times out is recorded as it ended, with what it had
counted by then, never dropped.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import box_mesh, end_tension, random_traction, rect_mesh  # noqa: E402

TIMEOUT_S = 600.0
# runs per case and tree: the host's speed moves by tens of percent
# between runs a minute apart, so one run cannot show a ratio
ROUNDS = 3
# one BLAS/OpenMP thread in each case's process, as `bench/run.py` has
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# a timed-out process gets SIGTERM, on which it writes its counts, and
# SIGKILL this long after if it is still running
GRACE_S = 5.0
# the CLI with its LPs counted: the largest LP that a simplex loop ran on
# (rows x cols of A), the Gaussian pivots outside the loop (phase 1's crash
# and drive-out), the pivots and bound flips of each phase's loops and the
# `lp.solve` calls, written to stderr as one JSON line after `COUNTED`
# when the process exits, after a failure or a SIGTERM too.  A loop that
# SIGTERM cuts adds no count
COUNTED = "lp counts: "
RUN_CLI = """
import json, signal, sys
from loadcap import lp
from loadcap.cli import main

counts = dict(lp_rows=0, lp_cols=0, crash_pivots=0, phase1_pivots=0,
              phase2_pivots=0, solves=0)
looping = []
solve, simplex, pivot = lp.solve, lp._simplex, lp._pivot

def counted_solve(p):
    counts["solves"] += 1
    return solve(p)

def counted_simplex(*args):
    phase, (m, n) = args[-2:]
    if m * n > counts["lp_rows"] * counts["lp_cols"]:
        counts["lp_rows"], counts["lp_cols"] = m, n
    key = f"phase{phase}_pivots"
    looping.append(phase)
    try:
        status, pivots = simplex(*args)
    except lp.LPIterationError as error:
        counts[key] += error.iterations
        raise
    finally:
        looping.pop()
    counts[key] += pivots
    return status, pivots

def counted_pivot(*args):
    if not looping:
        counts["crash_pivots"] += 1
    return pivot(*args)

lp.solve, lp._simplex, lp._pivot = counted_solve, counted_simplex, counted_pivot
signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
try:
    sys.exit(main(sys.argv[1:]))
finally:
    print(COUNTED + json.dumps(counts), file=sys.stderr)
""".replace("COUNTED", repr(COUNTED))
# the fields of RUN_CLI's counts, null in a run that wrote none
COUNTS = ("lp_rows", "lp_cols", "crash_pivots", "phase1_pivots",
          "phase2_pivots", "solves")


def graded_plate(h: float) -> dict:
    """`rect_mesh(2, 3)` with x nodes {0, h, 1} and y nodes {0, h, 1 - h, 1}:
    a thin first column and thin top and bottom rows."""
    mesh = rect_mesh(2, 3)
    xs, ys = [0.0, h, 1.0], [0.0, h, 1.0 - h, 1.0]
    mesh["nodes"] = [[xs[round(x * 2)], ys[round(y * 3)]] for x, y in mesh["nodes"]]
    return mesh


def cases() -> list:
    """(name, command, mode, mesh, traction or None, extra argv) of each case."""
    out = []
    for mode, sizes in (("elastic", (16, 24)), ("plastic", (16, 20))):
        for n in sizes:
            mesh = rect_mesh(n, n)
            out.append((f"analyze {mode} {n}x{n} end tension", "analyze", mode,
                        mesh, end_tension(mesh), []))
    for n in (3, 4):
        mesh = box_mesh(n, n, n)
        out.append((f"analyze plastic Kuhn cube {n} random", "analyze", "plastic",
                    mesh, random_traction(mesh, np.random.default_rng(0)), []))
    for mode in ("plastic", "elastic"):
        for h in (1e-2, 1e-3):
            out.append((f"capacity exact {mode} graded 2x3 h={h:g}", "capacity",
                        mode, graded_plate(h), None, ["--method", "exact"]))
    return out


def write_inputs(workdir: Path) -> list:
    """(name, argv) of each case, its inputs written under workdir."""
    jobs = []
    for i, (name, command, mode, mesh, traction, extra) in enumerate(cases()):
        mesh_path = workdir / f"case{i}.mesh"
        mesh_path.write_text(json.dumps(mesh))
        argv = [command, str(mesh_path)]
        if traction is not None:
            traction_path = workdir / f"case{i}.traction"
            traction_path.write_text(json.dumps({"facets": traction.tolist()}))
            argv.append(str(traction_path))
        jobs.append((name, argv + ["--mode", mode] + extra))
    return jobs


def run_case(tree: Path, argv: list, workdir: Path) -> dict:
    """Run the CLI of tree on argv in a fresh process and record how it
    ended."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update({var: "1" for var in THREADS})
    with tempfile.TemporaryFile(dir=workdir) as out, \
            tempfile.TemporaryFile(dir=workdir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", RUN_CLI, *argv],
                                stdout=out, stderr=err, env=env)
        killed = threading.Event()
        grace = threading.Timer(GRACE_S, proc.kill)

        def stop():
            killed.set()
            proc.send_signal(signal.SIGTERM)
            grace.start()
        timer = threading.Timer(TIMEOUT_S, stop)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
        grace.cancel()
        timed_out = killed.is_set()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    result = None
    if proc.returncode == 0:
        report = json.loads(stdout)
        result = report.get("sigma_opt", report.get("K"))
    lines = stderr.strip().splitlines()
    counted = [i for i, line in enumerate(lines) if line.startswith(COUNTED)]
    counts = json.loads(lines.pop(counted[-1])[len(COUNTED):]) if counted else {}
    return {"exit": None if timed_out else proc.returncode,
            "timed_out": timed_out,
            "stderr": lines[0] if lines else "",
            "wall_s": round(wall, 4),
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 4),
            "peak_rss_mb": round(usage.ru_maxrss * 1024 / 1e6, 1),
            "result": result,
            **{key: counts.get(key) for key in COUNTS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reference", type=Path)
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    reference = args.reference.resolve()
    if not (reference / "src" / "loadcap" / "cli.py").is_file():
        parser.error(f"no loadcap source under {reference}")
    trees = {"this": ROOT, "reference": reference}
    with tempfile.TemporaryDirectory() as tmp:
        jobs = write_inputs(Path(tmp))
        # the input files by name: the directory is a temporary one
        records = [{"name": name,
                    "argv": [Path(a).name if a.startswith(tmp) else a
                             for a in case_argv],
                    "runs": {"this": [], "reference": []}}
                   for name, case_argv in jobs]
        for r in range(ROUNDS):
            for i, ((name, case_argv), record) in enumerate(zip(jobs, records)):
                order = ("this", "reference") if (i + r) % 2 == 0 else \
                    ("reference", "this")
                for side in order:
                    run = run_case(trees[side], case_argv, Path(tmp))
                    record["runs"][side].append(run)
                    print(f"{name} [{side}]: exit {run['exit']}, "
                          f"{run['wall_s']:.2f} s, {run['result']}, "
                          f"{run['lp_rows']} x {run['lp_cols']} LP, pivots "
                          f"{run['crash_pivots']} + {run['phase1_pivots']} + "
                          f"{run['phase2_pivots']}", file=sys.stderr)
    for record in records:
        record["median_wall_s"] = {
            side: statistics.median(run["wall_s"] for run in runs)
            for side, runs in record["runs"].items()}
    doc = {"timeout_s": TIMEOUT_S, "rounds": ROUNDS,
           "environment": {"python": platform.python_version(),
                           "numpy": np.__version__, "nproc": os.cpu_count(),
                           "machine": platform.machine()},
           "cases": records}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
