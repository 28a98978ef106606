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
(`os.wait4`), and the report's `sigma_opt` or `K`; and the median wall
time of the runs.  A case that fails or times out is recorded as it
ended, never dropped.
"""

import argparse
import json
import os
import platform
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
RUN_CLI = "import sys; from loadcap.cli import main; sys.exit(main(sys.argv[1:]))"


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

        def kill():
            killed.set()
            proc.kill()
        timer = threading.Timer(TIMEOUT_S, kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
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
    return {"exit": None if timed_out else proc.returncode,
            "timed_out": timed_out,
            "stderr": lines[0] if lines else "",
            "wall_s": round(wall, 4),
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 4),
            "peak_rss_mb": round(usage.ru_maxrss * 1024 / 1e6, 1),
            "result": result}


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
                          f"{run['wall_s']:.2f} s, {run['result']}", file=sys.stderr)
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
