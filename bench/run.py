"""Benchmark of the `loadcap` CLI, driven in-process through `cli.main`.

    python3 bench/run.py --workload ladder|capacity|commands --seed N \
        --seconds S --trace 0|1

One pass runs the workload's whole job list, one CLI command per job, and
passes repeat while another one fits in S seconds (at least one runs).
Every report is checked by `checks.py`.  With `--trace 0` the last stdout
line gives the end-to-end metrics, whose times are calibrated for the
host's speed (`hostspeed.py`); with `--trace 1` untraced and traced passes
alternate and it gives the per-layer metrics of the traced ones.
A record of the run, and its spans, are written under `bench/out/`.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


class BenchError(RuntimeError):
    pass


def import_cli():
    """Import `loadcap.cli` from this checkout's source tree, before numpy
    is loaded, and time it for the record.  This one first import, numpy's
    included, is too noisy a sample for `setup_s`."""
    if not (SRC / "loadcap" / "cli.py").is_file():
        raise BenchError(f"no loadcap source at {SRC / 'loadcap'}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import loadcap.cli as cli
    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != (SRC / "loadcap").resolve():
        raise BenchError(f"loadcap imported from {cli.__file__}, not {SRC}")
    return cli, import_s


def _relative(arg: str) -> str:
    try:
        return str(Path(arg).relative_to(ROOT))
    except ValueError:
        return arg


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    cli, import_s = import_cli()
    import numpy as np
    import harness
    import hostspeed
    import tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / stem
    jobs, warm, setup_raw, setup_probe = harness.setup(
        cli, args.workload, args.seed, workdir)
    ops_cache = {}
    warm_failed, warm_problems = harness.check_pass(warm, ops_cache)
    if warm_failed or warm_problems:
        raise BenchError(f"warm-up failed: {[o.job.name for o in warm_failed]} "
                         f"{warm_problems}")

    plain, traced = harness.measure(cli, jobs, args.seconds, bool(args.trace))

    attempted, failed, problems = 0, [], {}
    for p in plain + traced:
        f, found = harness.check_pass(p.outcomes, ops_cache)
        attempted += len(p.outcomes)
        failed += f
        problems.update(found)
    for name in sorted({o.job.name for o in failed if not o.job.expect_failure}):
        print(f"warning: unexpected failure of {name}", file=sys.stderr)
    for name, found in problems.items():
        print(f"wrong report from {name}: {'; '.join(found)}", file=sys.stderr)

    if args.trace:
        per_pass = [tracing.layer_metrics(
                        p.recorder.spans,
                        sum(len(o.stdout.encode()) for o in p.outcomes))
                    for p in traced]
        metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
                   for name, (_, unit) in per_pass[0].items()}
        metrics["trace.overhead_s"] = (
            harness.pass_time(traced, "wall_s") - harness.pass_time(plain, "wall_s"),
            "s")
    else:
        metrics = {
            "wall_s": (harness.pass_time(plain, "wall_s"), "s"),
            "cpu_s": (harness.pass_time(plain, "cpu_s"), "s"),
            "setup_s": (hostspeed.calibrated(statistics.median(setup_raw),
                                             setup_probe), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "MB"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    solves = tracing.solves_per_job(traced[0].recorder.spans) if traced else {}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__, "nproc": os.cpu_count(),
                        "machine": platform.machine()},
        "reference_probe_s": hostspeed.R0_S,
        "import_s": import_s,
        "setup_raw_s": setup_raw, "setup_probe_s": setup_probe,
        "passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "probes": len(p.probes),
                    "jobs_wall_cpu_probe_s": [
                        [o.wall_s, o.cpu_s, o.ref_wall_s, o.ref_cpu_s]
                        for o in p.outcomes]}
                   for p in plain],
        "traced_passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s} for p in traced],
        "jobs": [{"name": o.job.name, "argv": [_relative(a) for a in o.job.argv],
                  "exit": o.code, "wall_s": o.wall_s, "lp_solves": solves.get(i),
                  "stderr": _last_line(o.stderr)}
                 for i, o in enumerate(plain[0].outcomes)],
        "failed": sorted({o.job.name for o in failed}),
        "problems": problems,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for i, p in enumerate(traced):
        p.recorder.write(OUT / f"{stem}.pass{i}.spans.jsonl")
    shutil.rmtree(workdir)

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)
