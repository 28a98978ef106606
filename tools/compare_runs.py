"""Compare the benchmark records that two checkouts wrote, job by job.

    python3 tools/compare_runs.py BASE NEW --workload commands --seeds 1 2 3

BASE and NEW are the roots of two checkouts.  For each seed it reads
`bench/out/<workload>-seed<N>-trace0.json` under both, as
`python3 bench/run.py --workload W --seed N --trace 0` writes them, so
that each seed is one pair of runs.  It prints:

- per end-to-end metric, the median of each side, the base side's
  quartiles, the number of pairs where NEW reads lower, and the gap of the
  medians over the base quartile spread;
- the raw pass time, the uncalibrated sum of a pass's job wall times:
  for each side the median over its runs of the run's median pass;
- per job, for each side the median over its runs of the job's median raw
  wall time, NEW over BASE, the pairs where NEW is faster, and each
  side's median host-speed probe (`bench/hostspeed.py`) around the job.

A job slower on one side while its probes read alike points at the
program; probes that moved with it point at the host.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(root: Path, workload: str, seed: int) -> dict:
    path = root / "bench" / "out" / f"{workload}-seed{seed}-trace0.json"
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(f"error: no record {path}")


def per_job(record: dict) -> dict:
    """{job name: (median raw wall s, median probe s)} over the passes."""
    names = [job["name"] for job in record["jobs"]]
    cols = zip(*(p["jobs_wall_cpu_probe_s"] for p in record["passes"]))
    out = {}
    for name, samples in zip(names, cols):
        probes = [s[2] for s in samples if s[2] is not None]
        out[name] = (statistics.median(s[0] for s in samples),
                     statistics.median(probes) if probes else float("nan"))
    return out


def raw_pass(record: dict) -> float:
    return statistics.median(sum(s[0] for s in p["jobs_wall_cpu_probe_s"])
                             for p in record["passes"])


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    pairs = [(load(args.base, args.workload, s), load(args.new, args.workload, s))
             for s in args.seeds]
    n = len(pairs)

    print(f"{args.workload}, {n} pairs (seeds {' '.join(map(str, args.seeds))})")
    for name, metric in pairs[0][0]["metrics"].items():
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        mb, mn = statistics.median(base), statistics.median(new)
        q1, q3 = quartiles(base)
        spread = q3 - q1
        ratio = f"{abs(mb - mn) / spread:.1f}x" if spread > 0 else "-"
        print(f"  {name:12s} {mb:.5g} [{q1:.5g}, {q3:.5g}] -> {mn:.5g} "
              f"{metric['unit']} ({100 * (mn / mb - 1):+.1f} %, lower in "
              f"{sum(c < b for b, c in zip(base, new))}/{n}; "
              f"gap over base spread {ratio})")
    base = [raw_pass(b) for b, _ in pairs]
    new = [raw_pass(c) for _, c in pairs]
    print(f"  raw pass     {1e3 * statistics.median(base):.2f} -> "
          f"{1e3 * statistics.median(new):.2f} ms (lower in "
          f"{sum(c < b for b, c in zip(base, new))}/{n})")

    jobs = [(per_job(b), per_job(c)) for b, c in pairs]
    width = max(len(name) for name in jobs[0][0])
    print(f"  {'job':{width}s}  base ms    new ms   new/base  faster  "
          f"probe base/new ms")
    for name in sorted(jobs[0][0]):
        wall_b = statistics.median(b[name][0] for b, _ in jobs)
        wall_n = statistics.median(c[name][0] for _, c in jobs)
        probe_b = statistics.median(b[name][1] for b, _ in jobs)
        probe_n = statistics.median(c[name][1] for _, c in jobs)
        faster = sum(c[name][0] < b[name][0] for b, c in jobs)
        print(f"  {name:{width}s} {1e3 * wall_b:8.2f} {1e3 * wall_n:9.2f} "
              f"{wall_n / wall_b:9.3f} {faster:5d}/{n}  "
              f"{1e3 * probe_b:6.2f} / {1e3 * probe_n:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
