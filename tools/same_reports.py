"""Check that two checkouts give the same reports on the benchmark's jobs.

    python3 tools/same_reports.py BASE NEW

BASE and NEW are the roots of two checkouts.  The jobs come from
`bench/workloads.py` of the checkout that holds this script: the warm-up
jobs, `ladder` and `capacity` at seeds 1-2 and `commands` at seeds 1-20,
354 jobs, whose inputs are written once to a temporary directory.  Each
side runs every job in-process through its own `loadcap.cli.main`, one
side after the other, with one BLAS thread as `bench/run.py` has.  A job
differs if its exit code, stdout or stderr differ, the stderr's
`wall time:` line left out.  Each job that differs is printed, with what
differs and, where both stdouts are JSON reports, each top-level number
of the report that differs, with both values; the exit code is 1 if any
job differs.
"""

import os

if __name__ == "__main__":
    # one BLAS/OpenMP thread, set before numpy is first imported
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import make_jobs, warmup_jobs  # noqa: E402

SEEDS = {"ladder": (1, 2), "capacity": (1, 2), "commands": range(1, 21)}


def warmup(workdir: Path) -> list:
    """(name, argv) of each warm-up job, its inputs written under workdir."""
    return [(f"warm-up: {job.name}", job.argv)
            for job in warmup_jobs(workdir / "warmup")]


def benchmark_jobs(workdir: Path) -> list:
    """(name, argv) of the warm-up jobs and of each workload's jobs at its
    seeds, their inputs written under workdir."""
    jobs = warmup(workdir)
    for workload, seeds in SEEDS.items():
        for seed in seeds:
            inputs = workdir / f"{workload}-seed{seed}"
            jobs += [(f"{workload} seed {seed}: {job.name}", job.argv)
                     for job in make_jobs(workload, seed, inputs)]
    return jobs


def _loadcap_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "loadcap" or name.startswith("loadcap.")}


def import_cli(root: Path):
    """`loadcap.cli` of the checkout at root, imported afresh; the
    `loadcap` modules imported before are put back afterwards, so that
    the caller's own keep working."""
    src = (root / "src").resolve()
    in_use = _loadcap_modules()
    for name in in_use:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("loadcap.cli")
    finally:
        sys.path.remove(str(src))
        for name in _loadcap_modules():
            del sys.modules[name]
        sys.modules.update(in_use)
    if Path(cli.__file__).resolve().parent != src / "loadcap":
        raise SystemExit(f"error: loadcap imported from {cli.__file__}, not {src}")
    return cli


def run(cli, argv) -> tuple:
    """(exit code, stdout, stderr without its wall-time line) of one job;
    an exception out of `cli.main` is named in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a result to compare too
            code = f"raised {type(exc).__name__}: {exc}"
    stderr = "".join(line for line in err.getvalue().splitlines(keepends=True)
                     if not line.startswith("wall time: "))
    return code, out.getvalue(), stderr


def _report(stdout: str) -> dict:
    """The JSON object that stdout holds, or an empty one."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return {}
    return report if isinstance(report, dict) else {}


def moved_numbers(base_stdout: str, new_stdout: str) -> list:
    """(field, base value, new value) of each top-level number that both
    reports hold, in field order, whose JSON text differs."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    a, b = _report(base_stdout), _report(new_stdout)
    return [(k, a[k], b[k]) for k in sorted(a.keys() & b.keys())
            if number(a[k]) and number(b[k]) and json.dumps(a[k]) != json.dumps(b[k])]


def differing(base: Path, new: Path, jobs) -> list:
    """(name, the parts that differ, `moved_numbers` of its stdouts) of
    each job whose results differ between the checkouts at base and
    new."""
    results = []
    for root in (base, new):
        cli = import_cli(root)
        results.append([run(cli, argv) for _, argv in jobs])
    parts = ("exit code", "stdout", "stderr")
    return [(name, [part for part, x, y in zip(parts, a, b) if x != y],
             moved_numbers(a[1], b[1]))
            for (name, _), a, b in zip(jobs, *results) if a != b]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        jobs = benchmark_jobs(Path(workdir))
        found = differing(args.base, args.new, jobs)
    for name, parts, moved in found:
        print(f"differs: {name} ({', '.join(parts)})")
        for field, a, b in moved:
            print(f"  {field}: {a!r} -> {b!r}")
    print(f"{len(found)} of {len(jobs)} jobs differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
