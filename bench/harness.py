"""Runs jobs through `loadcap.cli.main` in this process and checks them."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

from checks import Operators, check_report
from hostspeed import Probe, calibrated
from tracing import CLI_SPAN, Recorder
from workloads import make_jobs, warmup_jobs

SETUP_REPEATS = 11


@dataclass
class Outcome:
    job: object
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    # median host-speed probe around and during the job, when probed
    ref_wall_s: float | None = None
    ref_cpu_s: float | None = None


@dataclass
class Pass:
    outcomes: list
    wall_s: float      # raw, probes included
    cpu_s: float
    probes: list       # Probe.samples
    recorder: Recorder | None = None


def _call(cli, job, recorder, job_id) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if recorder is None:
                code = cli.main(job.argv)
            else:
                recorder.job = job_id
                code = recorder.span(CLI_SPAN, cli.main, job.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # a traceback out of the CLI is a failed job, not a dead benchmark
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_job(cli, job, recorder=None, job_id=None, probe=None) -> Outcome:
    """Run one job; with a `probe`, time it between host-speed probes."""
    if probe is None:
        c0, t0 = time.process_time(), time.perf_counter()
        result = _call(cli, job, recorder, job_id)
        return Outcome(job, *result, time.perf_counter() - t0,
                       time.process_time() - c0)
    result, wall, cpu, ref_wall, ref_cpu = probe.timed(
        _call, cli, job, recorder, job_id)
    return Outcome(job, *result, wall, cpu, ref_wall, ref_cpu)


def run_pass(cli, jobs, traced: bool = False) -> Pass:
    """Run every job once, with the layers wrapped when `traced`.  Untraced
    passes also probe the host's speed inside the jobs; traced passes only
    around them, so that no probe falls inside a span."""
    recorder = Recorder() if traced else None
    probe = Probe()
    if recorder:
        recorder.install()
    else:
        probe.start_alarm()
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        outcomes = [run_job(cli, job, recorder, i, probe)
                    for i, job in enumerate(jobs)]
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        if recorder:
            recorder.uninstall()
        else:
            probe.stop_alarm()
    return Pass(outcomes, wall, cpu, probe.samples, recorder)


def check_pass(outcomes, ops_cache: dict):
    """Returns (failed outcomes, {job name: problems}) for one pass."""
    failed, problems, certified = [], {}, {}
    # analyze reports first: limit jobs compare against them
    for o in sorted(outcomes, key=lambda o: o.job.command != "analyze"):
        job = o.job
        if o.code != 0:
            failed.append(o)
            continue
        try:
            report = json.loads(o.stdout)
        except json.JSONDecodeError as exc:
            problems[job.name] = [f"report is not JSON: {exc}"]
            continue
        ops = None
        if job.command in ("analyze", "capacity"):
            if job.name not in ops_cache:
                ops_cache[job.name] = Operators(job.mesh)
            ops = ops_cache[job.name]
        try:
            found = check_report(job, report, ops, certified)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            found = [f"malformed report: {type(exc).__name__}: {exc}"]
        if found:
            problems[job.name] = found
        elif job.command == "analyze":
            certified[job.name] = float(report["sigma_opt"])
    return failed, problems


def _loadcap_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "loadcap" or name.startswith("loadcap.")}


def reimport_cli():
    """Import `loadcap.cli` and the package afresh, then put the modules in
    use back, so that `cli` and the tracing wrappers keep one set.  numpy
    and the standard library stay loaded: this is the import work that is
    `loadcap`'s own."""
    in_use = _loadcap_modules()
    for name in in_use:
        del sys.modules[name]
    try:
        importlib.import_module("loadcap.cli")
    finally:
        for name in _loadcap_modules():
            del sys.modules[name]
        sys.modules.update(in_use)


def setup(cli, workload: str, seed: int, workdir):
    """SETUP_REPEATS times: import `loadcap` afresh, generate the inputs and
    run the warm-up jobs, with a host-speed probe before each repeat and
    after the last.  One repeat is too short to be calibrated by its own
    two probes, so the median repeat is calibrated by the median probe of
    the whole set-up.
    Returns (jobs, warm-up outcomes, seconds of each repeat, median probe)."""
    probe, times = Probe(), []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        t0 = time.perf_counter()
        reimport_cli()
        jobs = make_jobs(workload, seed, workdir / "inputs")
        warm = [run_job(cli, job) for job in warmup_jobs(workdir / "warmup")]
        times.append(time.perf_counter() - t0)
    probe.sample()
    return jobs, warm, times, statistics.median(s[1] for s in probe.samples)


def pass_time(passes, attr: str) -> float:
    """Sum over the jobs of the median over `passes` of each job's
    calibrated `attr` ("wall_s" or "cpu_s")."""
    ref = {"wall_s": "ref_wall_s", "cpu_s": "ref_cpu_s"}[attr]
    return sum(statistics.median(calibrated(getattr(p.outcomes[i], attr),
                                            getattr(p.outcomes[i], ref))
                                 for p in passes)
               for i in range(len(passes[0].outcomes)))


def measure(cli, jobs, seconds: float, trace: bool):
    """Run passes while another round fits in `seconds`, at least one.
    A round is one untraced pass, followed by one traced pass when `trace`.
    Returns (untraced passes, traced passes)."""
    plain, traced = [], []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        plain.append(run_pass(cli, jobs))
        if trace:
            traced.append(run_pass(cli, jobs, traced=True))
        now = time.perf_counter()
        if now - t_start + (now - t_round) > seconds:
            return plain, traced
