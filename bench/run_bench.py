"""End-to-end benchmark of the ``varexp`` command.

    python3 bench/run_bench.py --workload theorem2-1d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each workload runs one ``varexp``
subcommand as a fresh process, back to back, for about ``--seconds`` seconds
(at least once), and checks every repetition's outputs with
``checks.py``.  Times leave out each process's run-queue delay, are
corrected for the host's speed, measured on the same CPU by ``probe.py``,
and are the lowest over the repetitions;
``setup_s`` is the median over several fresh interpreters that import
``varexp.cli`` and parse the workload's config.  The README gives the
reasons and the measured spreads.

``--trace 1`` instead runs the workload in this process three times: untraced,
with every public function of the layers wrapped (see ``layer_trace.py``), and
untraced again.  It prints the per-layer metrics of the traced run and the
tracing overhead against the mean of the two untraced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output
check prints ``"correct": false`` and exits 1; operations the program
itself fails (see the README) are counted in ``failed`` and exit 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_runs"
# One BLAS thread for every run: the default threads of OpenBLAS spin on
# the second core of a two-core host and make both wall and CPU time
# depend on what else the host runs.  Set before numpy is imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

SETUP_LAUNCHES = 11
# CPU seconds of one probe kernel (see probe.py) on the reference host, a
# 2-core 2.1 GHz Xeon virtual machine at its usual speed.
PROBE_REFERENCE_S = 1.8e-3
MIN_PROBE_SAMPLES = 5


@dataclasses.dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    config: str  # relative to the checkout root


# Why each workload is here is recorded in BENCHMARK.json and the README.
WORKLOADS = {
    "theorem2-1d": Workload(("solve", "--theorem", "2"), "configs/default.json"),
    "pairs-1d": Workload(("pairs",), "configs/default.json"),
    "eigen-2d-varp": Workload(("eigen",), "bench/eigen_2d_varp.json"),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "points_certified": "count"}


def _units(name: str) -> str:
    if name.endswith(".us"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "report.bytes":
        return "B"
    if name == "optimize.trials_per_step":
        return "evals/step"
    return "count"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _cli_argv(work: Workload, outdir: Path) -> list[str]:
    return [*work.args, "--config", str(ROOT / work.config), "--out", str(outdir)]


@dataclasses.dataclass
class Interval:
    """A measured span: monotonic start and end, and its seconds less the
    run-queue delay, before the host-speed correction."""

    start: float
    end: float
    seconds: float


class HostProbe:
    """Runs ``probe.py`` on the benchmark's CPU while processes are measured,
    and turns measured seconds into seconds of the reference host.

    A host that runs at a fraction f of the reference speed over an interval
    stretches the interval's seconds by 1/f; the probe kernel, timed
    throughout, gives f as the mean of PROBE_REFERENCE_S over its CPU times.
    """

    def __init__(self, path: Path):
        self.path = path
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> "HostProbe":
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "probe.py"), str(self.path)],
                                     cwd=ROOT, stdin=subprocess.DEVNULL)
        deadline = time.monotonic() + 30.0
        while self.read() < 3:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the host-speed probe did not start")
            time.sleep(0.05)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.wait()
        self.read()

    def read(self) -> int:
        """Load the samples written so far; returns their number."""
        samples = []
        if self.path.exists():
            for line in self.path.read_text().splitlines():
                fields = line.split()
                if len(fields) == 2:  # the last line may be cut off
                    samples.append((float(fields[0]), float(fields[1])))
        self.samples = samples
        return len(samples)

    def speed(self, start: float, end: float) -> float:
        """The host's speed over [start, end] as a share of the reference."""
        ratios = [PROBE_REFERENCE_S / cpu for t, cpu in self.samples if start <= t <= end]
        if len(ratios) < MIN_PROBE_SAMPLES:
            raise RuntimeError(f"{len(ratios)} probe samples in a {end - start:.2f} s interval")
        return statistics.fmean(ratios)


@dataclasses.dataclass
class Repetition:
    outdir: Path
    wall: Interval
    cpu_s: float
    peak_rss_mb: float


def _run_delay(schedstat: str) -> float:
    """Seconds a task sat runnable while its CPU ran something else: the
    second field of /proc/<pid>/schedstat."""
    with open(schedstat) as fh:
        return int(fh.read().split()[1]) * 1e-9


def run_process(argv: list[str], output) -> tuple[Interval, int, os.struct_rusage]:
    """Run one process to its end: its interval, exit code and rusage.

    The interval's seconds are launch to exit less the process's run-queue
    delay.  On a shared machine the CPU is at times taken by other tasks
    for minutes (a run of 18 s of CPU once took 39 s of wall), and that
    waiting is the host's, not the program's.  The delay is read from the
    exited process before it is reaped."""
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                            stdout=output, stderr=subprocess.STDOUT)
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        t1 = time.monotonic()
        waited = _run_delay(f"/proc/{proc.pid}/schedstat")
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Interval(t0, t1, t1 - t0 - waited), proc.returncode, usage


def run_cli(work: Workload, outdir: Path) -> Repetition:
    """One ``varexp`` process; wall, CPU and peak RSS of that process alone."""
    outdir.mkdir(parents=True)
    argv = [sys.executable, "-m", "varexp.cli", *_cli_argv(work, outdir)]
    with open(outdir / "cli.log", "wb") as log:
        wall, code, usage = run_process(argv, log)
    # Exit 2 is the program's own report of a partial result; the counted
    # failures cover it.  Anything else means no usable output.
    if code not in (0, 2):
        raise RuntimeError(f"varexp exited {code}; see {outdir / 'cli.log'}")
    return Repetition(outdir, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _pin_to_one_cpu() -> None:
    """Pin this process, and so every process it starts, to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def time_setup(work: Workload) -> list[Interval]:
    """Launch-to-exit times of fresh interpreters that import ``varexp.cli``
    and parse the workload's config.  One untimed launch first, so the
    timed ones find compiled bytecode as an installed package would."""
    code = ("import sys, varexp.cli, varexp.config; "
            "varexp.config.parse_config(sys.argv[1])")
    argv = [sys.executable, "-c", code, str(ROOT / work.config)]
    launches = []
    for i in range(SETUP_LAUNCHES + 1):
        launch, status, _ = run_process(argv, subprocess.DEVNULL)
        if status != 0:
            raise RuntimeError(f"set-up launch exited {status}")
        if i:
            launches.append(launch)
    return launches


def _checker(name: str, prob, seed: int):
    """The output check of a workload, as a function of the output dir."""
    import numpy as np

    import checks

    if name == "eigen-2d-varp":
        reference = checks.eigen_reference(prob, np.random.default_rng(seed))
        return lambda outdir: checks.check_eigen(outdir, prob, reference)
    check = checks.check_theorem2 if name == "theorem2-1d" else checks.check_pairs
    return lambda outdir: check(outdir, prob, np.random.default_rng(seed))


def measure_untraced(work: Workload, seconds: float, workdir: Path):
    """End-to-end metrics of back-to-back ``varexp`` processes, in seconds of
    the reference host, and the output dirs to check.

    This process, its children and the probe share one CPU.  It imports
    neither numpy nor varexp before it is done: a child's peak RSS as
    ``wait4`` reports it starts from the parent's resident size at fork."""
    _pin_to_one_cpu()
    with HostProbe(workdir / "probe.txt") as probe:
        launches = time_setup(work)
        reps: list[Repetition] = []
        speeds: list[float] = []
        walls: list[float] = []
        # Repeat while the next repetition is expected to end within
        # ``seconds``, counted in corrected seconds: they do not drift with
        # the host, so a workload makes as many repetitions on a slow host
        # as on a fast one.
        while not walls or sum(walls) * (len(walls) + 1) / len(walls) <= seconds:
            rep = run_cli(work, workdir / f"rep{len(reps)}")
            probe.read()
            speeds.append(probe.speed(rep.wall.start, rep.wall.end))
            walls.append(rep.wall.seconds * speeds[-1])
            reps.append(rep)
    # One speed for all launches: a single launch is too short to sample.
    setup_speed = probe.speed(launches[0].start, launches[-1].end)
    metrics = {
        "wall_s": min(walls),
        "cpu_s": min(r.cpu_s * k for r, k in zip(reps, speeds)),
        "setup_s": statistics.median(x.seconds * setup_speed for x in launches),
        "peak_rss_mb": min(r.peak_rss_mb for r in reps),
    }
    raw = {
        "host_speed": {"setup": setup_speed, "repetitions": speeds},
        "setup_s": [x.seconds for x in launches],
        "launch_to_exit_s": [r.wall.end - r.wall.start for r in reps],
        "wall_s": [r.wall.seconds for r in reps],
        "cpu_s": [r.cpu_s for r in reps],
        "peak_rss_mb": [r.peak_rss_mb for r in reps],
    }
    (workdir / "raw.json").write_text(json.dumps(raw, indent=1) + "\n")
    return [r.outdir for r in reps], metrics


def measure_traced(work: Workload, workdir: Path):
    """Per-layer metrics of one traced in-process run, and its output dir."""
    import varexp.cli

    from layer_trace import Tracer, layer_metrics

    statuses = []

    def timed_main(outdir: Path) -> Interval:
        waited = _run_delay("/proc/thread-self/schedstat")
        t0 = time.monotonic()
        statuses.append(varexp.cli.main(_cli_argv(work, outdir)))
        t1 = time.monotonic()
        waited = _run_delay("/proc/thread-self/schedstat") - waited
        return Interval(t0, t1, t1 - t0 - waited)

    # The traced run sits between two untraced ones, all three corrected
    # for the host's speed, so that the overhead is the tracer's alone.
    _pin_to_one_cpu()
    traced_dir = workdir / "traced"
    tracer = Tracer()
    with HostProbe(workdir / "probe.txt") as probe:
        runs = [timed_main(workdir / "untraced_before")]
        tracer.install()
        try:
            runs.append(timed_main(traced_dir))
        finally:
            tracer.uninstall()
        runs.append(timed_main(workdir / "untraced_after"))
    if any(status not in (0, 2) for status in statuses):
        raise RuntimeError(f"varexp exited {statuses}")
    before_s, traced_s, after_s = (x.seconds * probe.speed(x.start, x.end) for x in runs)
    tracer.write(workdir / "spans.npz")
    metrics = layer_metrics(tracer)
    metrics["report.bytes"] = sum(f.stat().st_size for f in traced_dir.iterdir())
    metrics["trace.overhead_s"] = traced_s - 0.5 * (before_s + after_s)
    return [traced_dir], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so that no probe or varexp process outlives us.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    work = WORKLOADS[args.workload]
    missing = [p for p in ("src/varexp/cli.py", work.config) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a varexp checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if args.trace:
        outdirs, metrics = measure_traced(work, workdir)
        units = {k: _units(k) for k in metrics}
    else:
        outdirs, metrics = measure_untraced(work, args.seconds, workdir)
        units = END_TO_END_UNITS

    import checks
    from varexp.config import parse_config

    prob, _ = parse_config(ROOT / work.config)
    try:
        check = _checker(args.workload, prob, args.seed)
        outcomes = [check(outdir) for outdir in outdirs]
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1
    if not args.trace:
        metrics["points_certified"] = min(o.certified for o in outcomes)
    result = {
        "correct": True,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
