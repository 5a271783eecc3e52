"""wregret benchmark: one workload per invocation, every answer checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics.  ``setup_s`` is the median
import time of ``wregret`` and ``wregret.cli`` over several fresh
interpreters.  Then one client runs a closed loop of ops until their
measured time reaches ``--seconds``, finishing the schedule cycle it is in
so that every run holds the same mix of op kinds.  An op is one in-process
``wregret.cli.main(argv)`` call, timed from the call until its text has
been written; the oracle checks the text afterwards, outside that interval.
Every reported time is calibrated against a reference task timed next to
it (see `calibration`).

``--trace 1`` measures the per-layer metrics on a fixed seeded list of two
schedule cycles, so that counts repeat exactly: the list runs once untraced
and once under the outside-in tracer, and ``trace.overhead_ratio`` is the
ratio of the two.  Spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))

from calibration import calibrate, reference_seconds  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
TRACE_CYCLES = 2

_IMPORT_PROBE = (
    "import time\n"
    "from calibration import reference_seconds\n"
    "before = reference_seconds()\n"
    "start = time.perf_counter()\n"
    "import wregret, wregret.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(elapsed, before, reference_seconds(), wregret.__file__)\n"
)


def _inside(path: str, directory: Path) -> bool:
    return Path(path).resolve().is_relative_to(directory.resolve())


def measure_setup(samples: int) -> list[float]:
    """Import time of wregret and wregret.cli in fresh interpreters.

    One unmeasured import first writes the bytecode caches, a one-time cost
    that later invocations do not pay.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times = []
    for _ in range(samples + 1):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        elapsed, before, after, location = done.stdout.split()
        if not _inside(location, SRC):
            raise SystemExit(f"wregret was imported from {location}, not {SRC}")
        times.append(calibrate(float(elapsed), float(before), float(after)))
    return times[1:]


class Runner:
    """Executes ops in this process and checks their answers.

    ``latencies`` are calibrated op times; ``wall`` sums the measured ones.
    """

    def __init__(self, cli, tracer=None) -> None:
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.wall = 0.0

    def execute(self, op) -> None:
        if self.tracer is not None:
            self.tracer.begin_op(self.attempted)
        out, err = io.StringIO(), io.StringIO()
        code, crash = None, None
        before = reference_seconds()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except Exception:  # a traceback is a failed op, not a dead run
                crash = traceback.format_exc()
            latency = perf_counter() - start
        self.latencies.append(calibrate(latency, before, reference_seconds()))
        self.wall += latency
        self.attempted += 1
        output = out.getvalue()
        if self.tracer is not None:
            self.tracer.record_output(output)
        if crash is not None:
            reason = "traceback:\n" + crash
        elif code != 0:
            reason = f"exit code {code}: {err.getvalue().strip()}"
        else:
            try:
                reason = op.check(output)
            except Exception as exc:  # unparseable output is a wrong answer
                reason = f"unreadable answer ({type(exc).__name__}: {exc})"
        if reason is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {op.kind} {' '.join(op.argv)}: {reason}", file=sys.stderr)


def tail(latencies: list[float], percentile: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def measured_run(workload, seed: int, seconds: float, workdir: Path, cli):
    """Closed loop until ``seconds`` of op time, ending on a whole schedule
    cycle so that every run holds the same mix of op kinds."""
    runner = Runner(cli)
    cycle = len(workload.schedule)
    while runner.wall < seconds or runner.attempted % cycle:
        runner.execute(workload.op(seed, runner.attempted, workdir))
    busy = sum(runner.latencies)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_s, beyond = tail(runner.latencies, workload.tail_percentile)
    print(
        f"# {workload.name} seed {seed}: {runner.attempted} ops in {runner.wall:.3f} s "
        f"({busy:.3f} s calibrated); op_tail_ms is p{workload.tail_percentile} "
        f"of {runner.attempted} samples, {beyond} beyond it"
    )
    metrics = {
        "ops_per_s": (runner.attempted / busy, "1/s"),
        "op_p50_ms": (statistics.median(runner.latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "pass_ratio": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    return runner, metrics


def traced_run(ops, cli):
    """Run the ops untraced, then traced; per-layer metrics and the tracer."""
    runner = Runner(cli)
    for op in ops:
        runner.execute(op)
    plain = sum(runner.latencies)
    tracer = Tracer()
    runner.tracer = tracer
    tracer.install()
    try:
        for op in ops:
            runner.execute(op)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = ((sum(runner.latencies) - plain) / plain, "ratio")
    return runner, metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wregret" / "cli.py").is_file():
        print(f"error: no wregret sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setup = None if args.trace else measure_setup(SETUP_SAMPLES)

    sys.path.insert(0, str(SRC))
    import wregret.cli as cli

    if not _inside(cli.__file__, SRC):
        print(f"error: wregret was imported from {cli.__file__}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            count = TRACE_CYCLES * len(workload.schedule)
            ops = [workload.op(args.seed, i, workdir) for i in range(count)]
            runner, metrics, tracer = traced_run(ops, cli)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz")
            if tracer.absent:
                print(f"# absent hook points: {', '.join(tracer.absent)}")
        else:
            runner, metrics = measured_run(
                workload, args.seed, args.seconds, workdir, cli
            )
            metrics["setup_s"] = (statistics.median(setup), "s")
    finally:
        shutil.rmtree(workdir)
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
