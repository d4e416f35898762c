"""memdiff benchmark: time to solution at a checked accuracy, per workload.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; memdiff is imported from ``src/``.
One client calls the library in a closed loop (the next operation starts
when the previous one has returned and been checked) for ``--seconds``
seconds, after one untimed warm-up operation.  The warm-up and the first
timed operation use the same inputs, and their outputs must be identical.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median seconds
per operation), ``setup_s`` (median seconds of several fresh processes that
import memdiff and generate the inputs, spread over the run) and
``peak_rss_mb`` (peak resident memory of this process).  Every time is
scaled to a reference machine speed by ``Clock``.  ``--trace 1`` alternates
plain and traced operations and reports the per-layer split
(``tracing.PER_LAYER``) of the traced ones: median times, and the counts of
the first traced operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and a readable summary.  Exit code 2 means the
benchmark could not run (for example, no ``src/memdiff`` in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = Path("bench") / "out"  # relative to ROOT, which is made the working directory

DEFAULT_SEED = 1
#: Seed kept out of development; quote it when verifying a claimed gain.
HELD_OUT_SEED = 20261017
#: Separate processes timed for setup_s, spread over the run.
SETUP_PROBES = 5
#: Clock weight for set-up (imports): the spread of setup_s over ten seeds
#: was 19-24% with weight 0 and 9-11% with weight 0.5.
SETUP_BIGINT_WEIGHT = 0.5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("heat2d_converge", "frac2d_converge", "cli_solve_csv", "visco3d_rate")


class BenchmarkUnavailable(Exception):
    """The checkout cannot be benchmarked (missing sources)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_to_one_cpu():
    """One client, one thread, one CPU.

    The library's vector operations are far below any BLAS threading
    threshold, so pool threads would only add wake-ups.  Pinning keeps the
    operations, the Clock's calibration loop and the set-up processes (which
    inherit the affinity) on the same CPU, so the calibration sees the same
    contention as the work it scales.
    """
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_memdiff():
    """Import memdiff from this checkout's src/, never from anywhere else."""
    if not (SRC / "memdiff" / "__init__.py").is_file():
        raise BenchmarkUnavailable(f"no memdiff package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import memdiff

    if not Path(memdiff.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkUnavailable(f"memdiff imported from {memdiff.__file__}, not {SRC}")
    import workloads

    return memdiff, workloads


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, nproc_available) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": nproc_available,
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def workdir_for(args) -> Path:
    return OUT / f"{args.workload}-seed{args.seed}"


def setup_probe(args) -> float:
    """Seconds for the memdiff import plus generating the workload's inputs."""
    start = time.perf_counter()
    _, workloads = import_memdiff()
    workdir = workdir_for(args)
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.WORKLOADS[args.workload].inputs(args.seed, workdir)
    return time.perf_counter() - start


def setup_sample(args) -> float:
    """One set-up measurement in a fresh interpreter (see setup_probe)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Loop:
    """Closed loop of one client: runs, times, checks and counts operations."""

    def __init__(self, workload, inputs, log=sys.stderr):
        self.workload = workload
        self.inputs = inputs
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.reference = None  # fingerprint of the warm-up output

    def attempt(self, p, expect=None):
        """One operation: (seconds in the library call, checked output or None)."""
        start = time.perf_counter()
        out = None
        try:
            raw = self.workload.op(p)
            elapsed = time.perf_counter() - start
            out = self.workload.collect(p, raw)
            problems = self.workload.check(p, out)
            if expect is not None and self.workload.fingerprint(out) != expect:
                problems.append("output differs from an earlier run on identical inputs")
        except Exception:  # a failing operation is counted; the loop goes on
            elapsed = time.perf_counter() - start
            problems = ["raised:\n" + traceback.format_exc()]
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"{self.workload.name}: operation failed: {'; '.join(problems)}", file=self.log)
        return elapsed, out

    def warm_up(self):
        _, out = self.attempt(self.inputs[0])
        if out is not None:
            self.reference = self.workload.fingerprint(out)

    def timed(self, k):
        """Timed operation number k (k = 0 repeats the warm-up inputs)."""
        expect = self.reference if k == 0 else None
        return self.attempt(self.inputs[k % len(self.inputs)], expect)


class Clock:
    """Scales measured seconds to the speed of a quiet reference machine.

    On a shared virtual machine (x86-64, 2 vCPUs) everything ran 1.5-2.5x
    slower for phases of 5 s to over a minute, so a run's median operation
    time depended mostly on the phase the run landed in (0.40 s to 0.86 s
    for the same heat2d_converge operation).  After every
    sample, two fixed loops are timed: small numpy calls, like the solver's
    inner loops, and big-integer arithmetic, like mpmath's.  The sample is
    divided by their slowdown against REFERENCE_S, a geometric mean with
    weight ``bigint_weight`` on the big-integer loop, because the two kinds
    of work slow down differently.  Over 200 s of alternating operations the
    scaled medians of 20-s windows had a coefficient of variation of 2.4%
    for heat2d_converge with weight 0 (raw: 10%) and 2.4% for
    frac2d_converge with weight 0.5 (raw: 14%; weight 0: 4.8%).
    """

    #: Fastest times of the numpy and the big-integer loop seen on that
    #: machine; they only set the unit.
    REFERENCE_S = (0.0097, 0.0056)

    def __init__(self, bigint_weight: float):
        import numpy as np

        self._np = np
        self._a = np.linspace(0.0, 1.0, 400)
        self._b = self._a[::-1].copy()
        self.bigint_weight = bigint_weight
        self.factors = []
        self._last = self.measure()

    def measure(self) -> tuple:
        """Seconds of the numpy loop and of the big-integer loop."""
        dot, a, b = self._np.dot, self._a, self._b
        start = time.perf_counter()
        acc, n = 0.0, 1
        for _ in range(10000):
            acc += float(dot(a, b))
            n = (n * 1103515245 + 12345) % 2147483648
        middle = time.perf_counter()
        x, m = 3**150, (1 << 256) - 189
        for i in range(20000):
            x = (x * 0x9E3779B97F4A7C15 + i) % m
        end = time.perf_counter()
        return middle - start, end - middle

    def scale(self, seconds: float, bigint_weight: float | None = None) -> float:
        """``seconds`` just measured, at reference speed.

        The slowdown is the weighted geometric mean of the two loops'
        slowdowns, with the loop times averaged over just before and after
        the sample.
        """
        now = self.measure()
        w = self.bigint_weight if bigint_weight is None else bigint_weight
        slowdown = 1.0
        for ref, before, after, weight in zip(self.REFERENCE_S, self._last, now, (1.0 - w, w)):
            slowdown *= (0.5 * (before + after) / ref) ** weight
        self._last = now
        self.factors.append(1.0 / slowdown)
        return seconds / slowdown


def run_plain(loop, seconds, probe):
    """Scaled operation times, and SETUP_PROBES scaled set-up times spread
    over the run."""
    loop.warm_up()
    clock = Clock(loop.workload.BIGINT_WEIGHT)
    times, setups = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        if len(setups) < SETUP_PROBES and time.perf_counter() - start >= len(setups) * seconds / SETUP_PROBES:
            setups.append(clock.scale(probe(), SETUP_BIGINT_WEIGHT))
        elapsed, _ = loop.timed(len(times))
        times.append(clock.scale(elapsed))
    while len(setups) < SETUP_PROBES:
        setups.append(clock.scale(probe(), SETUP_BIGINT_WEIGHT))
    return times, setups, clock


def run_traced(loop, seconds, tracer_factory, per_op_metrics):
    """Alternate plain and traced operations on the same inputs."""
    loop.warm_up()
    clock = Clock(loop.workload.BIGINT_WEIGHT)
    plain, traced, per_op, spans = [], [], [], []
    start = time.perf_counter()
    k = 0
    while not traced or time.perf_counter() - start < seconds:
        for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_turn:
                with tracer_factory() as tracer:
                    elapsed, out = loop.timed(k)
                scaled = clock.scale(elapsed)
                op_spans = tracer.take()
                csv_bytes = loop.workload.csv_bytes(out) if out is not None else 0
                per_op.append(per_op_metrics(op_spans, csv_bytes, scaled / elapsed))
                spans.append(op_spans)
                traced.append(scaled)
            else:
                elapsed, _ = loop.timed(k)
                plain.append(clock.scale(elapsed))
        k += 1
    return plain, traced, per_op, spans


def write_spans(path: Path, spans_per_op):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for op, spans in enumerate(spans_per_op):
            for s in spans:
                fh.write(json.dumps({"op": op, "name": s.name, "layer": s.layer,
                                     "start": s.start, "end": s.end, "parent": s.parent,
                                     "counts": s.counts, "error": s.error}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    nproc_before = nproc()
    os.chdir(ROOT)
    pin_to_one_cpu()
    try:
        if args.setup_probe:
            print(repr(setup_probe(args)))
            return 0
        _, workloads = import_memdiff()
    except BenchmarkUnavailable as exc:
        print(f"benchmark unavailable: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    workdir = workdir_for(args)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        loop = Loop(workload, workload.inputs(args.seed, workdir))
        print("# env: " + json.dumps(environment(args, nproc_before), sort_keys=True))
        if args.trace:
            import tracing

            plain, traced, per_op, spans = run_traced(
                loop, args.seconds, tracing.Tracer, tracing.per_op_metrics)
            # Counts from the first traced operation, whose inputs are fixed by
            # the seed; times are medians over all traced operations.
            metrics = {name: per_op[0][name] if unit == "count"
                       else statistics.median(op[name] for op in per_op)
                       for name, unit in tracing.PER_LAYER.items() if name != "trace.overhead_s"}
            metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            units = tracing.PER_LAYER
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            write_spans(span_file, spans)
            print(f"# {len(traced)} traced and {len(plain)} plain operations; spans in {span_file}")
        else:
            times, setups, clock = run_plain(loop, args.seconds, lambda: setup_sample(args))
            metrics = {
                "wall_s": statistics.median(times),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
            print(f"# {len(times)} operations, {len(setups)} set-up processes; scaled seconds per "
                  f"operation: min {min(times):.4f}, median {metrics['wall_s']:.4f}, "
                  f"max {max(times):.4f}; speed factors applied: min "
                  f"{min(clock.factors):.3f}, median {statistics.median(clock.factors):.3f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    error_rate = loop.failed / loop.attempted
    print(f"# error_rate: {error_rate} ({loop.failed} of {loop.attempted} operations failed)")
    for name, value in metrics.items():
        print(f"# {name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
