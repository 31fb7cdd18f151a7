"""Run one elimkit benchmark workload and print its metrics.

    python3 bench/run.py --workload numeric --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory.  Every call is made in this process, one
after another (a closed loop with a single client), each under a
deadline.  A call that misses its deadline, raises, or returns a value the
reference disagrees with counts as failed; failed calls are listed one per
line.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5
# Rounds measured by a traced run, whatever --seconds says, so that its
# totals cover the same calls on every commit.
TRACE_ROUNDS = {"numeric": 2, "family": 2, "ffsweep": 10, "generic": 1}
# Rounds an untraced run measures per second of --seconds: a fixed count for
# a given --seconds, so that every run of a seed makes the same calls and the
# same ones fail, however fast the machine happens to be.  On a 2-core
# x86_64 machine a round takes about 2.9 s (numeric), 2.8 s (family) and
# 0.2 s (ffsweep).  numeric measures more than --seconds because the median
# of a (4;2,2,2,2) res combination moves with its draws until it has ten or
# so.  generic is a single round.
ROUNDS_PER_SECOND = {"numeric": 0.5, "family": 0.4, "ffsweep": 5.0, "generic": 0.0}
# Calls slower than this, untraced, are left out of the counting pass.
COUNT_PASS_LIMIT_S = 10.0
MEMORY_LIMIT = 3 << 30



class CallDeadline(BaseException):
    """Raised by the interval timer when a call runs past its deadline.

    Derived from BaseException so that no ``except Exception`` can swallow it.
    """


def _on_alarm(signum, frame):
    raise CallDeadline()


def import_program():
    """Import elimkit from this checkout's src/, or exit without a result."""
    sys.path.insert(0, SRC)
    # Nothing may read or write a generic cache on disk during a run.
    os.environ.pop("ELIMKIT_CACHE_DIR", None)
    try:
        import elimkit
        import elimkit.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"cannot import elimkit from {SRC}: {exc}")
    if not os.path.abspath(elimkit.__file__).startswith(SRC + os.sep):
        sys.exit(f"elimkit was imported from {elimkit.__file__}, not from {SRC}")


def build(workload, seed):
    import workloads

    return workloads.GENERATE[workload](seed)


@dataclass
class Record:
    call: object
    round: int
    seconds: float
    error: str | None  # why the call failed, None when it succeeded
    wrong: bool  # the call returned a value the reference disagrees with


def measure(call, rnd, stretch=1.0):
    """Run one call under its deadline, then check its answer (untimed)."""
    from workloads import WrongAnswer

    deadline = stretch * call.deadline
    out, error = None, None
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            out = call.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CallDeadline:
        error = f"missed the {deadline:g} s deadline"
    except SystemExit as exc:
        error = f"exit code {exc.code}"
    except Exception as exc:
        error = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    wrong = False
    if error is None:
        try:
            call.check(out)
        except WrongAnswer as exc:
            error, wrong = f"wrong answer: {exc}", True
        except Exception as exc:
            error, wrong = f"unreadable answer: {type(exc).__name__}: {exc}", True
    return Record(call, rnd, seconds, error, wrong)


def warm_up(rounds):
    """Fill lazy tables (finite-field arithmetic, imports) before timing."""
    calls = rounds[-1] if len(rounds) > 1 else rounds[0][:1]
    t0 = time.perf_counter()
    for call in calls:
        measure(call, -1)
        if time.perf_counter() - t0 > 1.0:
            break


def setup_seconds(workload, seed):
    """Median over fresh processes of import plus input generation."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measured_rounds(workload, seconds):
    return max(1, round(seconds * ROUNDS_PER_SECOND[workload]))


def percentile(values, q):
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latency(record):
    """A failed call counts as missing any latency limit: it costs its deadline."""
    return record.seconds if record.error is None else max(record.seconds, record.call.deadline)


def declared(kind):
    """Metric name -> unit, for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def as_metrics(kind, values):
    return {name: {"value": values[name], "unit": unit} for name, unit in declared(kind).items()}


def end_to_end(records, round_size, setup_s):
    """One round's wall time is the sum, over the combinations a round
    holds, of each combination's median latency in the run; throughput is
    a round's calls over that time."""
    by_combination = {}
    for r in records:
        by_combination.setdefault(r.call.combination(), []).append(latency(r))
    wall = sum(statistics.median(v) * len(v) for v in by_combination.values()) / (len(records) / round_size)
    latencies = [latency(r) for r in records]
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "throughput_ops_s": round_size / wall,
        "latency_p50_ms": 1000 * percentile(latencies, 0.5),
        "latency_p90_ms": 1000 * percentile(latencies, 0.9),
    }
    return as_metrics("end_to_end", values)


def traced(rounds):
    """Span pass, untraced pass over the same calls, then the counting pass."""
    from tracer import CallCounter, SpanTracer

    spans = SpanTracer()
    try:
        records = []
        for rnd, calls in enumerate(rounds):
            for call in calls:
                records.append(measure(call, rnd))
                spans.reset_stack()
    finally:
        spans.restore()
    done = [r for r in records if r.error is None]
    plain = [measure(r.call, r.round) for r in done]
    kept = [(a, b) for a, b in zip(done, plain) if b.error is None]
    overhead = sum(a.seconds for a, _ in kept) / sum(b.seconds for _, b in kept) if kept else 0.0
    counter = CallCounter()
    try:
        extra = [measure(b.call, b.round, 4.0) for _, b in kept if b.round == 0 and b.seconds <= COUNT_PASS_LIMIT_S]
    finally:
        counter.restore()
    values = spans.metrics()
    values.update(counter.metrics())
    values["trace.overhead_ratio"] = overhead
    return records + plain + extra, records, as_metrics("per_layer", values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["numeric", "family", "generic", "ffsweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        t0 = time.perf_counter()
        import_program()
        build(args.workload, args.seed)
        print(time.perf_counter() - t0)
        return

    import_program()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > MEMORY_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))
    signal.signal(signal.SIGALRM, _on_alarm)

    setup_s = setup_seconds(args.workload, args.seed) if not args.trace else None
    rounds = build(args.workload, args.seed)
    warm_up(rounds)
    pool = rounds[:-1] if len(rounds) > 1 else rounds

    if args.trace:
        everything, records, metrics = traced(pool[: TRACE_ROUNDS[args.workload]])
    else:
        records = []
        for rnd, calls in enumerate(pool[: measured_rounds(args.workload, args.seconds)]):
            records.extend(measure(call, rnd) for call in calls)
        everything = records
        metrics = end_to_end(records, len(pool[0]), setup_s)

    failed = [r for r in records if r.error is not None]
    for r in failed:
        print(f"failed: {r.call.label()} (round {r.round}): {r.error}")
    wrong = [r for r in everything if r.wrong]
    print(json.dumps({"correct": not wrong, "attempted": len(records), "failed": len(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
