"""Closed-loop benchmark of arithlink: one caller, one thread, one op at a time.

    python3 benchmark/run.py --workload redei --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from `src/`.  The
workloads are described in `workloads.py`.  A run draws a fixed sample of
rounds of inputs from the seed, as many as take about `--seconds` in all at
each workload's nominal round time, and times every op of the sample in the
workload's number of passes.  Each op time is scaled to a nominal host speed
by `hostspeed.py`, which times a fixed reference task while the ops run, and
an op's latency is the best of its passes.  Every result is checked by an oracle
outside the timed region.  Every op runs under the workload's deadline,
enforced by SIGALRM from outside the library; then each frontier input runs
once.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` and `failed` count timed main-band ops, every pass included;
an op fails if it raises, misses its deadline or fails its oracle, and
`correct` is false if any oracle disagreed.  With `--trace 0` the metrics
are the end-to-end ones in END_TO_END: every time is scaled but
`frontier_latency_s`, which is the wall time up to the deadline, and
`ops_per_s` is the number of successful inputs over the sum of their
latencies.  With `--trace 1` one untraced pass over a sample of half the
size is followed by a traced pass over the same inputs, and the metrics are
the per-function call counts and self times of `tracer.py`, in wall time,
plus `trace.overhead_ratio`.  The line before it, starting
with `report `, describes the input mix, the quartiles of the host speed
(1 is the nominal speed) and the environment.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed, scaled_span

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "frontier_latency_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_library():
    """Import arithlink from this checkout's sources, never from elsewhere."""
    if not (SRC / "arithlink" / "__init__.py").is_file():
        raise SystemExit(f"no arithlink sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import arithlink
    if Path(arithlink.__file__).resolve().parent != SRC / "arithlink":
        raise SystemExit(f"imported arithlink from {arithlink.__file__}, "
                         f"not from {SRC}")


def prepare(name, seed):
    """Import arithlink and build the named workload."""
    import_library()
    from workloads import WORKLOADS
    return WORKLOADS[name](seed)


class Deadline(BaseException):
    """Raised by SIGALRM inside an op that ran past its deadline."""


def _alarm(signum, frame):
    raise Deadline()


def run_op(workload, inp, deadline):
    """Time one op; returns (seconds, result, failure kind or None)."""
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            t0 = perf_counter()
            result = workload.op(inp)
            elapsed = perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return perf_counter() - t0, None, "deadline"
    except StopIteration:
        return perf_counter() - t0, None, "StopIteration"
    except Exception as exc:  # any other error is a counted failure
        return perf_counter() - t0, None, type(exc).__name__
    return elapsed, result, None


class Tally:
    """Best latencies and failures of a sample of ops, timed in passes."""

    def __init__(self, deadline):
        self.deadline = deadline
        # Per input: its best time over the passes; a failed input keeps
        # the time of its failure, at least the deadline.
        self.best = []
        self.failed_inputs = set()
        self.attempted = 0
        self.kinds = {}
        self.mismatches = 0
        self.first_failure = None

    def add(self, i, inp, failure, elapsed):
        """Record one timing of input number `i` of the sample."""
        self.attempted += 1
        if i == len(self.best):
            self.best.append(elapsed)
        if failure is None:
            if i not in self.failed_inputs:
                self.best[i] = min(self.best[i], elapsed)
            return
        if i not in self.failed_inputs:
            self.failed_inputs.add(i)
            # A failed op misses every latency limit.
            self.best[i] = max(elapsed, self.deadline)
        self.kinds[failure] = self.kinds.get(failure, 0) + 1
        if failure == "oracle":
            self.mismatches += 1
        if self.first_failure is None:
            self.first_failure = {"kind": failure, "input": repr(inp)}

    @property
    def failed(self):
        return sum(self.kinds.values())


def _checked(workload, inp, result, failure):
    if failure is None:
        mismatch = workload.check(inp, result)
        if mismatch is not None:
            print(f"oracle mismatch: {mismatch}", file=sys.stderr)
            return "oracle"
    return failure


def measure(make_workload, rounds, deadline, passes, keep_results=False):
    """Time `rounds` rounds of inputs `passes` times; keep each op's best.

    Every pass rebuilds the workload from its seed, so it times the same
    inputs in the same order; the first pass also warms up what the library
    and sympy fill on first use.  Op times are scaled by `HostSpeed`.
    Returns the tally, the input-mix counts of the sample, the host speeds
    seen and, if `keep_results`, the (input, result) pairs of the first
    pass.
    """
    tally = Tally(deadline)
    mix = {"ops": 0, "bands": {}, "traits": {}}
    kept = []
    failures = []
    with HostSpeed() as host:
        for p in range(passes):
            workload = make_workload()
            i = 0
            for _ in range(rounds):
                for inp in workload.round():
                    started = host.start()
                    elapsed, result, failure = run_op(workload, inp, deadline)
                    host.record(started, elapsed, (i, inp))
                    # Oracles run here, outside the timed region.
                    failures.append(_checked(workload, inp, result, failure))
                    i += 1
                    if not p:
                        _count_mix(mix, workload, inp)
                        if keep_results:
                            kept.append((inp, result))
    for ((i, inp), scaled), failure in zip(host.scaled(), failures):
        tally.add(i, inp, failure, scaled)
    return tally, mix, host.speeds, kept


def sample_rounds(workload, seconds):
    """Rounds per pass for a run of about `seconds` at the nominal round time."""
    return max(1, round(seconds / workload.round_s))


def _count_mix(mix, workload, inp):
    mix["ops"] += 1
    band = workload.band(inp)
    mix["bands"][band] = mix["bands"].get(band, 0) + 1
    for key, value in workload.traits(inp).items():
        mix["traits"][key] = mix["traits"].get(key, 0) + bool(value)


def run_frontier(workload, deadline, tracer=None):
    tally = Tally(deadline)
    for i, inp in enumerate(workload.frontier()):
        elapsed, result, failure = run_op(workload, inp, deadline)
        if tracer is not None:
            tracer.reset_stack()
        tally.add(i, inp, _checked(workload, inp, result, failure), elapsed)
    return tally


def measure_setup(name, seed, probes):
    """Scaled seconds from interpreter start to the first op, in new processes."""
    return [scaled_span(partial(_setup_probe, name, seed))
            for _ in range(probes)]


def _setup_probe(name, seed):
    t0 = perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - t0


def _git_sha():
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


def run_benchmark(name, seed, seconds, trace, deadline=None,
                  setup_probes=SETUP_PROBES):
    """One benchmark run; returns (result, report) as printed by main.

    The per-op deadline defaults to the workload's `deadline_s`.
    """
    workload = prepare(name, seed)
    make_workload = partial(type(workload), seed)
    deadline = deadline or workload.deadline_s
    import sympy
    signal.signal(signal.SIGALRM, _alarm)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "deadline_s": deadline, "git_sha": _git_sha(),
        "python": platform.python_version(), "sympy": sympy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    if not trace:
        rounds = sample_rounds(workload, seconds / workload.passes)
        tally, mix, speeds, _ = measure(
            make_workload, rounds, deadline, workload.passes)
        frontier = run_frontier(workload, deadline)
        setup = measure_setup(name, seed, setup_probes)
        lat = tally.best
        ok = [t for i, t in enumerate(lat) if i not in tally.failed_inputs]
        metrics = {
            "ops_per_s": len(ok) / sum(ok) if ok else 0.0,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3
            if len(lat) > 1 else lat[0] * 1e3,
            "frontier_latency_s": statistics.median(frontier.best),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
        }
        report["setup_samples_s"] = setup
        units = END_TO_END
        correct = tally.mismatches == 0 and frontier.mismatches == 0
    else:
        from tracer import Tracer, metric_names
        rounds = sample_rounds(workload, seconds / 2)
        tally_untraced, mix, speeds, ops = measure(
            make_workload, rounds, deadline, 1, keep_results=True)
        # The traced replay is timed in wall time; the untraced pass, scaled,
        # is compared with it at the run's median host speed.
        host_scale = statistics.median(speeds)
        tally = Tally(deadline)
        with Tracer() as tracer:
            for i, (inp, expected) in enumerate(ops):
                elapsed, result, failure = run_op(workload, inp, deadline)
                tracer.reset_stack()
                if failure is None and result != expected:
                    failure = "traced_result_differs"
                tally.add(i, inp, failure, elapsed)
            frontier = run_frontier(workload, deadline, tracer)
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = sum(tally.best) * host_scale / sum(
            tally_untraced.best)
        units = dict(metric_names()) | {"trace.overhead_ratio": "ratio"}
        correct = (tally_untraced.mismatches == 0 and frontier.mismatches == 0
                   and "traced_result_differs" not in tally.kinds)
    report["host_speed"] = statistics.quantiles(speeds, n=4) \
        if len(speeds) > 1 else speeds
    report["rounds"] = rounds
    report["bands"] = {k: v / mix["ops"] for k, v in sorted(mix["bands"].items())}
    report["traits"] = {k: v / mix["ops"]
                        for k, v in sorted(mix["traits"].items())}
    report["failed_by_kind"] = tally.kinds
    report["first_failure"] = tally.first_failure
    report["frontier"] = {"attempted": frontier.attempted,
                          "failed_by_kind": frontier.kinds,
                          "share_of_ops": frontier.attempted
                          / (frontier.attempted + tally.attempted)}
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("redei", "pairing", "presentations"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report = run_benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
