"""Benchmark for les-deduce: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload shipped|delta8x2 --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it reads ``src/``, ``data/`` and
``tests/golden_table.py`` and writes only under ``.bench_out/``.  Each op is
checked against hand-written references; an op that fails a check counts as
failed and is never dropped.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates traced
and untraced ops in the same loop, prints the per-layer metrics (per traced
op), the tracing overhead, the scale ladder and the oracle block (soundness
trials and completeness counts), and writes every span to ``.bench_out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See NOTES.md for the workloads and the metrics.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import typing  # noqa: E402
from array import array  # noqa: E402
from collections import deque  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("shipped", "delta8x2")
SETUPS = 25  # set-ups per run; setup_s is their median
CAL_REF_S = 0.0005  # calibration time at the reference speed the *_norm metrics use
INTERVAL_S = 0.025  # between two speed samples
WINDOW_S = 0.25  # speed samples this close to a timed interval scale it

END_TO_END_UNITS = {"ops_per_s_norm": "1/s", "op_p50_s_norm": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
OVERHEAD_UNITS = {"trace.untraced_ops_per_s_norm": "1/s", "trace.traced_ops_per_s_norm": "1/s",
                  "trace.overhead": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _calibration_work() -> int:
    """A fixed piece of interpreter work, like the engine's mix but not touching les_deduce."""
    table = {}
    for i in range(400):
        key = (i % 97, f"x{i}", i * 7 % 13)
        table[key] = frozenset((i, i + 1, i % 5))
    total = 0
    for key in sorted(table, key=lambda k: (k[2], k[1])):
        total += len(table[key] | {key[0]})
    return total


class SpeedProbe:
    """Samples the host's speed while set-up and the loop run.

    The host is shared, and its speed drifts by 10-20 % both within seconds
    and over minutes.  Every INTERVAL_S a SIGALRM handler times
    ``_calibration_work`` with the garbage collector paused.  ``scale(start,
    end)`` is CAL_REF_S over the mean calibration time within WINDOW_S of
    [start, end].  A time measured there, times this scale, is the time at
    the reference speed.  ``spent`` is the handlers' total time, which
    callers subtract from what they time.
    """

    def __init__(self) -> None:
        self.times: list = []
        self.durations: list = []
        self.spent = 0.0

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            _calibration_work()
            ended = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append(ended)
        self.durations.append(ended - started)
        self.spent += ended - started

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return CAL_REF_S / statistics.fmean(self.durations[lo:hi] or self.durations)


def run_loop(workload, seconds, tracer, probe):
    """Closed loop: each op starts when the previous one (and its check) ends.

    Returns op seconds in wall clock and at the reference speed, each as
    ``{traced: array}``, and the failures.  Op seconds exclude the speed
    probe's handlers.  Only the op is timed; the check after it is not.  An
    op's reference-speed time is settled once the probe has sampled WINDOW_S
    past its end.  Each op keeps 16 bytes, so peak memory barely depends on
    how many ops ran.
    """
    from workloads import Failure, plain_call

    wall = {False: array("d"), True: array("d")}
    norm = {False: array("d"), True: array("d")}
    pending = deque()
    failures = []

    def settle(now):
        while pending and pending[0][2] + WINDOW_S < now:
            elapsed, start, end, traced = pending.popleft()
            wall[traced].append(elapsed)
            norm[traced].append(elapsed * probe.scale(start, end))

    minimum = 1 if tracer is None else 2  # a traced run needs one op of each kind
    deadline = perf_counter() + seconds
    i = 0
    while i < minimum or perf_counter() < deadline:
        trace_op = tracer is not None and i % 2 == 1
        if trace_op:
            tracer.begin_op(i)
        call = tracer.call if trace_op else plain_call
        out = None
        spent = probe.spent
        started = perf_counter()
        try:
            out = workload.op(i, call)
            failure = None
        except Exception:
            failure = Failure(i, traceback.format_exc(limit=3).strip().replace("\n", " | "))
        ended = perf_counter()
        if trace_op:
            tracer.end_op(workload.output_counts(out))
        pending.append((ended - started - (probe.spent - spent), started, ended, trace_op))
        if failure is None:
            failure = workload.check(i, out)
        if failure is not None:
            failures.append(failure)
        settle(perf_counter())
        i += 1
    settle(float("inf"))
    return wall, norm, failures


def tail_p90(latencies):
    """The 90th percentile, when at least ten samples lie beyond it."""
    if len(latencies) < 2:
        return None
    p90 = statistics.quantiles(latencies, n=10)[-1]
    beyond = sum(x > p90 for x in latencies)
    return (p90, beyond) if beyond >= 10 else None


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [ROOT / "src" / "les_deduce" / "__init__.py", ROOT / "data" / "tmf_chart.json",
              ROOT / "tests" / "golden_table.py"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"perfbench: not a les-deduce checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    problems = []
    with SpeedProbe() as probe:
        setups = []
        for _ in range(SETUPS):
            # Untimed: free the previous set-up's modules, which typing's
            # caches would otherwise keep alive, so that peak_rss_mb belongs
            # to one set-up and each import starts as in a fresh process.
            workload = None
            for clear_cache in getattr(typing, "_cleanups", ()):
                clear_cache()
            gc.collect()
            spent = probe.spent
            started = perf_counter()
            workload = workloads.Workload(args.workload, args.seed)
            ended = perf_counter()
            setups.append((ended - started - (probe.spent - spent), started, ended))

        failure = workload.prepare()
        if failure is not None:
            problems.append(f"default-schedule report: {failure.message}")
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer(workload.engine)
        gc.collect()
        loop_started = perf_counter()
        wall, norm, failures = run_loop(workload, args.seconds, tracer, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    setup_norm = [elapsed * probe.scale(a, b) for elapsed, a, b in setups]
    untraced, untraced_norm, traced_norm = wall[False], norm[False], norm[True]
    attempted = len(untraced) + len(traced_norm)
    problems += [f"op {f.op}: {f.message}" for f in failures]
    lines = [
        f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s measured, "
        f"{'traced and untraced ops alternating' if tracer else 'untraced'}",
        f"attempted {attempted} ops, failed {len(failures)} "
        f"(failed_share {len(failures) / attempted:.6f}); first timed op "
        f"{loop_started - STARTED:.3f} s after the script started",
        f"speed probe: {len(probe.durations)} samples, mean "
        f"{statistics.fmean(probe.durations) * 1e3:.4f} ms against {CAL_REF_S * 1e3:g} ms at "
        f"the reference speed; *_norm and setup_s are scaled to that speed",
        f"setup: median {statistics.median(e for e, _, _ in setups):.6f} s wall clock over "
        f"{SETUPS} set-ups",
    ]

    if tracer is None:
        units = END_TO_END_UNITS
        completed = len(untraced) - len(failures)
        metrics = {
            "ops_per_s_norm": completed / sum(untraced_norm),
            "op_p50_s_norm": statistics.median(untraced_norm),
            "setup_s": statistics.median(setup_norm),
            "peak_rss_mb": peak_rss_mb,
        }
        tail = tail_p90(untraced)
        lines += [
            f"ops_per_s {completed / sum(untraced):.6f} 1/s (wall clock)",
            f"op_p50_s {statistics.median(untraced):.6f} s (wall clock)",
            "op_p90_s " + (f"{tail[0]:.6f} s (wall clock, {tail[1]} samples beyond it)" if tail
                           else f"not reported: fewer than 10 of {len(untraced)} samples lie beyond p90"),
        ]
    else:
        from probes import (KNOWN_UNSOUND_SEEDS, LADDER_UNITS, ORACLE_UNITS, oracle_block,
                            oracle_seeds, scale_ladder)
        from spans import TRACED_UNITS
        units = {**TRACED_UNITS, **OVERHEAD_UNITS, **LADDER_UNITS, **ORACLE_UNITS}
        metrics = tracer.per_layer()
        untraced_rate = len(untraced_norm) / sum(untraced_norm)
        traced_rate = len(traced_norm) / sum(traced_norm)
        metrics["trace.untraced_ops_per_s_norm"] = untraced_rate
        metrics["trace.traced_ops_per_s_norm"] = traced_rate
        metrics["trace.overhead"] = untraced_rate / traced_rate - 1
        ladder, ladder_problems = scale_ladder(workload.engine)
        metrics.update(ladder)
        problems += ladder_problems
        seeds = oracle_seeds(args.seed)
        oracle_metrics, unsound = oracle_block(workload.engine, seeds)
        metrics.update(oracle_metrics)
        lines.append(f"traced {len(traced_norm)} ops, untraced {len(untraced)}; tracing overhead "
                     f"{metrics['trace.overhead']:.1%} of the untraced time per op "
                     f"(base: untraced {untraced_rate:.4f} ops/s)")
        lines.append(f"oracle block: {len(seeds)} trial seeds from {seeds[0]}; the engine "
                     f"derives {metrics['oracle.forced_derived']} of "
                     f"{metrics['oracle.forced_facts']} forced facts; {len(unsound)} trials unsound")
        for trial_seed, violations in sorted(unsound.items()):
            known = trial_seed in KNOWN_UNSOUND_SEEDS
            lines.append(f"oracle seed {trial_seed} ({'known defect' if known else 'NEW'}): "
                         f"{len(violations)} unsound facts: {'; '.join(violations)}")
            if not known:
                problems.append(f"oracle seed {trial_seed}: unsound, not a known defect")
        if tracer.missing:
            lines.append("missing (wrapped name gone): " + ", ".join(sorted(tracer.missing)))
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file, {"workload": args.workload, "seed": args.seed, "metrics": metrics})
        lines.append(f"spans written to {trace_file.relative_to(ROOT)}")

    for problem in problems:
        lines.append(f"INCORRECT {problem}")
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
