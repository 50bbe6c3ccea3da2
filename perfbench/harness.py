"""One benchmark run: set-up, the timed loop, checking, the result line."""

from __future__ import annotations

import argparse
import hashlib
import hmac
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict, deque
from typing import NamedTuple

from perfbench import metrics
from perfbench.tracing import NullTracer, Tracer
from perfbench.workloads import WORKLOADS

#: Set-ups per untraced run; ``setup_s`` is their median, and each one
#: serves a third of ``--seconds``: three windows some seconds apart see
#: more of the host's moods than one long one.
SETUPS = 3
#: ``queries_per_s`` is the median over this many blocks of the main
#: phase, so one scheduler hiccup does not set it.
BLOCKS = 5


class Sample(NamedTuple):
    """One latency sample, already read at the reference speed."""

    kind: str  # cold | resubmit | refresh | write | delete | prepared
    seconds: float
    first: float | None  # submit -> first decrypted batch
    queries: int  # queries behind this sample (a round has four)
    busy: float  # seconds the loop spent on them
    traced: bool
    phase: str  # main | probe
    step: int  # the schedule step it belongs to
    group: object  # samples of one group are alike (same plain query)


class Speed:
    """How fast this machine runs Python right now, against a reference.

    The sandbox's cores change speed by tens of percent for seconds at a
    time (a neighbour on the sibling thread, most likely): un-corrected,
    ten runs of the same code spread by 25-35 %.  So a fixed slice of
    interpreter work — big-integer products, HMACs, a JSON round trip, a
    dict filled and listed; the program's staple diet, but none of its
    code — is timed between operations, and every reported time is
    scaled by ``REFERENCE / slice``: milliseconds as they would read at
    the reference speed.  A faster program still reads faster; a faster
    minute on the host does not.
    """

    #: Seconds the slice takes at the speed times are reported for.
    REFERENCE = 250e-6
    #: Operations shorter than this share one slice.
    EVERY = 0.004

    _P = 2**254 - 127
    _KEY, _MSG = b"k" * 32, b"m" * 200
    _ROW = [7, "Customer#000000007", "x" * 40, 3, "12-345-678-9012",
            1234.5, "BUILDING", "carefully final deposits", "1/25"]

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=5)
        self.history: list[float] = []
        self.at = 0.0

    def tick(self, force: bool = False) -> None:
        started = time.perf_counter()
        if not force and started - self.at < self.EVERY:
            return
        acc, x = 3, self._P - 12345
        for _ in range(160):
            acc = acc * x % self._P
        for _ in range(12):
            hmac.new(self._KEY, self._MSG, hashlib.sha256).digest()
        for _ in range(5):
            json.loads(json.dumps(self._ROW))
        table = {}
        for i in range(130):
            table[i] = (i, str(i))
        list(table.values())
        self.at = time.perf_counter()
        self.recent.append(self.at - started)
        self.history.append(self.at - started)

    def factor(self) -> float:
        """Multiply a measured time by this to read it at the reference."""
        return self.REFERENCE / statistics.median(self.recent)


class Run:
    """What one run accumulates: attempts, samples, spans, readings."""

    def __init__(self, trace: bool):
        self.trace = trace
        #: Every span of the run, whichever tracer is current.
        self.spans = Tracer()
        self._null = NullTracer()
        #: Set-up is traced throughout a traced run; the timed loop
        #: switches per step (see :meth:`next_step`).
        self.tracer = self.spans if trace else self._null
        self.speed = Speed()
        self.attempted = 0
        self.failed = 0
        self.timing = False
        self.phase = "main"
        self.peak_rss_mb = 0.0
        self.steps = 0
        self.samples: list[tuple] = []
        self.readings: dict[str, list[float]] = defaultdict(list)
        self._complained = False

    def span(self, name: str):
        """A set-up stage; its boundary is also a speed reading."""
        self.speed.tick()
        return self.tracer.span(name)

    def next_step(self) -> None:
        """In a traced run every second timed step records spans, the
        first one included; the steps between them are the untraced
        side of the overhead pair."""
        traced = self.trace and self.timing and self.steps % 2 == 0
        self.steps += self.timing
        self.tracer = self.spans if traced else self._null
        self.speed.tick()

    def layer(self, name: str, value: float) -> None:
        self.readings[name].append(value)

    def fail(self, message: str | None = None) -> None:
        self.failed += 1
        if not self._complained:
            self._complained = True
            if message is None:
                traceback.print_exc()
            else:
                print(message, file=sys.stderr)

    def sample(
        self, kind, seconds, first=None, queries=1, busy=None, group=None
    ) -> None:
        """Keep one latency sample, read at the reference speed."""
        if self.timing:
            self.speed.tick()  # a long operation gets a slice at its end too
            scale = self.speed.factor()
            self.samples.append(Sample(
                kind, seconds * scale, first and first * scale, queries,
                (seconds if busy is None else busy) * scale,
                self.tracer.enabled, self.phase, self.steps, group,
            ))

    def record(self, kind: str, ops: list, group=None) -> None:
        """One sample from a step's queries: their mean latency.

        A step that submits several different queries (the four
        selectivities) is one sample, and steps that differ (one
        selectivity each) name their ``group``, so a median is always
        over like things.  Layer readings are averaged the same way.
        """
        n = len(ops)
        self.sample(
            kind,
            sum(op.seconds for op in ops) / n,
            first=sum(op.first for op in ops) / n,
            queries=n,
            busy=sum(op.seconds for op in ops),
            group=group,
        )
        if self.timing:
            for name in {name for op in ops for name in op.layers}:
                values = [op.layers[name] for op in ops if name in op.layers]
                self.layer(name, sum(values) / len(values))


def measure(workload, run: Run, seconds: float) -> None:
    """Warm up, then step the workload's schedule until the clock says stop.

    After each step a workload whose schedule has no re-submits of its
    own replays the step's queries once (phase ``probe``), so every
    workload has a re-submit latency and its samples are spread along
    the whole window; probes stay out of ``queries_per_s``.
    """
    workload.warm_up(run)
    workload.schedule.clear()
    run.timing = True
    until = time.perf_counter() + seconds
    steps = 0
    while True:
        run.next_step()
        run.phase = "main"
        workload.step(run)
        if workload.probe:
            run.phase = "probe"
            workload.replay_last(run)
        steps += 1
        done = time.perf_counter() >= until
        if not run.peak_rss_mb and (done or steps == workload.rss_after):
            run.peak_rss_mb = peak_rss_mb(workload.child_pids())
        if done:
            break
    run.timing = False


def peak_rss_mb(children=()) -> float:
    """Peak resident set so far: this process plus its live children."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in children:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    kib += int(line.split()[1])
    return kib / 1024.0


def typical(samples: list[Sample], value=lambda s: s.seconds) -> float:
    """Median per group of like samples, averaged over the groups.

    A median over unlike samples sits on the border between two kinds
    and flips with the seed; a mean over them follows the outliers.
    """
    groups: dict[object, list[float]] = defaultdict(list)
    for sample in samples:
        groups[sample.group].append(value(sample))
    medians = [statistics.median(values) for values in groups.values()]
    return sum(medians) / len(medians)


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def throughput(samples: list[Sample]) -> float:
    """Median queries per busy second over ``BLOCKS`` runs of whole steps.

    Whole steps, because a step may mix a slow query with twenty fast
    ones, and a block that cut it in two would measure where the cut
    fell.
    """
    per_step: dict[int, list[float]] = {}
    for sample in samples:
        if sample.phase == "main":
            totals = per_step.setdefault(sample.step, [0, 0.0])
            totals[0] += sample.queries
            totals[1] += sample.busy
    steps = list(per_step.values())
    blocks = min(BLOCKS, len(steps))
    rates = []
    for block in range(blocks):
        part = steps[block * len(steps) // blocks:(block + 1) * len(steps) // blocks]
        rates.append(sum(q for q, _ in part) / sum(b for _, b in part))
    return statistics.median(rates)


def summarize(run: Run, setup_seconds: list[float]):
    """Every metric this run can report, by name, and its sample counts."""
    by_kind: dict[str, list[Sample]] = defaultdict(list)
    traced_cold: list[Sample] = []
    for sample in run.samples:
        if not sample.traced:
            by_kind[sample.kind].append(sample)
        elif sample.kind == "cold":
            traced_cold.append(sample)
    cold = by_kind["cold"]
    values: dict[str, float] = {}
    if not run.trace:  # end-to-end numbers come from untraced runs only
        values = {
            "setup_s": statistics.median(setup_seconds),
            "query_ms_p50": typical(cold) * 1e3,
            "first_match_ms_p50": typical(cold, lambda s: s.first) * 1e3,
            "resubmit_ms_p50": typical(by_kind["resubmit"]) * 1e3,
            "queries_per_s": throughput(
                [s for s in run.samples if not s.traced]
            ),
            "peak_rss_mb": run.peak_rss_mb,
        }
    for name, readings in run.readings.items():
        # A count that must repeat exactly is read off the first traced
        # operation: how many follow depends on the clock.
        values[name] = (
            readings[0] if name in metrics.EXACT
            else statistics.median(readings)
        )
    for name, kind, scale in (
        ("series.refresh_ms", "refresh", 1e3),
        ("series.write_ms", "write", 1e3),
        ("series.delete_us", "delete", 1e6),
        ("crypto.query_prepared_ms", "prepared", 1e3),
    ):
        if by_kind[kind]:
            values[name] = typical(by_kind[kind]) * scale
    if len(cold) >= 200:  # at least ten samples lie beyond the 95th
        values["bench.query_ms_p95"] = (
            percentile([s.seconds for s in cold], 0.95) * 1e3
        )
    values["bench.speed_slice_us"] = statistics.median(run.speed.history) * 1e6
    if traced_cold and cold:
        untraced = typical(cold)
        values["bench.trace_overhead_share"] = (
            typical(traced_cold) - untraced
        ) / untraced
    return values, {kind: len(v) for kind, v in by_kind.items() if v}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    toy: bool = False,
    setups: int = SETUPS,
    trace_out: str | None = None,
) -> dict:
    """Run one workload; returns the result object of the last line.

    ``toy`` shrinks the inputs to tens of rows for the smoke test.  The
    extra keys ``values`` (every number by name), ``schedule`` and
    ``layer_table`` are dropped before the result line is printed.
    """
    cls = WORKLOADS[name]
    run = Run(trace)
    setup_seconds: list[float] = []
    workload = None
    windows = 1 if trace else setups
    try:
        for _ in range(windows):
            if workload is not None:
                workload.close()
            workload = cls(seed, toy)
            # A set-up is one long operation: it is read against the
            # slices just before it, at its stage boundaries and just
            # after it.
            mark = len(run.speed.history)
            for _ in range(3):
                run.speed.tick(force=True)
            started = time.perf_counter()
            workload.build(run)
            took = time.perf_counter() - started
            for _ in range(3):
                run.speed.tick(force=True)
            setup_seconds.append(
                took * Speed.REFERENCE
                / statistics.median(run.speed.history[mark:])
            )
            measure(workload, run, seconds / windows)
        if trace:
            workload.gauges(run)
        schedule = list(workload.schedule)
    finally:
        if workload is not None:
            workload.close()
    values, samples = summarize(run, setup_seconds)
    if trace_out is not None:
        run.spans.write_jsonl(trace_out)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics.render(values, trace),
        "values": values,
        "samples": samples,
        "schedule": schedule,
        "layer_table": run.spans.layer_table() if trace else [],
    }


def report(name: str, result: dict, out=sys.stdout) -> None:
    """The human-readable part, printed above the result line."""
    print(
        f"{name}: attempted {result['attempted']}, failed "
        f"{result['failed']}, samples {result['samples']}",
        file=out,
    )
    if result["layer_table"]:
        print(f"{'operation':<12} {'layer':<18} {'calls':>7} "
              f"{'seconds':>10} {'share':>7}", file=out)
        for root, layer, calls, seconds, share in result["layer_table"]:
            print(f"{root:<12} {layer:<18} {calls:>7} "
                  f"{seconds:>10.4f} {share:>7.1%}", file=out)
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<32} {entry['value']:>14.6g} {entry['unit']}",
              file=out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one workload; the last stdout line is the result.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="with --trace 1, also write every span as JSON lines",
    )
    args = parser.parse_args(argv)

    def terminate(signum, frame):  # noqa: ARG001 - signal signature
        # Unwind through the finally blocks that stop the child and
        # remove the scratch directory.
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        trace_out=args.trace_out,
    )
    report(args.workload, result)
    print(json.dumps({
        key: result[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0
