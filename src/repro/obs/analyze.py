"""Trace analysis: views over a run's wide-event records.

Everything here is *offline*: it consumes a JSONL trace (possibly
holding several runs, told apart by their ``run`` ids), folds each
run into wide-event records with :func:`repro.obs.wide.derive_wide` —
the one lifecycle fold, byte-identical to a live ``--emit-wide`` file
— and renders plain views of those records:

- the per-kind *summary*: count and duration of chunk lifecycles,
  encounters, coverage gaps and handoffs;
- the *latency breakdown*: stage wait, edge vs origin fetch time, and
  the coverage-gap time masked by staging (the run record's
  ``masked_total_s``) — staging work the vehicle never waited for, the
  paper's core claim;
- the *critical path*: which chunk (and which of its phases) the
  download was blocked on, interval by interval;
- encounter *parents*: the encounter each chunk was delivered in;
- Chrome ``trace_event`` JSON so any trace opens in Perfetto or
  chrome://tracing.

Comparing two runs is the ``runs why`` engine
(:func:`repro.obs.explain.explain`) applied to their records.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, Optional, Union

from repro.obs.trace import read_trace
from repro.obs.wide import derive_wide

#: Record kinds that describe an interval, in summary order (also the
#: Chrome-trace lanes, tid 1..4).
KINDS = ("chunk", "encounter", "gap", "handoff")

#: Chunk phase marks, in the order that breaks ties between equal times.
PHASES = ("signalled", "stage_request", "cached", "staged", "ready", "fetched")


# -- loading -----------------------------------------------------------------


@dataclass
class TraceRun:
    """One run's slice of a trace: its events' types and wide records."""

    run_id: str
    event_counts: Counter
    #: The run's wide-event records, in emission order; the last one
    #: is the run-summary record.
    records: list[dict]
    first_time: float
    last_time: float

    @property
    def events_total(self) -> int:
        return sum(self.event_counts.values())


def load_runs(
    path_or_file: Union[str, IO[str]], strict: bool = False
) -> dict[str, TraceRun]:
    """Split a (possibly multi-run) trace into per-run analyses.

    Returns run ids in first-appearance order.  Unknown event types
    are skipped per :func:`repro.obs.trace.read_trace` semantics.
    """
    stampeds_by_run: dict[str, list] = {}
    for stamped in read_trace(path_or_file, strict=strict):
        stampeds_by_run.setdefault(stamped.run_id, []).append(stamped)
    runs: dict[str, TraceRun] = {}
    for run_id, stampeds in stampeds_by_run.items():
        runs[run_id] = TraceRun(
            run_id=run_id,
            event_counts=Counter(type(s.event).__name__ for s in stampeds),
            records=derive_wide(stampeds, run_id=run_id),
            first_time=stampeds[0].time,
            last_time=stampeds[-1].time,
        )
    return runs


def pick_run(runs: dict[str, TraceRun], run_id: Optional[str] = None) -> TraceRun:
    """Select one run: by id, or the only/first one."""
    if not runs:
        raise ValueError("trace contains no events")
    if run_id is None:
        return next(iter(runs.values()))
    try:
        return runs[run_id]
    except KeyError:
        raise ValueError(
            f"run {run_id!r} not in trace (has: {', '.join(runs)})"
        ) from None


# -- one record as an interval ----------------------------------------------


def intervals(records: Iterable[dict]) -> list[dict]:
    """The records that describe an interval (every kind but ``run``)."""
    return [r for r in records if r.get("kind") in KINDS]


def interval(record: dict) -> tuple[float, float]:
    """``(start, end)`` of an interval record.

    A chunk's lifecycle starts when it was signalled, or at fetch
    start if it never was, and ends at delivery.
    """
    if record["kind"] == "chunk":
        start = record["t_signalled"]
        if start is None:
            start = record["t_fetch_start"]
        return start, record["t_fetched"]
    return record["t_start"], record["t_end"]


def status(record: dict) -> str:
    """How the interval ended: a chunk's source, a handoff's outcome."""
    kind = record["kind"]
    if kind == "chunk":
        return record["source"]
    if kind == "encounter":
        return "ended"
    if kind == "gap":
        return "offline"
    return record["status"]


def label(record: dict) -> str:
    """The record's display key: chunk id, handoff target, or key."""
    kind = record["kind"]
    if kind == "chunk":
        return record["cid"]
    if kind == "handoff":
        return record["target"]
    return record["key"]


def phases(record: dict) -> list[tuple[str, float]]:
    """A chunk's ``(phase, time)`` marks in time order (ties: :data:`PHASES`)."""
    marks = [
        (record[f"t_{name}"], rank, name)
        for rank, name in enumerate(PHASES)
        if record.get(f"t_{name}") is not None
    ]
    return [(name, time) for time, _, name in sorted(marks)]


def parents(records: Iterable[dict]) -> dict[int, int]:
    """Chunk ``seq`` → ``seq`` of the encounter it was delivered in.

    The parent is the first ended encounter whose window contains the
    chunk's delivery time; chunks delivered in the final (never-ended)
    encounter have none.
    """
    records = list(records)
    encounters = [r for r in records if r.get("kind") == "encounter"]
    out: dict[int, int] = {}
    for record in records:
        if record.get("kind") != "chunk":
            continue
        for enc in encounters:
            if enc["t_start"] <= record["t_fetched"] <= enc["t_end"]:
                out[record["seq"]] = enc["seq"]
                break
    return out


# -- per-kind summary --------------------------------------------------------


def render_summary(records: Iterable[dict], title: str = "Span summary") -> str:
    """A fixed-format per-kind count/duration table for one run.

    Chunks still in flight when the run ended have no record; they
    come from the run record's ``chunks_open`` and count as open
    (``staging``) lifecycles.  Byte-deterministic for a given record
    list: the live/replay parity tests compare these strings.
    """
    durations: dict[str, list[float]] = {}
    statuses: dict[str, Counter] = {}
    open_chunks = 0
    for record in records:
        kind = record.get("kind")
        if kind == "run":
            open_chunks = record["chunks_open"]
        elif kind in KINDS:
            start, end = interval(record)
            durations.setdefault(kind, []).append(end - start)
            statuses.setdefault(kind, Counter())[status(record)] += 1
    if open_chunks:
        durations.setdefault("chunk", [])
        statuses.setdefault("chunk", Counter())["staging"] += open_chunks
    lines = [title]
    header = (
        f"{'kind':>10} | {'count':>6} | {'closed':>6} | {'total (s)':>10} | "
        f"{'mean (s)':>10} | {'min (s)':>10} | {'max (s)':>10}"
    )
    rule = "-" * len(header)
    lines += [rule, header, rule]
    for kind in sorted(durations):
        closed = durations[kind]
        count = len(closed) + (open_chunks if kind == "chunk" else 0)
        total = sum(closed)
        mean = total / len(closed) if closed else 0.0
        lines.append(
            f"{kind:>10} | {count:>6} | {len(closed):>6} | {total:>10.4f} | "
            f"{mean:>10.4f} | {min(closed, default=0.0):>10.4f} | "
            f"{max(closed, default=0.0):>10.4f}"
        )
    lines.append(rule)
    for kind in sorted(statuses):
        breakdown = ", ".join(
            f"{name}={n}" for name, n in sorted(statuses[kind].items())
        )
        lines.append(f"{kind:>10}: {breakdown}")
    return "\n".join(lines)


# -- latency breakdown -------------------------------------------------------


@dataclass(frozen=True)
class BreakdownSummary:
    """Where one run's delivered chunks spent their time."""

    chunks: int
    edge: int
    origin: int
    fallback: int
    mean_stage_wait: float
    mean_edge_fetch: float
    mean_origin_fetch: float
    #: Coverage-gap time inside the union of chunk lifecycles.
    masked_total: float


def summarize_breakdown(records: Iterable[dict]) -> BreakdownSummary:
    """Aggregate the chunk records and the run record of one run."""
    chunks = []
    masked_total = 0.0
    for record in records:
        if record.get("kind") == "chunk":
            chunks.append(record)
        elif record.get("kind") == "run":
            masked_total = record["masked_total_s"]
    by_source: dict[str, list[dict]] = {"edge": [], "origin": [], "fallback": []}
    for record in chunks:
        by_source[record["source"]].append(record)
    non_edge = by_source["origin"] + by_source["fallback"]

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    return BreakdownSummary(
        chunks=len(chunks),
        edge=len(by_source["edge"]),
        origin=len(by_source["origin"]),
        fallback=len(by_source["fallback"]),
        mean_stage_wait=mean([
            r["stage_wait_s"] for r in chunks if r["stage_wait_s"] is not None
        ]),
        mean_edge_fetch=mean([r["fetch_latency"] for r in by_source["edge"]]),
        mean_origin_fetch=mean([r["fetch_latency"] for r in non_edge]),
        masked_total=masked_total,
    )


# -- critical path -----------------------------------------------------------


@dataclass(frozen=True)
class CriticalSegment:
    """One blocking interval of the download timeline.

    Segments partition the time between the first chunk's start and
    the last chunk's delivery; each is attributed to the chunk whose
    delivery ended it, labelled with the phase that chunk was in when
    the segment began (``fetch`` once its fetch had started,
    ``stage_wait`` while it was still being staged, ``idle`` when its
    lifecycle had not yet begun).
    """

    cid: str
    start: float
    end: float
    duration: float
    phase: str


def critical_path(records: Iterable[dict]) -> list[CriticalSegment]:
    """The per-download blocking chain over the delivered chunks."""
    chunks = [r for r in records if r.get("kind") == "chunk"]
    chunks.sort(key=lambda r: (r["t_fetched"], r["seq"]))
    segments = []
    cursor: Optional[float] = None
    for record in chunks:
        start, end = interval(record)
        seg_start = start if cursor is None else cursor
        if end <= seg_start:
            if cursor is None:
                cursor = end
            continue
        if seg_start >= record["t_fetch_start"]:
            phase = "fetch"
        elif seg_start >= start:
            phase = "stage_wait"
        else:
            phase = "idle"
        segments.append(
            CriticalSegment(
                cid=record["cid"],
                start=seg_start,
                end=end,
                duration=end - seg_start,
                phase=phase,
            )
        )
        cursor = end
    return segments


# -- Chrome trace-event export ----------------------------------------------


def chrome_trace(runs: dict[str, TraceRun]) -> dict:
    """Chrome ``trace_event`` JSON for one or more runs.

    Each run becomes a Chrome *process* (pid), each record kind a
    *thread* lane (tid) in it, and each interval record a complete
    event (``ph="X"``) whose args are the record's fields plus its
    status, phase marks and encounter parent.  Times are microseconds,
    as the format requires.  The result loads directly in Perfetto /
    chrome://tracing.
    """
    events: list[dict] = []
    for pid, (run_id, run) in enumerate(runs.items(), start=1):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": run_id},
            }
        )
        for tid, kind in enumerate(KINDS, start=1):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": kind},
                }
            )
        parent_of = parents(run.records)
        for record in intervals(run.records):
            kind = record["kind"]
            start, end = interval(record)
            args = {k: record[k] for k in sorted(record)}
            args["status"] = status(record)
            args["phases"] = [f"{name}@{time:.6f}" for name, time in phases(record)]
            if record["seq"] in parent_of:
                args["parent"] = parent_of[record["seq"]]
            events.append(
                {
                    "name": f"{kind}:{label(record)}",
                    "cat": kind,
                    "ph": "X",
                    "pid": pid,
                    "tid": KINDS.index(kind) + 1,
                    "ts": start * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": args,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
