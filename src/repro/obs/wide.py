"""Wide events: one context-complete record per unit of work.

The event stream (DESIGN.md §7) is narrow — many small happenings per
chunk, scattered across layers.  Debugging a staging decision ("why did
this chunk fall back to the origin?  how much lead did the coordinator
have when it was delivered?") means joining signals, VNF completions,
cache stores, gauge samples and the fetch itself.  This module folds
that join *once*, into **wide events**: one flat JSON record per chunk
lifecycle (requested → signalled → staged → delivered, with the policy,
the current network, the staging lead at delivery and the per-phase
timings in the same record), plus one record per encounter, coverage
gap and handoff, and a per-run summary.

The builder is a pure, deterministic fold over the stamped event
sequence, so deriving wide events *offline* from a recorded JSONL trace
(``python -m repro trace wide``) produces **byte-identical** records to
the ones a live run emitted (asserted by the parity tests and the CI
telemetry smoke gate).

Schema and forward compatibility
--------------------------------

Every record carries ``"schema": WIDE_SCHEMA_VERSION``.  The
compatibility rule matches :func:`repro.obs.trace.read_trace`: readers
must tolerate (and, when rewriting, preserve) unknown keys, so old
consumers keep working as the schema grows.  :func:`read_wide` returns
plain dicts and therefore preserves unknown keys by construction.

Records serialize through :func:`wide_json` (sorted keys, compact
separators) — the single canonical form both the live and offline
paths share, which is what makes byte-parity achievable.
"""

from __future__ import annotations

import json
from typing import IO, Callable, Iterable, Iterator, Optional, Union

from repro.obs import events as ev
from repro.obs.bus import EventBus, Stamped

#: Bump when record fields change shape (adding keys is *not* a bump:
#: unknown keys are ignored-and-preserved by every reader).
WIDE_SCHEMA_VERSION = 1

#: A wide-event consumer: called once per finished record.
WideSink = Callable[[dict], None]


def wide_json(record: dict) -> str:
    """The canonical serialization: compact, sorted keys."""
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


def policy_from_run_id(run_id: str) -> str:
    """The policy name embedded in a ``{system}[-{policy}]-seed{N}`` id.

    Derived from the run id (not passed out-of-band) so the live and
    offline folds see identical inputs: ``"softstage-rich-seed0"`` →
    ``"rich"``, ``"softstage-seed0"`` → ``""``.  Ids that don't follow
    the runner's naming scheme yield ``""``.
    """
    parts = run_id.split("-")
    if len(parts) >= 3 and parts[-1].startswith("seed"):
        return "-".join(parts[1:-1])
    return ""


def _overlaps(start: float, end: float, intervals: list) -> list:
    """The non-empty pieces of ``[start, end]`` inside each interval."""
    pieces = []
    for lo, hi in intervals:
        piece_lo, piece_hi = max(start, lo), min(end, hi)
        if piece_hi > piece_lo:
            pieces.append((piece_lo, piece_hi))
    return pieces


def _union_length(intervals: list) -> float:
    """Total length covered by a list of possibly overlapping intervals."""
    covered, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            covered += hi - max(lo, end)
            end = hi
    return covered


class WideEventWriter:
    """JSONL sink for wide events (one canonical record per line)."""

    def __init__(self, path_or_file: Union[str, IO[str]]) -> None:
        if hasattr(path_or_file, "write"):
            self._fh: IO[str] = path_or_file
            self._owns_fh = False
            self.path: Optional[str] = None
        else:
            self._fh = open(path_or_file, "w", encoding="utf-8")
            self._owns_fh = True
            self.path = str(path_or_file)
        self.records_written = 0

    def write(self, record: dict) -> None:
        self._fh.write(wide_json(record))
        self._fh.write("\n")
        self.records_written += 1

    def close(self) -> None:
        if getattr(self._fh, "closed", False):
            return
        self._fh.flush()
        if self._owns_fh:
            self._fh.close()

    def __enter__(self) -> "WideEventWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_wide(path_or_file: Union[str, IO[str]]) -> Iterator[dict]:
    """Yield wide-event records from a JSONL file, in file order.

    Records are plain dicts: keys written by a newer version are
    preserved verbatim (the forward-compat rule), so filter-and-rewrite
    pipelines never lose fields they don't understand.
    """
    if hasattr(path_or_file, "read"):
        lines = path_or_file
        close = False
    else:
        lines = open(path_or_file, encoding="utf-8")
        close = True
    try:
        for line in lines:
            line = line.strip()
            if line:
                yield json.loads(line)
    finally:
        if close:
            lines.close()


class WideEventBuilder:
    """Folds one run's stamped events into wide-event records.

    Works identically live (``builder.attach(sim.probe.bus)``) and
    offline (``for s in read_trace(path): builder.feed(s)``); call
    :meth:`finish` when the run's stream ends to emit the run-summary
    record and detach.  Records go to every sink in ``sinks``, in
    emission order; ``seq`` numbers them per run.

    The fold keeps per-chunk phase timestamps, the latest value of
    every sampled gauge (so ``lead_bytes`` / ``progress_bytes`` at
    delivery come straight from the flight recorder when it ran, and
    are ``None`` when it didn't), known coverage-gap intervals (for
    the ``masked_s`` gain attribution), and the current network (last
    completed handoff target).

    A chunk's ``masked_s`` is the gap time inside its lifecycle
    (signal, or fetch start when never signalled, to delivery).  The
    run record's ``masked_total_s`` is the gap time inside the *union*
    of all lifecycles, so a gap several chunks span counts once and
    the total never exceeds ``gap_time_s``.
    """

    def __init__(
        self,
        run_id: Optional[str] = None,
        sinks: Optional[list[WideSink]] = None,
    ) -> None:
        #: Only events stamped with this run id are folded; ``None``
        #: adopts the first run id seen.
        self.run_id = run_id
        self.sinks: list[WideSink] = list(sinks or [])
        self.events_seen = 0
        self.skipped_other_runs = 0
        self.records_emitted = 0
        self._chunks: dict[str, dict] = {}
        self._handoffs: dict[str, float] = {}
        self._gauge_latest: dict[str, float] = {}
        self._gaps: list[tuple[float, float]] = []
        self._network = ""
        self._encounters = 0
        self._gap_count = 0
        self._handoff_count = 0
        self._chunks_this_encounter = 0
        self._last_time = 0.0
        self._totals = {
            "chunks": 0, "edge": 0, "origin": 0, "fallback": 0,
            "re_signals": 0, "stage_failures": 0, "stale_responses": 0,
            "handoffs_completed": 0, "handoffs_deferred": 0,
            "dropped_packets": 0,
        }
        #: Gap pieces inside delivered chunks' lifecycles (overlapping).
        self._masked_pieces: list[tuple[float, float]] = []
        self._gap_time = 0.0
        self._encounter_time = 0.0
        self._buses: list[EventBus] = []
        self._finished = False

    # -- wiring ------------------------------------------------------------

    def attach(self, bus: EventBus) -> "WideEventBuilder":
        bus.subscribe_all(self.feed)
        self._buses.append(bus)
        return self

    def detach(self) -> None:
        for bus in list(self._buses):
            bus.unsubscribe_all(self.feed)
        self._buses.clear()

    # -- emission ----------------------------------------------------------

    def _emit(self, record: dict) -> None:
        record["schema"] = WIDE_SCHEMA_VERSION
        record["run"] = self.run_id or ""
        record["policy"] = policy_from_run_id(self.run_id or "")
        record["seq"] = self.records_emitted
        self.records_emitted += 1
        for sink in self.sinks:
            sink(record)

    # -- the fold ----------------------------------------------------------

    def feed(self, stamped: Stamped) -> None:
        """Fold one stamped event into the wide-event state machine."""
        if self.run_id is None:
            self.run_id = stamped.run_id
        elif stamped.run_id != self.run_id:
            self.skipped_other_runs += 1
            return
        self.events_seen += 1
        self._last_time = stamped.time
        handler = _HANDLERS.get(type(stamped.event))
        if handler is not None:
            handler(self, stamped.time, stamped.event)

    def finish(self) -> int:
        """Detach, emit the run-summary record, return records emitted."""
        if not self._finished:
            self._finished = True
            self.detach()
            totals = self._totals
            self._emit({
                "kind": "run",
                "t_end": self._last_time,
                "events": self.events_seen,
                "network": self._network,
                "chunks": totals["chunks"],
                "chunks_edge": totals["edge"],
                "chunks_origin": totals["origin"],
                "chunks_fallback": totals["fallback"],
                "chunks_open": len(self._chunks),
                "re_signals": totals["re_signals"],
                "stage_failures": totals["stage_failures"],
                "stale_responses": totals["stale_responses"],
                "encounters": self._encounters,
                "gaps": self._gap_count,
                "gap_time_s": self._gap_time,
                "encounter_time_s": self._encounter_time,
                "handoffs_completed": totals["handoffs_completed"],
                "handoffs_deferred": totals["handoffs_deferred"],
                "dropped_packets": totals["dropped_packets"],
                "masked_total_s": _union_length(self._masked_pieces),
                "lead_bytes": self._gauge_latest.get("staging.lead_bytes"),
                "progress_bytes": self._gauge_latest.get(
                    "client.progress_bytes"
                ),
            })
        return self.records_emitted

    # -- chunk lifecycle ---------------------------------------------------

    def _chunk(self, cid: str) -> dict:
        state = self._chunks.get(cid)
        if state is None:
            state = self._chunks[cid] = {}
        return state


class WideEventStream:
    """Dispatches a (possibly multi-run) stamped stream to builders.

    Runs in a trace written by the demo/sweep drivers are *sequential*
    (one run finishes before the next starts), so the stream finishes
    the previous run's builder — emitting its run-summary record —
    the moment a new run id appears, exactly where a live pipeline
    sharing one output file would have emitted it.  That positional
    agreement is what makes ``repro trace wide`` byte-identical to a
    live ``--emit-wide`` file holding several runs.
    """

    def __init__(self, sinks: Optional[list[WideSink]] = None) -> None:
        self.sinks = list(sinks or [])
        self.builders: list[WideEventBuilder] = []
        self._current: Optional[WideEventBuilder] = None

    def feed(self, stamped: Stamped) -> None:
        current = self._current
        if current is None or stamped.run_id != current.run_id:
            if current is not None:
                current.finish()
            current = WideEventBuilder(
                run_id=stamped.run_id, sinks=self.sinks
            )
            self.builders.append(current)
            self._current = current
        current.feed(stamped)

    def finish(self) -> int:
        """Finish the in-progress builder; total records emitted."""
        if self._current is not None:
            self._current.finish()
            self._current = None
        return sum(b.records_emitted for b in self.builders)


def derive_wide(
    stampeds: Iterable[Stamped],
    sinks: Optional[list[WideSink]] = None,
    run_id: Optional[str] = None,
) -> list[dict]:
    """Offline derivation: stamped events → wide-event records.

    ``run_id`` restricts to one run; the default processes every run
    in stream order (sequential-run traces, see
    :class:`WideEventStream`).  Returns the records (they also go to
    ``sinks``, in the same order).
    """
    records: list[dict] = []
    all_sinks = [records.append] + list(sinks or [])
    if run_id is not None:
        builder = WideEventBuilder(run_id=run_id, sinks=all_sinks)
        for stamped in stampeds:
            builder.feed(stamped)
        builder.finish()
    else:
        stream = WideEventStream(sinks=all_sinks)
        for stamped in stampeds:
            stream.feed(stamped)
        stream.finish()
    return records


# -- per-event fold functions ------------------------------------------------


def _split_cids(cids: str) -> list[str]:
    return [c for c in cids.split(",") if c] if cids else []


def _on_gauge(b: WideEventBuilder, t: float, e: ev.GaugeSample) -> None:
    b._gauge_latest[e.gauge] = e.value


def _on_signalled(b: WideEventBuilder, t: float, e: ev.StagingSignalled) -> None:
    for cid in _split_cids(e.cids):
        state = b._chunks.get(cid)
        if state is None:
            state = b._chunk(cid)
            state["t_signalled"] = t
            state["signal_label"] = e.label
        else:
            state["re_signals"] = state.get("re_signals", 0) + 1
            b._totals["re_signals"] += 1


def _on_stage_request(
    b: WideEventBuilder, t: float, e: ev.StageRequestReceived
) -> None:
    for cid in _split_cids(e.cids):
        state = b._chunks.get(cid)
        if state is not None and "t_stage_request" not in state:
            state["t_stage_request"] = t
            state["vnf"] = e.vnf


def _on_vnf_staged(b: WideEventBuilder, t: float, e: ev.VnfStageCompleted) -> None:
    state = b._chunks.get(e.cid)
    if state is not None:
        state["t_staged"] = t
        state["stage_latency"] = e.latency
        state["vnf"] = e.vnf


def _on_vnf_failed(b: WideEventBuilder, t: float, e: ev.VnfStageFailed) -> None:
    state = b._chunks.get(e.cid)
    if state is not None:
        state["stage_failures"] = state.get("stage_failures", 0) + 1
        b._totals["stage_failures"] += 1


def _on_chunk_staged(b: WideEventBuilder, t: float, e: ev.ChunkStaged) -> None:
    state = b._chunks.get(e.cid)
    if state is not None:
        state["t_ready"] = t
        if e.staging_latency is not None:
            state["staging_latency"] = e.staging_latency
        if e.control_rtt is not None:
            state["control_rtt"] = e.control_rtt


def _on_stale(b: WideEventBuilder, t: float, e: ev.StaleStagingResponse) -> None:
    state = b._chunks.get(e.cid)
    if state is not None:
        state["stale_responses"] = state.get("stale_responses", 0) + 1
        b._totals["stale_responses"] += 1


def _on_cache_stored(b: WideEventBuilder, t: float, e: ev.CacheStored) -> None:
    # Origin-side publishes at t=0 never opened a lifecycle, so only
    # annotate chunks already in flight.
    state = b._chunks.get(e.cid)
    if state is not None:
        state["t_cached"] = t
        state["cache_store"] = e.store


def _on_chunk_fetched(b: WideEventBuilder, t: float, e: ev.ChunkFetched) -> None:
    state = b._chunks.pop(e.cid, {})
    fetch_start = t - e.latency
    t_signalled = state.get("t_signalled")
    t_staged = state.get("t_staged")
    t_ready = state.get("t_ready")
    lifecycle_start = t_signalled if t_signalled is not None else fetch_start
    pieces = _overlaps(lifecycle_start, t, b._gaps)
    masked = sum((hi - lo for lo, hi in pieces), 0.0)
    source = "edge" if e.from_edge else ("fallback" if e.fallback else "origin")
    b._totals["chunks"] += 1
    b._totals[source] += 1
    b._chunks_this_encounter += 1
    b._masked_pieces.extend(pieces)
    b._emit({
        "kind": "chunk",
        "cid": e.cid,
        "source": source,
        "network": b._network,
        "t_signalled": t_signalled,
        "t_stage_request": state.get("t_stage_request"),
        "t_staged": t_staged,
        "t_ready": t_ready,
        "t_cached": state.get("t_cached"),
        "t_fetch_start": fetch_start,
        "t_fetched": t,
        "fetch_latency": e.latency,
        "stage_latency": state.get("stage_latency"),
        "staging_latency": state.get("staging_latency"),
        "control_rtt": state.get("control_rtt"),
        "stage_wait_s": (
            t_staged - t_signalled
            if t_staged is not None and t_signalled is not None else None
        ),
        "ready_wait_s": (
            fetch_start - t_ready if t_ready is not None else None
        ),
        "masked_s": masked,
        "re_signals": state.get("re_signals", 0),
        "stage_failures": state.get("stage_failures", 0),
        "stale_responses": state.get("stale_responses", 0),
        "signal_label": state.get("signal_label"),
        "vnf": state.get("vnf"),
        "cache_store": state.get("cache_store"),
        "lead_bytes": b._gauge_latest.get("staging.lead_bytes"),
        "progress_bytes": b._gauge_latest.get("client.progress_bytes"),
        "connected": b._gauge_latest.get("client.connected"),
    })


def _on_handoff_started(b: WideEventBuilder, t: float, e: ev.HandoffStarted) -> None:
    b._handoffs[e.target] = t


def _on_handoff_completed(
    b: WideEventBuilder, t: float, e: ev.HandoffCompleted
) -> None:
    start = b._handoffs.pop(e.target, None)
    if start is None:
        start = t - e.duration
    from_network = b._network
    b._network = e.target
    b._handoff_count += 1
    b._totals["handoffs_completed"] += 1
    b._emit({
        "kind": "handoff",
        "key": f"ho{b._handoff_count}",
        "target": e.target,
        "from_network": from_network,
        "status": "completed",
        "t_start": start,
        "t_end": t,
        "duration_s": e.duration,
        "connected": b._gauge_latest.get("client.connected"),
        "lead_bytes": b._gauge_latest.get("staging.lead_bytes"),
    })


def _on_handoff_deferred(
    b: WideEventBuilder, t: float, e: ev.HandoffDeferred
) -> None:
    b._handoff_count += 1
    b._totals["handoffs_deferred"] += 1
    b._emit({
        "kind": "handoff",
        "key": f"ho{b._handoff_count}",
        "target": e.target,
        "from_network": b._network,
        "status": "deferred",
        "t_start": t,
        "t_end": t,
        "duration_s": 0.0,
        "connected": b._gauge_latest.get("client.connected"),
        "lead_bytes": b._gauge_latest.get("staging.lead_bytes"),
    })


def _on_encounter_ended(
    b: WideEventBuilder, t: float, e: ev.EncounterEnded
) -> None:
    b._encounters += 1
    b._encounter_time += e.duration
    chunks = b._chunks_this_encounter
    b._chunks_this_encounter = 0
    b._emit({
        "kind": "encounter",
        "key": f"enc{b._encounters}",
        "network": b._network,
        "t_start": t - e.duration,
        "t_end": t,
        "duration_s": e.duration,
        "chunks_delivered": chunks,
        "progress_bytes": b._gauge_latest.get("client.progress_bytes"),
        "lead_bytes": b._gauge_latest.get("staging.lead_bytes"),
    })


def _on_coverage_gap(b: WideEventBuilder, t: float, e: ev.CoverageGap) -> None:
    b._gap_count += 1
    b._gap_time += e.duration
    b._gaps.append((t - e.duration, t))
    b._emit({
        "kind": "gap",
        "key": f"gap{b._gap_count}",
        "network": b._network,
        "t_start": t - e.duration,
        "t_end": t,
        "duration_s": e.duration,
        "lead_bytes": b._gauge_latest.get("staging.lead_bytes"),
        "progress_bytes": b._gauge_latest.get("client.progress_bytes"),
    })


def _on_packet_dropped(b: WideEventBuilder, t: float, e: ev.PacketDropped) -> None:
    b._totals["dropped_packets"] += e.count


_HANDLERS = {
    ev.GaugeSample: _on_gauge,
    ev.StagingSignalled: _on_signalled,
    ev.StageRequestReceived: _on_stage_request,
    ev.VnfStageCompleted: _on_vnf_staged,
    ev.VnfStageFailed: _on_vnf_failed,
    ev.ChunkStaged: _on_chunk_staged,
    ev.StaleStagingResponse: _on_stale,
    ev.CacheStored: _on_cache_stored,
    ev.ChunkFetched: _on_chunk_fetched,
    ev.HandoffStarted: _on_handoff_started,
    ev.HandoffCompleted: _on_handoff_completed,
    ev.HandoffDeferred: _on_handoff_deferred,
    ev.EncounterEnded: _on_encounter_ended,
    ev.CoverageGap: _on_coverage_gap,
    ev.PacketDropped: _on_packet_dropped,
}
