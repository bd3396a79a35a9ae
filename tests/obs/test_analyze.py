"""Trace analysis over wide records: breakdown, critical path, Chrome, diff."""

import io
import json

import pytest

from repro.obs import Stamped
from repro.obs.analyze import (
    chrome_trace,
    critical_path,
    intervals,
    load_runs,
    pick_run,
    summarize_breakdown,
)
from repro.obs.events import (
    ChunkFetched,
    CoverageGap,
    StagingSignalled,
    VnfStageCompleted,
)
from repro.obs.explain import explain, render_why
from repro.obs.trace import EventBus, TraceExporter
from repro.obs.wide import derive_wide


def stamp(t, event, run="r0"):
    return Stamped(t, run, event)


LIFECYCLE = [
    stamp(0.0, StagingSignalled(count=2, label="eq1", cids="c1,c2")),
    stamp(2.0, VnfStageCompleted(vnf="edge1", cid="c1", latency=1.5)),
    stamp(3.0, CoverageGap(duration=2.0)),  # offline over [1, 3]
    stamp(5.0, ChunkFetched(cid="c1", latency=0.5, from_edge=True, fallback=False)),
    stamp(9.0, VnfStageCompleted(vnf="edge1", cid="c2", latency=1.0)),
    stamp(12.0, ChunkFetched(cid="c2", latency=3.0, from_edge=False, fallback=True)),
]


def trace_text(stampeds):
    bus = EventBus()
    buffer = io.StringIO()
    exporter = TraceExporter(buffer).attach(bus)
    for s in stampeds:
        bus.publish(s)
    exporter.close()
    return buffer.getvalue()


def test_latency_breakdown_decomposes_phases():
    records = derive_wide(LIFECYCLE)
    by_cid = {r["cid"]: r for r in records if r["kind"] == "chunk"}
    c1 = by_cid["c1"]
    assert c1["source"] == "edge"
    assert c1["stage_wait_s"] == 2.0        # signalled 0.0 -> staged 2.0
    assert c1["fetch_latency"] == 0.5
    # Both lifecycles ([0, 5] and [0, 12]) cover the whole [1, 3] gap.
    assert c1["masked_s"] == 2.0
    c2 = by_cid["c2"]
    assert c2["source"] == "fallback"
    assert c2["stage_wait_s"] == 9.0
    assert c2["masked_s"] == 2.0

    summary = summarize_breakdown(records)
    assert summary.chunks == 2 and summary.edge == 1 and summary.fallback == 1
    assert summary.mean_stage_wait == 5.5
    assert summary.mean_edge_fetch == 0.5
    assert summary.mean_origin_fetch == 3.0
    # The masked row is the run record's union: the gap counts once.
    assert summary.masked_total == 2.0


def test_critical_path_partitions_the_download():
    segments = critical_path(derive_wide(LIFECYCLE))
    assert [s.cid for s in segments] == ["c1", "c2"]
    # c1 blocks from its lifecycle start (0.0) to its delivery (5.0)...
    assert (segments[0].start, segments[0].end) == (0.0, 5.0)
    # ...then c2 blocks until the download completes at 12.0.
    assert (segments[1].start, segments[1].end) == (5.0, 12.0)
    assert segments[1].phase == "stage_wait"  # c2's fetch began at 9.0
    # Segments cover the timeline with no overlap.
    assert segments[0].end == segments[1].start


def test_load_runs_splits_multi_run_traces():
    mixed = [
        stamp(1.0, ChunkFetched(cid="a", latency=1.0, from_edge=True, fallback=False), run="A"),
        stamp(1.0, ChunkFetched(cid="b", latency=0.5, from_edge=False, fallback=False), run="B"),
        stamp(2.0, ChunkFetched(cid="c", latency=1.0, from_edge=True, fallback=False), run="A"),
    ]
    runs = load_runs(io.StringIO(trace_text(mixed)))
    assert list(runs) == ["A", "B"]
    assert runs["A"].events_total == 2
    assert len(intervals(runs["A"].records)) == 2
    assert runs["A"].records[-1]["kind"] == "run"
    assert pick_run(runs).run_id == "A"
    assert pick_run(runs, "B").run_id == "B"


def test_chrome_trace_is_valid_trace_event_json():
    runs = load_runs(io.StringIO(trace_text(LIFECYCLE)))
    payload = chrome_trace(runs)
    # Round-trip through JSON like a real file would.
    payload = json.loads(json.dumps(payload))
    events = payload["traceEvents"]
    assert payload["displayTimeUnit"] == "ms"
    complete = [e for e in events if e["ph"] == "X"]
    assert complete, "expected complete (ph=X) events"
    for e in complete:
        assert {"name", "cat", "ts", "dur", "pid", "tid"} <= set(e)
        assert e["dur"] >= 0
    # c1's lifecycle: [0, 5] seconds -> microseconds.
    c1 = next(e for e in complete if e["name"] == "chunk:c1")
    assert c1["ts"] == 0.0 and c1["dur"] == 5.0e6
    assert c1["args"]["phases"][0] == "signalled@0.000000"
    assert c1["args"]["phases"][-1] == "fetched@5.000000"
    # Metadata names the run.
    meta = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
    assert meta[0]["args"]["name"] == "r0"


def test_diff_attributes_the_delta_through_why():
    fast = derive_wide([
        stamp(0.0, StagingSignalled(count=1, label="eq1", cids="c1"), run="fast"),
        stamp(1.0, ChunkFetched(cid="c1", latency=0.5, from_edge=True, fallback=False), run="fast"),
    ])
    slow = derive_wide([
        stamp(0.0, StagingSignalled(count=1, label="eq1", cids="c1"), run="slow"),
        stamp(4.0, ChunkFetched(cid="c1", latency=3.0, from_edge=False, fallback=False), run="slow"),
    ])
    explanation = explain(fast, slow)
    assert explanation.time_delta == 3.0
    top = explanation.contributors[0]
    assert top.name == "fetch.origin" and top.delta == pytest.approx(3.0)
    report = render_why(explanation)
    assert report.startswith("why: fast -> slow")
    assert "largest contributor: fetch.origin +3.000s" in report
