"""Span views over wide records: lifecycle variants, parents, parity."""

import pytest

from repro.experiments.params import MicrobenchParams
from repro.experiments.report import render_breakdown
from repro.experiments.runner import run_download
from repro.obs import Stamped
from repro.obs.analyze import (
    interval,
    intervals,
    label,
    load_runs,
    parents,
    phases,
    render_summary,
    status,
    summarize_breakdown,
)
from repro.obs.events import (
    CacheStored,
    ChunkFetched,
    ChunkStaged,
    CoverageGap,
    EncounterEnded,
    HandoffCompleted,
    HandoffDeferred,
    HandoffStarted,
    StageRequestReceived,
    StagingSignalled,
    StaleStagingResponse,
    VnfStageCompleted,
    VnfStageFailed,
)
from repro.obs.wide import WideEventBuilder, derive_wide
from repro.util import MB


def stamp(t, event, run="r0"):
    return Stamped(t, run, event)


def chunk(records, cid):
    return next(r for r in records if r["kind"] == "chunk" and r["cid"] == cid)


# -- chunk lifecycle ---------------------------------------------------------


def test_full_edge_lifecycle_produces_one_chunk_span():
    records = derive_wide([
        stamp(1.0, StagingSignalled(count=2, label="eq1", cids="c1,c2")),
        stamp(1.2, StageRequestReceived(vnf="edge1", chunks=2, cids="c1,c2")),
        stamp(2.0, VnfStageCompleted(vnf="edge1", cid="c1", latency=0.8)),
        stamp(2.0, CacheStored(store="edge1", cid="c1", size_bytes=4, pinned=True)),
        stamp(2.3, ChunkStaged(cid="c1", staging_latency=0.8, control_rtt=0.5)),
        stamp(3.0, ChunkFetched(cid="c1", latency=0.4, from_edge=True, fallback=False)),
    ])
    c1 = chunk(records, "c1")
    assert interval(c1) == (1.0, 3.0)
    assert status(c1) == "edge"
    # Equal times break ties in lifecycle order: cached before staged.
    assert [name for name, _ in phases(c1)] == [
        "signalled", "stage_request", "cached", "staged", "ready", "fetched",
    ]
    assert c1["vnf"] == "edge1"
    assert c1["stage_latency"] == 0.8
    assert c1["t_fetch_start"] == pytest.approx(2.6)
    # c2 was signalled but never delivered: no record, one open chunk.
    assert [label(r) for r in intervals(records)] == ["c1"]
    assert records[-1]["chunks_open"] == 1
    summary = render_summary(records)
    assert "     chunk |      2 |      1 |" in summary
    assert "     chunk: edge=1, staging=1" in summary


def test_origin_fallback_and_unsignalled_variants():
    records = derive_wide([
        stamp(0.0, StagingSignalled(count=1, label="eq1", cids="c1")),
        stamp(0.5, VnfStageFailed(vnf="edge1", cid="c1")),
        stamp(4.0, ChunkFetched(cid="c1", latency=3.0, from_edge=False, fallback=True)),
        # Never signalled: the lifecycle starts at fetch start.
        stamp(9.0, ChunkFetched(cid="c9", latency=2.0, from_edge=False, fallback=False)),
    ])
    c1 = chunk(records, "c1")
    assert status(c1) == "fallback"
    assert c1["stage_failures"] == 1
    c9 = chunk(records, "c9")
    assert status(c9) == "origin"
    assert interval(c9) == (7.0, 9.0)
    assert [name for name, _ in phases(c9)] == ["fetched"]


def test_re_signal_and_stale_response_marks():
    records = derive_wide([
        stamp(0.0, StagingSignalled(count=1, label="eq1", cids="c1")),
        stamp(5.0, StagingSignalled(count=1, label="re-signal", cids="c1")),
        stamp(6.0, StaleStagingResponse(cid="c1")),
        stamp(7.0, ChunkFetched(cid="c1", latency=0.5, from_edge=True, fallback=False)),
    ])
    c1 = chunk(records, "c1")
    assert c1["re_signals"] == 1
    assert c1["stale_responses"] == 1
    assert interval(c1) == (0.0, 7.0)  # the first signal opens it


def test_cache_stored_never_opens_a_span():
    # Origin-side publishes at t=0 must not look like staging.
    records = derive_wide([
        stamp(0.0, CacheStored(store="origin", cid="c1", size_bytes=4, pinned=False)),
    ])
    assert intervals(records) == []
    assert records[-1]["chunks_open"] == 0


# -- encounters, gaps, handoffs ---------------------------------------------


def test_encounter_and_gap_spans_are_retroactive_intervals():
    records = derive_wide([
        stamp(12.0, EncounterEnded(duration=12.0)),
        stamp(20.0, CoverageGap(duration=8.0)),
    ])
    enc, gap = intervals(records)
    assert (label(enc), interval(enc), status(enc)) == ("enc1", (0.0, 12.0), "ended")
    assert (label(gap), interval(gap), status(gap)) == ("gap1", (12.0, 20.0), "offline")


def test_handoff_span_variants():
    records = derive_wide([
        stamp(1.0, HandoffDeferred(target="net2")),
        stamp(2.0, HandoffStarted(target="net2")),
        stamp(2.5, HandoffCompleted(target="net2", duration=0.5)),
    ])
    deferred, executed = intervals(records)
    assert status(deferred) == "deferred" and interval(deferred) == (1.0, 1.0)
    assert status(executed) == "completed"
    assert interval(executed) == (2.0, 2.5)
    assert label(executed) == "net2"
    assert executed["duration_s"] == 0.5
    assert "   handoff: completed=1, deferred=1" in render_summary(records)


def test_chunk_nests_under_delivering_encounter():
    records = derive_wide([
        stamp(1.0, StagingSignalled(count=2, label="eq1", cids="c1,c2")),
        stamp(3.0, ChunkFetched(cid="c1", latency=1.0, from_edge=True, fallback=False)),
        stamp(5.0, EncounterEnded(duration=5.0)),       # [0, 5]
        stamp(30.0, ChunkFetched(cid="c2", latency=1.0, from_edge=True, fallback=False)),
    ])
    enc = next(r for r in records if r["kind"] == "encounter")
    parent_of = parents(records)
    assert parent_of[chunk(records, "c1")["seq"]] == enc["seq"]
    # Delivered after the last ended encounter: no parent.
    assert chunk(records, "c2")["seq"] not in parent_of


# -- builder mechanics -------------------------------------------------------


def test_builder_adopts_first_run_and_skips_others():
    records = []
    builder = WideEventBuilder(sinks=[records.append])
    builder.feed(stamp(1.0, HandoffDeferred(target="a"), run="runA"))
    builder.feed(stamp(2.0, HandoffDeferred(target="b"), run="runB"))
    builder.finish()
    assert builder.run_id == "runA"
    assert builder.skipped_other_runs == 1
    assert [label(r) for r in intervals(records)] == ["a"]


def test_finish_is_idempotent():
    records = []
    builder = WideEventBuilder(sinks=[records.append])
    builder.feed(stamp(1.0, HandoffDeferred(target="a")))
    first = builder.finish()
    views = [(label(r), interval(r)) for r in intervals(records)]
    assert builder.finish() == first
    assert [(label(r), interval(r)) for r in intervals(records)] == views
    assert [r["kind"] for r in records].count("run") == 1


# -- live/replay parity (the headline guarantee) -----------------------------

PARAMS = MicrobenchParams(file_size=4 * MB, chunk_size=1 * MB, packet_loss=0.05)


@pytest.mark.parametrize("system", ["softstage", "xftp"])
def test_offline_span_derivation_equals_live(system, tmp_path):
    trace = tmp_path / f"{system}.jsonl"
    result = run_download(
        system, params=PARAMS, seed=0, trace_path=str(trace),
        wide=str(tmp_path / "wide.jsonl"),
    )
    offline = load_runs(str(trace))[result.run_id].records
    assert offline == result.wide_records
    # The rendered `trace summary` tables must be byte-identical.
    assert render_summary(offline) == render_summary(result.wide_records)
    assert render_breakdown(summarize_breakdown(offline)) == render_breakdown(
        summarize_breakdown(result.wide_records)
    )
    if system == "softstage":
        assert any(r["kind"] == "chunk" for r in offline)


def test_offline_derivation_is_deterministic(tmp_path):
    trace = tmp_path / "det.jsonl"
    result = run_download(
        "softstage", params=PARAMS, seed=1, trace_path=str(trace),
    )
    first = load_runs(str(trace))[result.run_id].records
    second = load_runs(str(trace))[result.run_id].records
    assert first == second
    assert render_summary(first) == render_summary(second)
