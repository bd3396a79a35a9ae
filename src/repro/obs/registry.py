"""The persistent run registry: every run leaves a comparable record.

A registry is one append-only JSONL file (``.repro_runs/registry.jsonl``
by default, ``REPRO_RUNS_DIR`` overrides the directory) where demos,
sweeps and benches deposit a summary record — run identity, git SHA,
machine fingerprint (shared with :mod:`repro.perf`), headline metrics,
(when the flight recorder ran) the sampled gauge timelines and (when
wide events were kept) the per-chunk phase columns.  The
``python -m repro runs`` CLI lists, renders and diffs records; the
diff's paper-shape verdict is an SLO judged by :mod:`repro.obs.slo`.

Record schema (one JSON object per line)::

    {"rec_id": "0003/demo-seed0", "run_id": "demo-seed0",
     "kind": "demo", "recorded_at": "...", "git_sha": "...",
     "machine": "linux-x86_64-...", "metrics": {"gain": 1.8, ...},
     "gauges": {"staging.lead_bytes": {"t": [...], "v": [...]}, ...},
     "phases": {"fetch_latency": [2.1, null, ...], ...},
     "meta": {...}}

Forward compatibility mirrors the trace reader: unknown top-level keys
are preserved on load, and records missing optional keys get empty
defaults, so old registries keep loading as the schema grows.  Keys
an older schema wrote and this one dropped are kept the same way and
are not judged.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from typing import Optional

try:  # advisory append locking (POSIX; no-op where unavailable)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from repro import perf

#: Default registry directory (override with ``REPRO_RUNS_DIR``).
DEFAULT_DIR = ".repro_runs"
REGISTRY_FILE = "registry.jsonl"

_git_sha_cache: Optional[str] = None

#: Gauge-name filters treat ``.`` and ``_`` as the same separator.
_FOLD = str.maketrans("._", "--")


def _fold(name: str) -> str:
    return name.translate(_FOLD)


def git_sha() -> str:
    """The current commit SHA (cached; ``"unknown"`` outside a repo)."""
    global _git_sha_cache
    if _git_sha_cache is None:
        try:
            _git_sha_cache = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=5, check=True,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            _git_sha_cache = "unknown"
    return _git_sha_cache


@dataclass
class RunRecord:
    """One registry line, parsed."""

    rec_id: str
    run_id: str
    kind: str
    recorded_at: str
    git_sha: str
    machine: str
    #: Staging policy that produced the run ("" = system default —
    #: pre-policy-framework records load with this default).
    policy: str = ""
    metrics: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    #: Exact per-chunk values, ``{field: [v or None, ...]}``, one
    #: entry per chunk record in emission order (see
    #: :func:`repro.obs.slo.phase_columns`).
    phases: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    #: Top-level keys written by a newer version, preserved verbatim.
    extra: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_json(cls, payload: dict) -> "RunRecord":
        known = {
            "rec_id", "run_id", "kind", "recorded_at", "git_sha",
            "machine", "policy", "metrics", "gauges", "phases", "meta",
        }
        return cls(
            rec_id=str(payload.get("rec_id", "")),
            run_id=str(payload.get("run_id", "")),
            kind=str(payload.get("kind", "run")),
            recorded_at=str(payload.get("recorded_at", "")),
            git_sha=str(payload.get("git_sha", "unknown")),
            machine=str(payload.get("machine", "")),
            policy=str(payload.get("policy", "")),
            metrics=dict(payload.get("metrics", {})),
            gauges=dict(payload.get("gauges", {})),
            phases=dict(payload.get("phases", {})),
            meta=dict(payload.get("meta", {})),
            extra={k: v for k, v in payload.items() if k not in known},
        )

    def to_json(self) -> dict:
        payload = dict(self.extra)
        payload.update(
            rec_id=self.rec_id,
            run_id=self.run_id,
            kind=self.kind,
            recorded_at=self.recorded_at,
            git_sha=self.git_sha,
            machine=self.machine,
            policy=self.policy,
            metrics=self.metrics,
            gauges=self.gauges,
            phases=self.phases,
            meta=self.meta,
        )
        return payload

    def gauge_series(self, metric: str) -> dict[str, list]:
        """Gauge timelines whose name contains ``metric`` (substring).

        ``.`` and ``_`` are interchangeable in the filter, so
        ``cache_occupancy`` matches ``cache.occupancy_bytes.*``.
        """
        wanted = _fold(metric)
        return {
            name: series
            for name, series in self.gauges.items()
            if wanted in _fold(name)
        }


class RunRegistry:
    """Append/load/diff interface over one registry JSONL file."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = (
            directory
            or os.environ.get("REPRO_RUNS_DIR")
            or DEFAULT_DIR
        )
        self.path = os.path.join(self.directory, REGISTRY_FILE)

    # -- writing -------------------------------------------------------------

    def append(
        self,
        run_id: str,
        kind: str,
        metrics: dict,
        gauges: Optional[dict] = None,
        meta: Optional[dict] = None,
        policy: str = "",
        phases: Optional[dict] = None,
    ) -> RunRecord:
        """Append one record; assigns a unique ``rec_id`` and returns it.

        Appends are serialized across concurrent writers (parallel
        sweep workers, a live HTTP service, several CLIs sharing one
        registry) with an advisory ``fcntl`` lock held across the
        sequence-number read *and* the write, so records never tear
        into unparseable lines and ``rec_id`` sequence numbers stay
        unique.  On platforms without ``fcntl`` the append degrades to
        the historical unlocked single-writer behaviour.
        """
        os.makedirs(self.directory, exist_ok=True)
        with open(self.path, "a+", encoding="utf-8") as fh:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                fh.seek(0)
                seq = sum(1 for line in fh if line.strip()) + 1
                record = RunRecord(
                    rec_id=f"{seq:04d}/{run_id}",
                    run_id=run_id,
                    kind=kind,
                    recorded_at=time.strftime(
                        "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                    ),
                    git_sha=git_sha(),
                    machine=perf.fingerprint(),
                    policy=policy,
                    metrics=dict(metrics),
                    gauges=dict(gauges or {}),
                    phases=dict(phases or {}),
                    meta=dict(meta or {}),
                )
                # Mode "a" writes always land at EOF, even after the
                # seek above; one write call keeps the line whole.
                fh.write(
                    json.dumps(record.to_json(), separators=(",", ":"))
                    + "\n"
                )
                fh.flush()
            finally:
                if fcntl is not None:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        return record

    # -- reading -------------------------------------------------------------

    def _lines(self):
        try:
            with open(self.path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if line:
                        yield line
        except FileNotFoundError:
            return

    def records(self) -> list[RunRecord]:
        return [RunRecord.from_json(json.loads(line)) for line in self._lines()]

    def find(self, key: str) -> RunRecord:
        """Resolve ``key`` to one record.

        Exact ``rec_id`` match wins; otherwise the *latest* record
        whose ``run_id`` (or rec_id) contains ``key``.  Raises
        :class:`KeyError` when nothing matches.
        """
        records = self.records()
        for record in records:
            if record.rec_id == key:
                return record
        matches = [
            record for record in records
            if key in record.run_id or key in record.rec_id
        ]
        if not matches:
            raise KeyError(
                f"no registry record matches {key!r} "
                f"({len(records)} records in {self.path})"
            )
        return matches[-1]


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricDelta:
    """One shared metric compared across two records."""

    name: str
    value_a: float
    value_b: float
    #: B relative to A (``None`` when A is zero).
    ratio: Optional[float]


def diff_records(a: RunRecord, b: RunRecord) -> list[MetricDelta]:
    """Compare the numeric metrics two records share, A → B.

    Only deltas and B/A ratios: :func:`repro.obs.slo.judge_diff`
    decides which of them break the paper shape.
    """
    deltas: list[MetricDelta] = []
    for name in sorted(set(a.metrics) & set(b.metrics)):
        va, vb = a.metrics[name], b.metrics[name]
        if not isinstance(va, (int, float)) or not isinstance(vb, (int, float)):
            continue
        deltas.append(
            MetricDelta(
                name=name,
                value_a=float(va),
                value_b=float(vb),
                ratio=vb / va if va else None,
            )
        )
    return deltas


# ---------------------------------------------------------------------------
# JSON payloads (shared by ``repro runs --json`` and the HTTP service)
# ---------------------------------------------------------------------------


def record_summary(record: RunRecord) -> dict:
    """The light listing shape: identity + metrics, gauge *names* only.

    One serialization path for ``repro runs list --json`` and the
    service's ``GET /runs``, so CI scripts never scrape table text.
    """
    return {
        "rec_id": record.rec_id,
        "run_id": record.run_id,
        "kind": record.kind,
        "recorded_at": record.recorded_at,
        "git_sha": record.git_sha,
        "machine": record.machine,
        "policy": record.policy,
        "metrics": record.metrics,
        "gauges": sorted(record.gauges),
        "phases": sorted(record.phases),
        "meta": record.meta,
    }


def list_payload(registry: "RunRegistry") -> dict:
    """``{"registry": path, "records": [summary, ...]}``."""
    return {
        "registry": registry.path,
        "records": [record_summary(r) for r in registry.records()],
    }


# ---------------------------------------------------------------------------
# Record builders
# ---------------------------------------------------------------------------


def record_from_result(result) -> tuple[str, dict, dict, dict]:
    """(run_id, metrics, gauges, phases) for one ExperimentResult.

    Gauge timelines are the result's :meth:`gauge_timelines`, stored
    as ``{name: {"t": [...], "v": [...]}}`` (compact JSONL columns);
    ``phases`` are :func:`~repro.obs.slo.phase_columns` of the run's
    wide records (``{}`` when none were kept).
    """
    from repro.obs.slo import phase_columns

    download = result.download
    metrics = {
        "download_time": result.download_time,
        "throughput_bps": result.throughput_bps,
        "bytes_received": download.bytes_received,
        "chunks_completed": download.chunks_completed,
        "chunks_from_edge": download.chunks_from_edge,
        "chunks_from_origin": download.chunks_from_origin,
        "fallbacks": download.fallbacks,
        "handoffs": download.handoffs,
        "staging_signals": download.staging_signals,
    }
    gauges = {
        name: {"t": [t for t, _v in points], "v": [v for _t, v in points]}
        for name, points in result.gauge_timelines().items()
    }
    phases = (
        phase_columns(result.wide_records) if result.wide_records else {}
    )
    return result.run_id, metrics, gauges, phases
