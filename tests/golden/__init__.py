"""Golden behaviour digest: fixed-seed outcomes of a small run matrix.

The matrix is the 4 MB demo pair, one non-default point per Fig. 6
panel (Xftp and SoftStage each), every registered staging policy and
the end-to-end baseline.  Each case records what the simulation
computed, never how much work the kernel did:

- the download time as ``float.hex`` (exact, so any perturbation of
  event order or arithmetic shows);
- bytes, chunk counts and the chunk source mix (edge / origin /
  fallback), handoffs and staging signals;
- bus event counts by type, from a strict-audited run.

Kernel step counts and heap pushes are left out on purpose: a
performance change may legitimately alter them while computing the
same outcome.

``tests/golden/test_golden.py`` compares every case against
``behaviour.json``.  A change that is meant to alter behaviour
regenerates the file on purpose and explains why in CHANGES.md::

    PYTHONPATH=src python -m tests.golden --write

Without ``--write`` the command reports which cases differ.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.experiments.params import MicrobenchParams
from repro.util import MB, mbps, ms

GOLDEN_PATH = Path(__file__).with_name("behaviour.json")
SEED = 0

DEMO = MicrobenchParams(file_size=4 * MB)
#: Smaller chunks than the demo so every run has several.
BASE = MicrobenchParams(file_size=4 * MB, chunk_size=1 * MB)

#: One non-default point per Fig. 6 panel.
PANELS = {
    "a-chunk-0.625MB": BASE.with_(chunk_size=int(0.625 * MB)),
    "b-encounter-3s": BASE.with_(encounter_time=3.0),
    "c-disconnection-32s": BASE.with_(disconnection_time=32.0),
    "d-loss-37%": BASE.with_(packet_loss=0.37),
    "e-bandwidth-15Mbps": BASE.with_(internet_bandwidth=mbps(15)),
    "f-latency-100ms": BASE.with_(internet_latency=ms(100)),
}

#: Short encounters, so every policy has to stage across a gap.
POLICY_POINT = BASE.with_(encounter_time=4.0)
POLICIES = ("reactive", "rich", "mobility", "predictive")


@dataclass(frozen=True)
class Case:
    name: str
    system: str
    params: MicrobenchParams
    policy: Optional[str] = None


def _matrix() -> tuple[Case, ...]:
    cases = [Case(f"demo/{system}", system, DEMO) for system in ("xftp", "softstage")]
    for panel, params in PANELS.items():
        cases += [
            Case(f"fig6{panel}/{system}", system, params)
            for system in ("xftp", "softstage")
        ]
    cases += [
        Case(f"policy/{policy}", "softstage", POLICY_POINT, policy)
        for policy in POLICIES
    ]
    cases.append(Case("endtoend", "endtoend", BASE))
    return tuple(cases)


MATRIX = _matrix()


def digest(case: Case) -> dict:
    """Run one case and return its behaviour record."""
    from repro.experiments.runner import run_download

    result = run_download(
        case.system, params=case.params, seed=SEED, policy=case.policy,
        audit=True,
    )
    download = result.download
    return {
        "download_time": result.download_time.hex(),
        "bytes_received": download.bytes_received,
        "chunks": [download.chunks_completed, download.chunks_total],
        "sources": {
            "edge": download.chunks_from_edge,
            "origin": download.chunks_from_origin,
            "fallback": download.fallbacks,
        },
        "handoffs": download.handoffs,
        "staging_signals": download.staging_signals,
        "events": dict(sorted(result.auditor.event_counts.items())),
    }


def load() -> dict:
    """The checked-in digest, ``{case name: record}``."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["cases"]


def write(cases: dict) -> None:
    payload = {
        "about": (
            "Fixed-seed behaviour digest; see tests/golden/__init__.py. "
            "Regenerate with: PYTHONPATH=src python -m tests.golden --write"
        ),
        "seed": SEED,
        "cases": cases,
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
