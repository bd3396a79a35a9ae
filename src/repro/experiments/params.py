"""Table III: parameter settings for the experiments.

Defaults and candidate values exactly as the paper lists them; the
micro-benchmarks vary one parameter at a time while keeping the rest
at their defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.util import MB, mbps, ms


@dataclass(frozen=True)
class MicrobenchParams:
    """One point in the Fig. 6 parameter space (Table III)."""

    #: 2 MB ~ a 2-second 720p YouTube clip.
    chunk_size: int = 2 * MB
    #: 75th percentile of Cabernet encounter time (dense small cells).
    encounter_time: float = 12.0
    #: 25th percentile of Cabernet time-between-encounters.
    disconnection_time: float = 8.0
    #: Median wardriving packet loss.
    packet_loss: float = 0.27
    #: Typical moderately-congested WAN bottleneck.
    internet_bandwidth: float = mbps(60)
    #: Typical RTT to a CDN.
    internet_latency: float = ms(20)
    #: The file downloaded by every micro-benchmark.
    file_size: int = 64 * MB

    def with_(self, **changes) -> "MicrobenchParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class ParameterRow:
    """One row of Table III."""

    name: str
    default: object
    note: str
    candidates: tuple


PARAMETER_TABLE: tuple[ParameterRow, ...] = (
    ParameterRow(
        "Chunk Size",
        2 * MB,
        "2 secs' 720p Youtube video clip",
        (0.25 * MB, 0.625 * MB, 1.25 * MB, 4 * MB, 10 * MB),
    ),
    ParameterRow(
        "Encounter Time",
        12.0,
        "Theoretical maximum duration associated with the same SSID",
        (3.0, 4.0),
    ),
    ParameterRow(
        "Disconnection Time",
        8.0,
        "Time between two consecutive encounters",
        (32.0, 100.0),
    ),
    ParameterRow(
        "Packet Loss Rate",
        0.27,
        "Wardriving measurements in vehicular content delivery",
        (0.22, 0.37),
    ),
    ParameterRow(
        "Internet Bandwidth",
        mbps(60),
        "Typical bottleneck bandwidth in WAN with moderate congestion",
        (mbps(15), mbps(30)),
    ),
    ParameterRow(
        "Internet Latency",
        ms(20),
        "Typical RTT to CDN (e.g., web portals, streaming media, etc.)",
        (ms(5), ms(10), ms(50), ms(100)),
    ),
)

#: Chunk sizes of Fig. 6(a) with their QoE meaning (YouTube SDR
#: recommended bit rates: a 2-second clip at each resolution).
CHUNK_SIZE_LADDER: dict[str, int] = {
    "360p": int(0.25 * MB),
    "480p": int(0.625 * MB),
    "720p": int(1.25 * MB),
    "1080p": 2 * MB,
    "1440p": 4 * MB,
    "2160p": 10 * MB,
}
