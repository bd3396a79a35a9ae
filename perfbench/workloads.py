"""The benchmark's workloads: inputs from a seed, runs, checks, digests.

A workload's *unit* is its fixed input: the 16 MB Xftp + SoftStage
pair (``demo16``, ``telemetry_360p``) or the three-point Fig. 6(b)
panel through the parallel sweep engine (``sweep_b``).  A benchmark
seed expands into ``sub_seeds`` simulation seeds; one round runs the
unit once per simulation seed, and the run repeats rounds (possibly
partially) until its time is up.  Every repeat must reproduce the
first round's simulated outcome exactly.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.experiments import parallel
from repro.experiments.microbench import PAPER_GAINS
from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.util import MB

SYSTEMS = ("xftp", "softstage")


@dataclass(frozen=True)
class Point:
    label: str
    params: MicrobenchParams
    #: The paper's Xftp/SoftStage gain at this point (None: no value).
    paper_gain: Optional[float]


@dataclass(frozen=True)
class Workload:
    name: str
    points: tuple[Point, ...]
    #: Simulation seeds per benchmark seed (one round = one unit each).
    sub_seeds: int
    #: 0: the pair runs in this process; N: ``run_tasks(jobs=N)``.
    jobs: int = 0
    #: Full telemetry stack plus the offline replay (telemetry_360p).
    telemetry: bool = False

    def seeds(self, seed: int) -> list[int]:
        """The simulation seeds a benchmark seed stands for."""
        return [seed * self.sub_seeds + i for i in range(self.sub_seeds)]


def make_workloads(file_size: int = 16 * MB) -> dict[str, Workload]:
    """The three workloads; tests pass a tiny ``file_size``."""
    base = MicrobenchParams(file_size=file_size)
    quarter = int(0.25 * MB)
    return {
        "demo16": Workload(
            "demo16",
            # The Table III defaults are Fig. 6(b)'s 12 s point.
            (Point("defaults", base, PAPER_GAINS["encounter"]["12 s"]),),
            sub_seeds=4,
        ),
        "sweep_b": Workload(
            "sweep_b",
            tuple(
                Point(
                    f"encounter {s:g} s",
                    base.with_(encounter_time=float(s)),
                    PAPER_GAINS["encounter"].get(f"{s:g} s"),
                )
                for s in (3, 4, 12)
            ),
            sub_seeds=2,
            jobs=2,
        ),
        "telemetry_360p": Workload(
            "telemetry_360p",
            (Point(
                "chunk 0.25 MB",
                base.with_(chunk_size=quarter),
                PAPER_GAINS["chunk"]["0.25 MB"],
            ),),
            sub_seeds=4,
            telemetry=True,
        ),
    }


@dataclass
class Download:
    """What the benchmark keeps of one finished download."""

    point: str
    system: str
    seed: int
    time: float
    bytes_received: int
    chunks_completed: int
    chunks_total: int
    edge: int
    origin: int
    fallbacks: int
    staging_signals: int

    def digest_line(self) -> str:
        """The simulated outcome: no host times, no kernel step counts."""
        return (
            f"{self.point}|{self.system}|seed{self.seed}|{self.time.hex()}|"
            f"edge={self.edge} origin={self.origin} fallback={self.fallbacks}"
        )


@dataclass
class UnitResult:
    seed: int
    downloads: list[Download]
    #: Host seconds from each download's first kernel step to its
    #: result, summed (plus the offline replay for telemetry_360p; the
    #: whole run_tasks call for sweep_b).
    wall_s: float
    attempted: int = 0
    #: Downloads that failed an output check, with the reason.
    failures: list[str] = field(default_factory=list)
    obs: dict = field(default_factory=dict)
    #: Per-task tracer totals (with pid, start, end) from pool workers.
    worker_spans: list = field(default_factory=list)


class RunClock:
    """Notes when each ``Simulator.run`` starts: the first kernel step.

    One wrapper call per download, nothing per event.
    """

    def __init__(self) -> None:
        self.started: Optional[float] = None
        self._original = None

    def install(self) -> "RunClock":
        from repro.sim.core import Simulator

        self._original = original = Simulator.__dict__["run"]
        clock = self

        def run(sim, *args, **kwargs):
            clock.started = perf_counter()
            return original(sim, *args, **kwargs)

        Simulator.run = run
        return self

    def uninstall(self) -> None:
        from repro.sim.core import Simulator

        Simulator.run = self._original


def _check(download: Download, params: MicrobenchParams) -> Optional[str]:
    expected_chunks = math.ceil(params.file_size / params.chunk_size)
    if download.bytes_received != params.file_size:
        return (f"{download.digest_line()}: {download.bytes_received} bytes, "
                f"expected {params.file_size}")
    if not (download.chunks_completed == download.chunks_total
            == expected_chunks):
        return (f"{download.digest_line()}: {download.chunks_completed}/"
                f"{download.chunks_total} chunks, expected {expected_chunks}")
    return None


def _from_result(point: Point, result) -> Download:
    d = result.download
    return Download(
        point.label, result.system, result.seed, result.download_time,
        d.bytes_received, d.chunks_completed, d.chunks_total,
        d.chunks_from_edge, d.chunks_from_origin, d.fallbacks,
        d.staging_signals,
    )


def _from_summary(point: Point, summary) -> Download:
    expected = math.ceil(point.params.file_size / point.params.chunk_size)
    return Download(
        point.label, summary.system, summary.seed, summary.download_time,
        summary.bytes_received, summary.chunks_completed, expected,
        summary.chunks_from_edge, summary.chunks_from_origin,
        summary.fallbacks, summary.staging_signals,
    )


def run_unit(
    workload: Workload, seed: int, clock: RunClock, out_dir: str,
) -> UnitResult:
    """Run one unit of ``workload`` at simulation seed ``seed``."""
    if workload.jobs:
        return _run_sweep(workload, seed)
    if workload.telemetry:
        return _run_telemetry_pair(workload, seed, clock, out_dir)
    unit = UnitResult(seed, [], 0.0)
    for point in workload.points:
        for system in SYSTEMS:
            result = run_download(system, params=point.params, seed=seed)
            unit.wall_s += perf_counter() - clock.started
            _add(unit, point, _from_result(point, result))
    return unit


def _add(unit: UnitResult, point: Point, download: Download) -> None:
    unit.attempted += 1
    unit.downloads.append(download)
    problem = _check(download, point.params)
    if problem:
        unit.failures.append(problem)


def _run_sweep(workload: Workload, seed: int) -> UnitResult:
    tasks = [
        parallel.SweepTask(system=system, params=point.params, seed=seed)
        for point in workload.points
        for system in SYSTEMS
    ]
    started = perf_counter()
    results = parallel.run_tasks(tasks, jobs=workload.jobs)
    unit = UnitResult(seed, [], perf_counter() - started)
    task_points = [point for point in workload.points for _ in SYSTEMS]
    for point, result in zip(task_points, results):
        if isinstance(result, tuple):  # traced worker: (summary, totals)
            result, totals = result
            unit.worker_spans.append(totals)
        _add(unit, point, _from_summary(point, result))
    return unit


def _run_telemetry_pair(
    workload: Workload, seed: int, clock: RunClock, out_dir: str,
) -> UnitResult:
    """The pair as ``repro demo --trace --gauges --audit --emit-wide``
    runs it (plus sketches), then the offline replay of its trace."""
    from repro.obs.flight import InvariantViolationError
    from repro.obs.trace import read_trace, replay_trace
    from repro.obs.wide import WideEventWriter, derive_wide

    (point,) = workload.points
    trace_path = os.path.join(out_dir, f"{workload.name}-seed{seed}.jsonl")
    live_path = os.path.join(out_dir, f"{workload.name}-seed{seed}.wide.jsonl")
    offline_path = os.path.join(
        out_dir, f"{workload.name}-seed{seed}.offline.jsonl"
    )
    unit = UnitResult(seed, [], 0.0)
    wide = WideEventWriter(live_path)
    try:
        with open(trace_path, "w", encoding="utf-8") as trace_fh:
            for system in SYSTEMS:
                try:
                    result = run_download(
                        system, params=point.params, seed=seed,
                        trace_path=trace_fh, gauges=True, audit=True,
                        wide=wide, sketches=True,
                    )
                except InvariantViolationError as exc:
                    unit.wall_s += perf_counter() - clock.started
                    unit.attempted += 1
                    unit.failures.append(f"{system}-seed{seed}: {exc}")
                    continue
                unit.wall_s += perf_counter() - clock.started
                _add(unit, point, _from_result(point, result))
    finally:
        wide.close()
    started = perf_counter()
    replay_trace(trace_path)
    with WideEventWriter(offline_path) as offline:
        records = derive_wide(read_trace(trace_path), sinks=[offline.write])
    offline_s = perf_counter() - started
    unit.wall_s += offline_s
    with open(live_path, "rb") as a, open(offline_path, "rb") as b:
        if a.read() != b.read():
            unit.failures.extend(
                f"{d.digest_line()}: offline derive_wide differs from the "
                "live wide file" for d in unit.downloads
            )
    unit.obs = {
        "trace_mb": os.path.getsize(trace_path) / MB,
        "wide_records": len(records),
        "offline_s": offline_s,
    }
    for path in (trace_path, live_path, offline_path):
        os.remove(path)
    return unit


def paper_gain_err(workload: Workload, downloads: list[Download]) -> float:
    """Mean |gain − paper| / paper over points with a paper value.

    A point's gain is mean Xftp time / mean SoftStage time over the
    simulation seeds, as the repository's multi-seed sweeps compute it.
    """
    errors = []
    for point in workload.points:
        if point.paper_gain is None:
            continue
        times = {
            system: [d.time for d in downloads
                     if d.point == point.label and d.system == system]
            for system in SYSTEMS
        }
        if not all(times.values()):
            return math.nan  # a download failed; the run reports it
        gain = statistics.mean(times["xftp"]) / statistics.mean(times["softstage"])
        errors.append(abs(gain - point.paper_gain) / point.paper_gain)
    return statistics.mean(errors)


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set size of this process (and its reaped children)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(workload: Workload, seed: int, root: str, repeats: int = 5) -> float:
    """Median set-up seconds: import, scenario build and publish, pool start.

    Importing is timed in fresh interpreters; the scenario is built and
    its content published in this process; ``sweep_b`` also times a
    two-worker pool coming up.
    """
    import subprocess

    from repro.experiments.scenario import TestbedScenario

    code = (
        "import time; t = time.perf_counter(); "
        "import repro.experiments.runner, repro.experiments.parallel; "
        "print(repr(time.perf_counter() - t))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    imports, builds, pools = [], [], []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env,
            capture_output=True, text=True, check=True, timeout=60,
        )
        imports.append(float(out.stdout.strip().splitlines()[-1]))
    params = workload.points[0].params
    for _ in range(repeats):
        started = perf_counter()
        TestbedScenario(params=params, seed=seed).publish_default_content()
        builds.append(perf_counter() - started)
    if workload.jobs:
        from concurrent.futures import ProcessPoolExecutor, wait

        for _ in range(repeats):
            started = perf_counter()
            pool = ProcessPoolExecutor(max_workers=workload.jobs)
            try:
                wait([pool.submit(os.getpid) for _ in range(workload.jobs)])
                pools.append(perf_counter() - started)
            finally:
                pool.shutdown(wait=True)
    total = statistics.median(imports) + statistics.median(builds)
    if pools:
        total += statistics.median(pools)
    return total
