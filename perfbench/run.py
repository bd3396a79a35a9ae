"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload demo16 --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time, then rounds of the workload's unit until ``--seconds`` are
spent (the first round always completes).  ``--trace 1`` runs one
untraced round, then the first simulation seed's unit again under the
span tracer, and reports the per-layer metrics.  Both modes check every
download and print the simulated-outcome digest; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: End-to-end metrics: name -> unit.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here, or its own accounting is broken."""


def _load_repro():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise BenchmarkError(f"no repro package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import layers
    import workloads

    return layers, workloads


def _digest(downloads) -> tuple[list[str], str]:
    lines = sorted({d.digest_line() for d in downloads})
    return lines, hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _repeat_failures(first, unit) -> list[str]:
    """Outcome lines of ``unit`` that differ from the first run of its seed."""
    expected = [d.digest_line() for d in first.downloads]
    got = [d.digest_line() for d in unit.downloads]
    if expected == got:
        return []
    return [f"seed {unit.seed} rerun differs: {line}"
            for line in got if line not in expected] or [
        f"seed {unit.seed} rerun differs in download count"]


def run_untraced(wl, workload, seed, seconds, clock):
    """Rounds of units until ``seconds`` pass; returns (first, all) units."""
    seeds = workload.seeds(seed)
    first: dict[int, object] = {}
    units = []
    unit_times: list[float] = []
    started = perf_counter()
    i = 0
    while True:
        if i >= len(seeds):
            remaining = started + seconds - perf_counter()
            if remaining < statistics.median(unit_times):
                break
        sim_seed = seeds[i % len(seeds)]
        t0 = perf_counter()
        unit = wl.run_unit(workload, sim_seed, clock, OUT_DIR)
        unit_times.append(perf_counter() - t0)
        if sim_seed in first:
            unit.failures.extend(_repeat_failures(first[sim_seed], unit))
        else:
            first[sim_seed] = unit
        units.append(unit)
        i += 1
    return [first[s] for s in seeds], units


def _union(intervals) -> float:
    covered, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        covered += hi - max(lo, end)
        end = hi
    return covered


def per_layer(layers, workload, tracer, traced, reference, gain_err) -> dict:
    """The per-layer metrics of one traced unit: name -> (value, unit)."""
    n = len(layers.LAYERS)
    self_s = list(tracer.self_s)
    calls = list(tracer.calls)
    counters = dict(tracer.counters())
    entry_s = dict(tracer.entry_s)
    traced_s = tracer.window_s
    efficiency, straggler = 1.0, 0.0
    workers = traced.worker_spans
    if workers:
        # Pool workers: run_tasks' own time excludes what they cover.
        windows = [(w["start"], w["end"]) for w in workers]
        covered = _union(windows)
        self_s[layers.LAYER_INDEX["experiments"]] -= covered
        traced_s += sum(w["window_s"] for w in workers) - covered
        for w in workers:
            for i in range(n):
                self_s[i] += w["self_s"][i]
                calls[i] += w["calls"][i]
            for key, value in w["counters"].items():
                counters[key] += value
            for key, value in w["entry_s"].items():
                entry_s[key] = entry_s.get(key, 0.0) + value
        efficiency = sum(hi - lo for lo, hi in windows) / (
            workload.jobs * traced.wall_s)
        last_end = {}
        for w in workers:
            last_end[w["pid"]] = max(last_end.get(w["pid"], 0.0), w["end"])
        straggler = max(last_end.values()) - min(last_end.values())
    total = sum(self_s)
    if abs(total - traced_s) > 1e-6 * max(traced_s, 1.0):
        raise BenchmarkError(
            f"layer self times sum to {total!r} s, traced time is {traced_s!r} s"
        )
    c = counters

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for i, name in enumerate(layers.LAYERS):
        out[f"{name}.self_s"] = (self_s[i], "s")
        out[f"{name}.share"] = (ratio(self_s[i], traced_s), "ratio")
        out[f"{name}.calls"] = (calls[i], "count")
    edge = sum(d.edge for d in traced.downloads if d.system == "softstage")
    out.update({
        "sim.steps": (c["sim.steps"], "count"),
        "sim.heap_pushes": (c["sim.heap_pushes"], "count"),
        "sim.queue_depth_mean": (ratio(c["sim.depth_sum"], c["sim.steps"]), "events"),
        "sim.pool_reuse_rate": (ratio(
            c["sim.pool_reuses"], c["sim.pool_reuses"] + c["sim.pool_allocs"]),
            "ratio"),
        "net.events_per_hop": (ratio(c["sim.steps"], c["net.transmissions"]),
                               "events/hop"),
        "net.drops": (c["net.drops"], "count"),
        "xia.dag_builds": (c["xia.dag_builds"], "count"),
        "xia.fwd_cache_hit_rate": (ratio(
            c["xia.fwd_hits"], c["xia.fwd_hits"] + c["xia.fwd_misses"]), "ratio"),
        "xia.packet_pool_reuse_rate": (ratio(
            c["xia.packet_reuses"], c["xia.packet_reuses"] + c["xia.packet_allocs"]),
            "ratio"),
        "transport.rto_watchers": (c["transport.rto_watchers"], "count"),
        "transport.retransmissions": (c["transport.retransmissions"], "count"),
        "transport.timeouts": (c["transport.timeouts"], "count"),
        "xcache.hit_ratio": (ratio(
            c["xcache.hits"], c["xcache.hits"] + c["xcache.misses"]), "ratio"),
        "xcache.insertions": (c["xcache.insertions"], "count"),
        "core.staging_signals": (
            sum(d.staging_signals for d in traced.downloads), "count"),
        "core.staged_used_ratio": (ratio(edge, c["core.chunks_staged"]), "ratio"),
        "mobility.coverage_lookups": (c["mobility.coverage_lookups"], "count"),
        "obs.bus_events": (c["obs.bus_events"], "count"),
        "obs.trace_mb": (traced.obs.get("trace_mb", 0.0), "MB"),
        "obs.wide_records": (traced.obs.get("wide_records", 0), "count"),
        "obs.offline_s": (traced.obs.get("offline_s", 0.0), "s"),
        "experiments.build_s": (entry_s.get("TestbedScenario.__init__", 0.0), "s"),
        "experiments.parallel_efficiency": (efficiency, "ratio"),
        "experiments.straggler_s": (straggler, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead": (ratio(traced.wall_s, reference.wall_s), "ratio"),
        "fidelity.paper_gain_err": (gain_err, "ratio"),
    })
    return out


def run_traced(layers, wl, workload, seed, clock):
    """One untraced round, then the first seed's unit traced."""
    first, _ = run_untraced(wl, workload, seed, 0.0, clock)
    tracer = layers.Tracer().install()
    if workload.jobs:
        layers.install_in_workers(tracer, OUT_DIR)
    try:
        traced = tracer.window(wl.run_unit, workload, first[0].seed, clock, OUT_DIR)
    finally:
        if workload.jobs:
            layers.uninstall_in_workers()
        tracer.uninstall()
    tracer.dump(os.path.join(OUT_DIR, f"spans-{workload.name}.npz"))
    mismatch = _repeat_failures(first[0], traced)
    traced.failures.extend(f"traced run: {m}" for m in mismatch)
    return first, traced, tracer


def _benchmark_names(key: str) -> list[str] | None:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--file-mb", type=float, default=16.0,
                        help="download size; smaller only for quick checks")
    args = parser.parse_args(argv)
    try:
        layers, wl = _load_repro()
    except (BenchmarkError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workloads = wl.make_workloads(int(args.file_mb * 1_000_000))
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have: {', '.join(workloads)})", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    clock = wl.RunClock().install()
    try:
        if args.trace:
            first, traced, tracer = run_traced(layers, wl, workload, args.seed, clock)
            units = first + [traced]
        else:
            setup_s = wl.measure_setup(workload, workload.seeds(args.seed)[0], ROOT)
            first, units = run_untraced(wl, workload, args.seed, args.seconds, clock)
    finally:
        clock.uninstall()
    downloads = [d for unit in first for d in unit.downloads]
    gain_err = wl.paper_gain_err(workload, downloads)
    attempted = sum(u.attempted for u in units)
    failures = [f for u in units for f in u.failures]
    failed = min(len(failures), attempted)
    lines, digest = _digest(downloads)

    print(f"workload {workload.name}  seed {args.seed}  simulation seeds "
          f"{workload.seeds(args.seed)}  trace {args.trace}")
    for line in lines:
        print(f"  outcome {line}")
    print(f"  digest {digest}")
    print(f"  paper_gain_err {gain_err!r} (sim)")
    for failure in failures:
        print(f"  FAILED {failure}")
    print(f"  downloads attempted {attempted}  failed {failed}")
    if args.trace:
        metrics = per_layer(layers, workload, tracer, traced, first[0], gain_err)
        expected = _benchmark_names("per_layer")
        print(f"  tracing overhead {metrics['trace.overhead'][0]:.3f}x "
              f"(traced wall / untraced wall, simulation seed {traced.seed})")
        for name in layers.LAYERS:
            print(f"  {name:>12}  self {metrics[name + '.self_s'][0]:9.4f} s  "
                  f"share {metrics[name + '.share'][0]:7.2%}  "
                  f"calls {metrics[name + '.calls'][0]}")
    else:
        values = {
            "wall_s": statistics.median(u.wall_s for u in units),
            "setup_s": setup_s,
            "peak_rss_mb": wl.peak_rss_mb(bool(workload.jobs)),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        expected = _benchmark_names("end_to_end")
        print("  unit walls (s): " + "  ".join(
            f"seed {u.seed}: {u.wall_s:.3f}" for u in units))
    for name, (value, unit) in metrics.items():
        print(f"  metric {name} = {value!r} {unit}")
    if expected is not None and sorted(expected) != sorted(metrics):
        print("perfbench: metric names differ from BENCHMARK.json", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
