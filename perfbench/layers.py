"""Layer map and the span tracer behind the benchmark's per-layer numbers.

Every module of the ``repro`` package belongs to exactly one layer
(:data:`PACKAGE_LAYER`, :data:`MODULE_LAYER`).  :class:`Tracer` records
spans from outside the program, through public hooks only:

- each kernel dispatch is one root span, opened by a
  ``Simulator.add_step_hook`` hook and closed by a
  :class:`~repro.sim.profiler.SimProfiler` subclass, and named for the
  layer that owns the dispatched callback (the bound method's class
  module, or a process generator's module);
- the public entry points in :data:`ENTRY_POINTS` are wrapped so each
  call is a span of the layer that defines it, nested under whatever
  span is open.

A layer's self time is its spans' duration minus the part their
children cover; ``sim`` also gets the traced window time that no root
span covers (heap operations and the loop itself), so the layers'
self times add up to the traced window.  Spans stay in memory and are
written out by :meth:`Tracer.dump` when a run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

#: The layers, in report order.
LAYERS = (
    "sim", "net", "xia", "transport", "xcache", "core", "mobility",
    "obs", "experiments", "apps", "util",
)
LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}

#: ``repro.<package>`` -> layer.
PACKAGE_LAYER = {
    "sim": "sim",
    "net": "net",
    "xia": "xia",
    "transport": "transport",
    "xcache": "xcache",
    "core": "core",
    "mobility": "mobility",
    "obs": "obs",
    "metrics": "obs",
    "experiments": "experiments",
    "apps": "apps",
    "baselines": "apps",
    "util": "util",
}

#: Modules directly under ``repro`` that are not packages.
MODULE_LAYER = {
    "repro": "util",
    "repro.errors": "util",
    "repro.version": "util",
    "repro.perf": "experiments",
    "repro.__main__": "experiments",
}

#: ``(module, class, method)`` entry points that get a child span (class
#: ``None``: a module-level function).  Every concrete staging policy's
#: ``decide`` is added at install time.
ENTRY_POINTS = (
    ("repro.net.nodes", "Device", "receive"),
    ("repro.net.link", "Port", "send"),
    ("repro.xia.router", "XIARouter", "handle_packet"),
    ("repro.transport.reliable", "SenderSession", "on_packet"),
    ("repro.transport.reliable", "ReceiverSession", "on_packet"),
    ("repro.transport.chunkfetch", "ChunkFetcher", "fetch"),
    ("repro.transport.chunkfetch", "CacheDaemon", "handle_request"),
    ("repro.xcache.store", "ContentStore", "get"),
    ("repro.xcache.store", "ContentStore", "put"),
    ("repro.core.coordinator", "StagingCoordinator", "observe"),
    ("repro.mobility.coverage", "Coverage", "visible_at"),
    ("repro.obs.bus", "EventBus", "publish"),
    ("repro.experiments.scenario", "TestbedScenario", "__init__"),
    ("repro.experiments.parallel", None, "run_tasks"),
)

#: Classes whose instances are kept for their counters after a run.
TRACKED = (
    ("repro.net.link", "LinkStats"),
    ("repro.transport.reliable", "SenderSession"),
    ("repro.xcache.store", "ContentStore"),
    ("repro.core.vnf", "StagingVNF"),
)

#: Classes whose constructions are only counted.
COUNTED = (("repro.xia.dag", "DagAddress"),)


class UnmappedModuleError(LookupError):
    """A dispatched callback or entry point lives outside the layer map."""


def layer_of(module: str) -> str:
    """The layer owning ``module``; raises for anything unmapped."""
    layer = MODULE_LAYER.get(module)
    if layer is not None:
        return layer
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in PACKAGE_LAYER:
        return PACKAGE_LAYER[parts[1]]
    raise UnmappedModuleError(f"module {module!r} maps to no layer")


def _code_module(code) -> str:
    """The module that defines ``code`` (looked up by file name)."""
    filename = code.co_filename
    for name, module in list(sys.modules.items()):
        if getattr(module, "__file__", None) == filename:
            return name
    raise UnmappedModuleError(f"no loaded module defines {filename!r}")


class Tracer:
    """Spans, per-layer self time and per-layer counters for one process."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []
        self._owner_cache: dict = {}
        # The wrappers close over these three; reset() clears them in place.
        self._stack: list[list] = []
        self.entry_calls: dict[str, int] = {}
        self.entry_s: dict[str, float] = {}
        self.reset()

    # -- state -------------------------------------------------------------

    def reset(self) -> None:
        """Forget every span, count and tracked object (keeps the patches)."""
        n = len(LAYERS)
        self.self_s = [0.0] * n
        self.calls = [0] * n
        self._stack.clear()
        self.entry_calls.clear()
        self.entry_s.clear()
        self.process_starts: dict[str, int] = {}
        self.instances: dict[str, list] = {name: [] for _, name in TRACKED}
        self.constructed: dict[str, int] = {name: 0 for _, name in COUNTED}
        packets = sys.modules.get("repro.xia.packet")
        self._packets_at_reset = (
            (packets.pool_reuses, packets.pool_allocs) if packets else (0, 0)
        )
        self.sims: list = []
        self.window_s = 0.0
        self.root_s = 0.0
        self.span_layer = array("b")
        self.span_depth = array("H")
        self.span_start = array("d")
        self.span_end = array("d")

    def _close(self, frame: list, end: float) -> None:
        layer, start, child = frame
        duration = end - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        stack = self._stack
        if stack:
            stack[-1][2] += duration
        else:
            self.root_s += duration
        self.span_layer.append(layer)
        self.span_depth.append(len(stack))
        self.span_start.append(start)
        self.span_end.append(end)

    def window(self, func, *args, **kwargs):
        """Run ``func`` as a traced window; ``sim`` gets the uncovered time."""
        roots_before = self.root_s
        started = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            self.window_s += elapsed
            covered = self.root_s - roots_before
            self.self_s[LAYER_INDEX["sim"]] += elapsed - covered

    # -- kernel hooks ------------------------------------------------------

    def _owner_layer(self, event) -> int:
        callbacks = event.callbacks
        if not callbacks:
            return LAYER_INDEX["sim"]
        callback = callbacks[0]
        owner = getattr(callback, "__self__", None)
        if owner is None:
            # A plain function (or functools.partial): its module.
            key = getattr(getattr(callback, "func", callback), "__module__", None)
        elif isinstance(owner, self._process_cls):
            key = owner._generator.gi_code
            if event.name == "process-init":
                name = key.co_name
                self.process_starts[name] = self.process_starts.get(name, 0) + 1
        else:
            key = type(owner)
        layer = self._owner_cache.get(key)
        if layer is None:
            if isinstance(key, str):
                module = key
            elif hasattr(key, "co_filename"):
                module = _code_module(key)
            else:
                module = key.__module__
            layer = self._owner_cache[key] = LAYER_INDEX[layer_of(module)]
        return layer

    def _on_step(self, when, event) -> None:
        # The clock starts before the owner lookup, so the hook's cost
        # lands on the dispatch's layer, not on the kernel's self time.
        started = perf_counter()
        self._stack.append([self._owner_layer(event), started, 0.0])

    def _end_step(self) -> None:
        self._close(self._stack.pop(), perf_counter())

    def _close_dangling(self, depth: int) -> None:
        """Close dispatch spans a raised StopSimulation left open."""
        end = perf_counter()
        while len(self._stack) > depth:
            self._close(self._stack.pop(), end)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, func, layer: int, name: str):
        stack = self._stack
        entry_calls = self.entry_calls
        entry_s = self.entry_s
        close = self._close

        @functools.wraps(func)
        def traced(*args, **kwargs):
            entry_calls[name] = entry_calls.get(name, 0) + 1
            frame = [layer, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                # Unwind to this frame: an exception may have left
                # inner frames open.
                while stack[-1] is not frame:
                    close(stack.pop(), perf_counter())
                end = perf_counter()
                close(stack.pop(), end)
                entry_s[name] = entry_s.get(name, 0.0) + end - frame[1]

        return traced

    def _tracking_init(self, cls, original, keep: bool):
        name = cls.__name__
        tracer = self

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            if keep:
                tracer.instances[name].append(obj)
            else:
                tracer.constructed[name] += 1

        return init

    def entry_points(self) -> list[tuple[object, str]]:
        """Every wrapped ``(class or module, name)``, policies included."""
        importlib.import_module("repro.baselines.predictive")
        from repro.core.policy import StagingPolicy

        found = []
        for module_name, cls_name, method in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            found.append((getattr(module, cls_name) if cls_name else module, method))
        pending = list(StagingPolicy.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "decide" in cls.__dict__ and not inspect.isabstract(cls):
                found.append((cls, "decide"))
        return found

    def install(self) -> "Tracer":
        """Patch the entry points, the trackers and the kernel hooks."""
        from repro.sim.core import Simulator
        from repro.sim.process import Process
        from repro.sim.profiler import SimProfiler

        self._process_cls = Process
        tracer = self

        class _DispatchProfiler(SimProfiler):
            """Closes each dispatch span right after its callbacks."""

            def record_step(self, event, elapsed, depth):
                tracer._end_step()
                # Only the counts the benchmark reads: the per-handler
                # table would charge its cost to the sim layer.
                self.steps += 1
                self._depth_sum += depth

        for owner, method in self.entry_points():
            module = getattr(owner, "__module__", None) or owner.__name__
            layer = LAYER_INDEX[layer_of(module)]
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{method}"
            self._patch(owner, method, self._span_wrapper(
                owner.__dict__[method], layer, name
            ))
        for keep, classes in ((True, TRACKED), (False, COUNTED)):
            for module, cls_name in classes:
                cls = getattr(importlib.import_module(module), cls_name)
                self._patch(cls, "__init__", self._tracking_init(
                    cls, cls.__dict__["__init__"], keep
                ))

        sim_init = Simulator.__dict__["__init__"]
        sim_run = Simulator.__dict__["run"]

        def init(sim, *args, **kwargs):
            sim_init(sim, *args, **kwargs)
            sim.add_step_hook(tracer._on_step)
            profiler = _DispatchProfiler(sim).install()
            tracer.sims.append((sim, profiler))

        def run(sim, *args, **kwargs):
            depth = len(tracer._stack)
            try:
                return sim_run(sim, *args, **kwargs)
            finally:
                tracer._close_dangling(depth)

        self._patch(Simulator, "__init__", functools.wraps(sim_init)(init))
        self._patch(Simulator, "run", functools.wraps(sim_run)(run))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """Per-layer work counts read off the tracked objects and kernels."""
        from repro.xia import packet as packet_mod

        inst = self.instances
        sims = self.sims
        steps = sum(p.steps for _, p in sims)
        hits = sum(s.fwd_cache_hits for s, _ in sims)
        misses = sum(s.fwd_cache_misses for s, _ in sims)
        links = inst["LinkStats"]
        stores = inst["ContentStore"]
        return {
            "sim.steps": steps,
            "sim.heap_pushes": sum(s.heap_pushes for s, _ in sims),
            "sim.depth_sum": sum(p._depth_sum for _, p in sims),
            "sim.pool_reuses": sum(s.pool_reuses for s, _ in sims),
            "sim.pool_allocs": sum(s.pool_allocs for s, _ in sims),
            "net.transmissions": sum(s.sent_packets for s in links),
            "net.drops": sum(
                s.dropped_loss + s.dropped_queue + s.dropped_down for s in links
            ),
            "xia.dag_builds": self.constructed["DagAddress"],
            "xia.fwd_hits": hits,
            "xia.fwd_misses": misses,
            "xia.packet_reuses": packet_mod.pool_reuses - self._packets_at_reset[0],
            "xia.packet_allocs": packet_mod.pool_allocs - self._packets_at_reset[1],
            "transport.rto_watchers": self.process_starts.get("_rto_watch", 0),
            "transport.retransmissions": sum(
                s.retransmissions for s in inst["SenderSession"]
            ),
            "transport.timeouts": sum(s.timeouts for s in inst["SenderSession"]),
            "xcache.hits": sum(s.hits for s in stores),
            "xcache.misses": sum(s.misses for s in stores),
            "xcache.insertions": sum(s.insertions for s in stores),
            "core.chunks_staged": sum(v.chunks_staged for v in inst["StagingVNF"]),
            "mobility.coverage_lookups": self.entry_calls.get(
                "Coverage.visible_at", 0
            ),
            "obs.bus_events": self.entry_calls.get("EventBus.publish", 0),
        }

    def summary(self) -> dict:
        """Picklable per-layer totals (what a pool worker sends back)."""
        return {
            "self_s": list(self.self_s),
            "calls": list(self.calls),
            "window_s": self.window_s,
            "entry_s": dict(self.entry_s),
            "counters": self.counters(),
        }

    def dump(self, path: str) -> None:
        """Write the recorded spans (layer, depth, start, end) as ``.npz``."""
        import numpy as np

        np.savez(
            path,
            layers=np.array(LAYERS),
            layer=np.frombuffer(self.span_layer, dtype=np.int8),
            depth=np.frombuffer(self.span_depth, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


#: Pool-worker context, set before the pool forks (workers cannot be
#: handed a tracer through pickling: it holds code objects).
_worker: dict = {}


def install_in_workers(tracer: Tracer, out_dir: str) -> None:
    """Make ``run_tasks`` workers trace each task and send the totals back.

    Swaps :func:`repro.experiments.parallel.execute_task` for
    :func:`traced_execute_task`; undo with :func:`uninstall_in_workers`.
    """
    from repro.experiments import parallel

    _worker.update(tracer=tracer, out_dir=out_dir, execute=parallel.execute_task)
    parallel.execute_task = traced_execute_task


def uninstall_in_workers() -> None:
    from repro.experiments import parallel

    parallel.execute_task = _worker.pop("execute")
    _worker.clear()


def traced_execute_task(task):
    """Run one sweep task traced; returns ``(summary, tracer totals)``."""
    import os
    import zlib

    tracer = _worker["tracer"]
    tracer.reset()
    started = perf_counter()
    summary = tracer.window(_worker["execute"], task)
    ended = perf_counter()
    point = zlib.crc32(repr(task.params).encode())
    tracer.dump(os.path.join(
        _worker["out_dir"], f"spans-sweep-{task.system}-{point:08x}.npz"
    ))
    payload = dict(tracer.summary(), pid=os.getpid(), start=started, end=ended)
    tracer.reset()
    return summary, payload
