"""In-memory spans around the public calls into each layer.

The benchmark never edits ``src/``: :func:`install` wraps the layer
entry points it drives (module attributes and class methods) and
:func:`uninstall` puts the originals back.  A span records its name,
layer, start, end, parent span, process, thread and the request it
belongs to; :func:`layer_self_seconds` turns a span list into per-layer
self times (span time minus the time its child spans cover).

Wrapped calls and the layer each one is charged to:

==========================================  ==============
``engines.{lua,js}.vm.compile_source``      engines
``engines.{lua,js}.vm.prepare``             engines
``engines.{lua,js}.vm.interpreter_program`` engines
``analysis.quicken_chunk``                  analysis
``uarch.pipeline.Machine.run``              uarch (sim is
                                            estimated apart)
``bench.cache.ResultCache.load/store``      bench.cache
``bench.parallel.run_matrix_parallel``      bench.parallel
``bench.parallel._simulate_cell``           cell (a root)
``bench.parallel._warm_worker``             bench.parallel
==========================================  ==============

Pool workers are forked from the traced process, so they inherit the
wrappers; the cell wrapper ships the worker's spans back to the parent
on the record it returns, and the ``runner.publish`` wrapper collects
them there.
"""

import contextlib
import functools
import itertools
import os
import threading
import time

#: Attribute a worker's spans travel on, from pool worker to parent.
_SHIPPED = "_e2ebench_spans"

_ACTIVE = None  # the installed Tracer (module-level: fork-inherited)


class Tracer:
    """Collects spans in memory; one per traced phase."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Request id for spans opened outside any :meth:`request`
        #: (pool workers inherit it through ``fork``).
        self.default_request = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, layer, **attrs):
        """Record one span; yields its attribute dict so the body can
        add counts measured inside it."""
        stack = self._stack()
        record = {
            "id": "%d-%d" % (os.getpid(), next(self._ids)),
            "parent": stack[-1]["id"] if stack else None,
            "name": name, "layer": layer,
            "request": getattr(self._local, "request", None)
            or self.default_request,
            "pid": os.getpid(), "thread": threading.get_ident(),
            "attrs": attrs, "start": time.perf_counter(), "end": None,
        }
        stack.append(record)
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    @contextlib.contextmanager
    def request(self, request_id, name, layer="request", **attrs):
        """A root span that tags every span opened under it with
        ``request_id``."""
        previous = getattr(self._local, "request", None)
        self._local.request = request_id
        try:
            with self.span(name, layer, **attrs) as span_attrs:
                yield span_attrs
        finally:
            self._local.request = previous

    def take_own(self):
        """Remove and return the spans recorded by this process."""
        pid = os.getpid()
        own = [span for span in self.spans if span["pid"] == pid]
        self.spans = [span for span in self.spans if span["pid"] != pid]
        return own


def _wrap(tracer, fn, name, layer, after=None):
    """``fn`` inside a span; ``after(attrs, result)`` adds counts."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, layer) as attrs:
            result = fn(*args, **kwargs)
            if after is not None:
                after(attrs, result)
            return result
    return wrapper


def traced_simulate_cell(cell):
    """Pool-worker cell body: the original ``_simulate_cell`` inside a
    span, with this worker's spans attached to the returned record.
    Module-level so the pool can pickle it by name."""
    tracer = _ACTIVE
    with tracer.span("bench.parallel.cell", "cell",
                     cell="/".join(map(str, cell))):
        record, seconds = tracer.simulate_cell(cell)
    setattr(record, _SHIPPED, tracer.take_own())
    return record, seconds


def traced_warm_worker(engines, configs):
    """Pool initializer: the original ``_warm_worker`` inside a span
    (shipped with the worker's first cell)."""
    tracer = _ACTIVE
    # Forget what ``fork`` copied from the parent: its spans, and the
    # open parent span on this thread's stack.
    tracer.spans = []
    tracer._local.stack = []
    with tracer.span("bench.parallel.worker_init", "bench.parallel"):
        tracer.warm_worker(engines, configs)


def _machine_run_wrapper(tracer, run):
    from repro.sim.blocks import block_table
    from repro.sim.traces import trace_table

    @functools.wraps(run)
    def wrapper(self, *args, **kwargs):
        program = self.cpu.program
        blocks = block_table(program, self.config)
        traces = trace_table(program, self.config,
                             getattr(self.cpu, "workload", None))
        compiled, installed = blocks.compiled, traces.traces
        # Mirrors the engine choice documented on Machine.run: an
        # attributed run (or use_blocks=False) takes the reference loop.
        reference = self.attribution is not None or not self.use_blocks
        with tracer.span("uarch.run", "uarch",
                         reference=reference) as attrs:
            counters = run(self, *args, **kwargs)
            attrs["instructions"] = counters.instructions
        attrs["blocks_compiled"] = blocks.compiled - compiled
        attrs["traces_installed"] = traces.traces - installed
        return counters
    return wrapper


def _cache_wrapper(tracer, method, name):
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        before = (self.hits, self.misses, self.stores, self.quarantined)
        with tracer.span(name, "bench.cache") as attrs:
            result = method(self, *args, **kwargs)
        after = (self.hits, self.misses, self.stores, self.quarantined)
        for key, old, new in zip(("hits", "misses", "stores",
                                  "quarantined"), before, after):
            attrs[key] = new - old
        return result
    return wrapper


def _publish_wrapper(tracer, publish):
    @functools.wraps(publish)
    def wrapper(record, *args, **kwargs):
        tracer.spans.extend(record.__dict__.pop(_SHIPPED, ()))
        return publish(record, *args, **kwargs)
    return wrapper


def install(tracer):
    """Wrap every layer entry point listed in the module docstring;
    returns ``tracer``.  :func:`uninstall` undoes it."""
    global _ACTIVE
    import importlib

    from repro.bench import cache, parallel, runner
    from repro.engines.js import vm as js_vm
    from repro.engines.lua import vm as lua_vm
    from repro.uarch import pipeline

    analysis = importlib.import_module("repro.analysis")
    tracer.patched = []

    def patch(owner, attr, replacement):
        tracer.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    for vm in (lua_vm, js_vm):
        patch(vm, "compile_source", _wrap(
            tracer, vm.compile_source, "engines.compile", "engines"))
        patch(vm, "prepare", _wrap(
            tracer, vm.prepare, "engines.prepare", "engines"))
        patch(vm, "interpreter_program", _assemble_wrapper(tracer, vm))
    patch(analysis, "quicken_chunk", _wrap(
        tracer, analysis.quicken_chunk, "analysis.quicken", "analysis",
        after=lambda attrs, result: attrs.update(sites=result["sites"])))
    patch(pipeline.Machine, "run",
          _machine_run_wrapper(tracer, pipeline.Machine.run))
    patch(cache.ResultCache, "load", _cache_wrapper(
        tracer, cache.ResultCache.load, "bench.cache.load"))
    patch(cache.ResultCache, "store", _cache_wrapper(
        tracer, cache.ResultCache.store, "bench.cache.store"))
    patch(parallel, "run_matrix_parallel", _wrap(
        tracer, parallel.run_matrix_parallel, "bench.parallel.sweep",
        "bench.parallel"))
    tracer.simulate_cell = parallel._simulate_cell
    tracer.warm_worker = parallel._warm_worker
    patch(parallel, "_simulate_cell", traced_simulate_cell)
    patch(parallel, "_warm_worker", traced_warm_worker)
    patch(runner, "publish", _publish_wrapper(tracer, runner.publish))
    _ACTIVE = tracer
    return tracer


def _assemble_wrapper(tracer, vm):
    original = vm.interpreter_program

    @functools.wraps(original)
    def wrapper(config):
        before = vm.assembly_count
        with tracer.span("engines.assemble", "engines") as attrs:
            result = original(config)
        attrs["assemblies"] = vm.assembly_count - before
        return result
    return wrapper


def uninstall(tracer):
    """Restore every wrapped attribute."""
    global _ACTIVE
    for owner, attr, original in reversed(tracer.patched):
        setattr(owner, attr, original)
    tracer.patched = []
    _ACTIVE = None


def self_times(spans):
    """``{span id: self seconds}`` — a span's duration minus the
    durations of its children (children of one span run one after the
    other on its thread, so their sum is the time they cover)."""
    covered = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) \
                + span["end"] - span["start"]
    return {span["id"]: span["end"] - span["start"]
            - covered.get(span["id"], 0.0) for span in spans}


def layer_self_seconds(spans):
    """``{layer: summed self seconds}`` over ``spans``."""
    own = self_times(spans)
    totals = {}
    for span in spans:
        totals[span["layer"]] = totals.get(span["layer"], 0.0) \
            + own[span["id"]]
    return totals
