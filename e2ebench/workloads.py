"""The three workloads: ``sweep-cold``, ``scripts-cold`` and
``serve-zipf``.

Each workload function takes a :class:`Run` (seed, seconds, working
directory, source root) and an optional :class:`~tracing.Tracer`, and
returns a :class:`Report`.  Without a tracer it measures the end-to-end
metrics; with one it installs the tracer around its timed phase and
reports the per-layer metrics instead, plus ``Report.basis``: the value
of its :data:`OVERHEAD_BASIS` metric, which ``run.py`` compares with an
untraced run of the same seed to report the tracing overhead.
"""

import json
import os
import random
import threading
import time

import inputs
import tracing
from hostspeed import CALIBRATION_REF_S, HostSpeed
from measure import median, peak_rss_mb, percentile, reap_children, tail
from measure import timed_setup

#: A cell, script or served request slower than this misses its
#: latency limit (it still counts as attempted; it is not "good").
LATENCY_LIMIT_S = {"sweep-cold": 30.0, "scripts-cold": 10.0,
                   "serve-zipf": 1.0}

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "goodput_qps": "1/s",
    "success_rate": "fraction",
}

#: Per-layer metrics and their units (``--trace 1``).  ``s/req`` is
#: seconds per operation (a sweep cell, a script or a served request).
PER_LAYER = {
    "engines.compile_s": "s/req", "engines.prepare_s": "s/req",
    "engines.assemble_s": "s/req", "engines.assemblies": "count",
    "analysis.quicken_s": "s/req", "analysis.sites_quickened": "count",
    "sim.blocks_compiled": "count", "sim.traces_installed": "count",
    "sim.codegen_est_s": "s/req",
    "uarch.execute_s": "s/req", "uarch.instructions": "count",
    "uarch.host_mips": "MIPS", "uarch.reference_share": "fraction",
    "bench.cache.load_s": "s/req", "bench.cache.store_s": "s/req",
    "bench.cache.hits": "count", "bench.cache.misses": "count",
    "bench.cache.stores": "count", "bench.cache.quarantined": "count",
    "bench.parallel.cell_p50_s": "s", "bench.parallel.cell_max_s": "s",
    "bench.parallel.utilization": "fraction",
    "serve.hit_ms_p50": "ms", "serve.miss_ms_p50": "ms",
    "serve.hop_ms_p50": "ms",
    "serve.router.forwarded": "count", "serve.router.cache_hits": "count",
    "serve.router.failovers": "count", "serve.shard.executed": "count",
    "serve.shard.coalesced": "count", "serve.shard.busy_rejected": "count",
    "serve.cache_hit_share": "fraction",
    "serve.coalesced_share": "fraction",
    "loadgen.late_ms_p99": "ms",
    "self.engines_s": "s/req", "self.analysis_s": "s/req",
    "self.sim_s": "s/req", "self.uarch_s": "s/req",
    "self.bench.cache_s": "s/req", "self.bench.parallel_s": "s/req",
    "self.serve_s": "s/req", "self.residual_s": "s/req",
    "trace.request_s": "s/req", "trace.requests": "count",
    "trace.overhead": "fraction",
    "input.distinct_source_share": "fraction",
    "input.elided_share": "fraction",
    "proc.peak_rss_mb": "MB",
}

#: Seconds one one-benchmark cold sweep and one round of 22 scripts
#: take on the reference host; they size a run's fixed work from
#: --seconds.
SWEEP_SECONDS = 6.0
ROUND_SECONDS = 12.0

#: The end-to-end metric a traced run is compared on for
#: ``trace.overhead``.
OVERHEAD_BASIS = {"sweep-cold": "wall_s", "scripts-cold": "wall_s",
                  "serve-zipf": "latency_p50_ms"}

#: Span layers whose self time is reported as ``self.<layer>_s``; the
#: root spans the benchmark opens itself (``request``, ``cell``) are
#: the unattributed residual.
LAYERS = ("engines", "analysis", "uarch", "bench.cache", "bench.parallel",
          "serve")
ROOT_LAYERS = ("request", "cell")


class Run:
    """One invocation: the seed, the measured seconds, the working
    directory and the ``src`` directory of the checkout."""

    def __init__(self, seed, seconds, work, src):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.src = src

    def workdir(self, name):
        path = os.path.join(self.work, name)
        os.makedirs(path, exist_ok=True)
        return path


class Report:
    """What a workload measured: operations attempted and failed (a
    failure is an error, a refusal or a wrong output), the metrics,
    human-readable notes and the spans of a traced run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.metrics = {}
        self.notes = []
        self.spans = []
        self.basis = None

    def check(self, reason):
        """Count one operation; ``reason`` is ``None`` when it was
        right.  Returns whether it was."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures.append(reason)
        return reason is None

    def timed(self, tracer, body):
        """Run the timed phase ``body()``, with ``tracer`` installed
        when there is one."""
        if tracer is None:
            return body()
        tracing.install(tracer)
        try:
            return body()
        finally:
            tracing.uninstall(tracer)

    def memory(self):
        """Peak RSS; call once the phase's children are reaped and
        before the output checks start node or re-execute requests in
        this process."""
        self.metrics["proc.peak_rss_mb"] = peak_rss_mb()

    def end_to_end(self, workload, setup_s, wall_s, latencies, good,
                   window_s, speed=None):
        if speed is not None:
            self.notes.append(
                "host speed: %d calibration samples, %.2f-%.2f ms "
                "(reference %.2f ms, run factor %.4f); times are "
                "calibrated to the reference host"
                % (len(speed.samples), 1000 * min(speed.samples),
                   1000 * max(speed.samples), 1000 * CALIBRATION_REF_S,
                   speed.factor()))
        value, pct, count = tail(latencies)
        self.notes.append("latency_tail_ms is p%.1f of %d samples"
                          % (pct, count))
        self.metrics.update({
            "setup_s": setup_s,
            "wall_s": wall_s,
            "latency_p50_ms": median(latencies) * 1000.0,
            "latency_tail_ms": value * 1000.0,
            "goodput_qps": good / window_s if window_s else 0.0,
            "success_rate": 1.0 - self.failed / max(1, self.attempted),
        })
        self.notes.append("latency limit %.0f ms; %d of %d operations "
                          "failed" % (LATENCY_LIMIT_S[workload] * 1000,
                                      self.failed, self.attempted))


def _units(seconds, unit_seconds, most):
    """How many fixed units of work fill about ``seconds`` (1..most).
    The work of a run is fixed by its seconds, not paced by a clock, so
    a faster program finishes sooner on the same inputs."""
    return max(1, min(most, int(round(seconds / unit_seconds))))


def _span_layer_metrics(spans, operations, codegen_s=0.0):
    """Per-layer metrics that come from spans, per operation."""
    n = max(1, operations)
    duration = {}
    counts = {}
    for span in spans:
        seconds = span["end"] - span["start"]
        duration[span["name"]] = duration.get(span["name"], 0.0) + seconds
        for key, value in span["attrs"].items():
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                name = "%s.%s" % (span["name"], key)
                counts[name] = counts.get(name, 0) + value
    instructions = counts.get("uarch.run.instructions", 0)
    reference = sum(span["attrs"].get("instructions", 0) for span in spans
                    if span["name"] == "uarch.run"
                    and span["attrs"].get("reference"))
    run_s = duration.get("uarch.run", 0.0)
    own = tracing.layer_self_seconds(spans)
    metrics = {
        "engines.compile_s": duration.get("engines.compile", 0.0) / n,
        "engines.prepare_s": duration.get("engines.prepare", 0.0) / n,
        "engines.assemble_s": duration.get("engines.assemble", 0.0) / n,
        "engines.assemblies": counts.get("engines.assemble.assemblies", 0),
        "analysis.quicken_s": duration.get("analysis.quicken", 0.0) / n,
        "analysis.sites_quickened": counts.get("analysis.quicken.sites", 0),
        "sim.blocks_compiled": counts.get("uarch.run.blocks_compiled", 0),
        "sim.traces_installed": counts.get("uarch.run.traces_installed",
                                           0),
        "sim.codegen_est_s": codegen_s / n,
        "uarch.execute_s": (run_s - codegen_s) / n,
        "uarch.instructions": instructions,
        "uarch.host_mips": instructions / run_s / 1e6 if run_s else 0.0,
        "uarch.reference_share": reference / instructions
        if instructions else 0.0,
        "bench.cache.load_s": duration.get("bench.cache.load", 0.0) / n,
        "bench.cache.store_s": duration.get("bench.cache.store", 0.0) / n,
        "bench.cache.hits": counts.get("bench.cache.load.hits", 0),
        "bench.cache.misses": counts.get("bench.cache.load.misses", 0),
        "bench.cache.stores": counts.get("bench.cache.store.stores", 0),
        "bench.cache.quarantined":
            counts.get("bench.cache.load.quarantined", 0),
        "self.sim_s": codegen_s / n,
        "self.residual_s": sum(own.get(layer, 0.0)
                               for layer in ROOT_LAYERS) / n,
        "trace.requests": operations,
    }
    for layer in LAYERS:
        metrics["self.%s_s" % layer] = own.get(layer, 0.0) / n
    metrics["self.uarch_s"] -= codegen_s / n
    return metrics


def _accounting(report, spans, roots, label):
    """Note how the layer self times add up to the root spans' time."""
    own = tracing.layer_self_seconds(spans)
    total = sum(span["end"] - span["start"] for span in spans
                if span["parent"] is None)
    parts = ", ".join("%s %.3f" % (layer, seconds)
                      for layer, seconds in sorted(own.items()))
    residual = sum(own.get(layer, 0.0) for layer in roots)
    report.notes.append(
        "%s: %.3f s of root spans = self times {%s} (residual %.3f s, "
        "%.1f%%)" % (label, total, parts, residual,
                     100.0 * residual / total if total else 0.0))


# -- sweep-cold --------------------------------------------------------------

_SWEEP_IMPORTS = ("import repro.api, repro.bench.gate, repro.bench.parallel,"
                  " repro.bench.runner, repro.uarch.pipeline")


def sweep_cold(run, tracer=None):
    """Cold ``op="sweep"`` requests, each one benchmark x both guests x
    the four pinned configs, with attribution (the ``repro sweep``
    path), ``jobs`` = CPU count, an empty result cache per sweep and
    the pool start inside the timed phase.  The pool workers sample the
    host speed on either side of each cell: a cell's seconds are
    calibrated by its own two samples, a sweep's wall time by all of
    the sweep's samples."""
    report = Report()
    speed = HostSpeed()
    setup_s = timed_setup(run.src, _SWEEP_IMPORTS) if tracer is None \
        else None
    from repro import api
    from repro.bench import cache, runner

    jobs = os.cpu_count() or 1
    sweeps, walls, cells, seconds = [], [], [], []

    def one(index, benchmarks):
        root = run.workdir("sweep-%d" % index)
        request = api.ExecutionRequest(
            op="sweep", engines=inputs.ENGINES, benchmarks=benchmarks,
            configs=inputs.PINNED_CONFIGS, jobs=jobs)
        progress = []
        runner.clear_cache()
        sampled = len(speed.samples)
        with cache.temporary(root), speed.cells():
            started = time.perf_counter()
            try:
                if tracer is None:
                    result = api.execute(request, progress=progress.append)
                else:
                    tracer.default_request = "sweep-%d" % index
                    with tracer.request(tracer.default_request,
                                        "sweep.request"):
                        result = api.execute(request,
                                             progress=progress.append)
            except Exception as err:  # noqa: BLE001 — a failed operation
                result = api.ExecutionResult(
                    op="sweep", ok=False,
                    error={"type": type(err).__name__,
                           "message": str(err)})
            wall = time.perf_counter() - started
        reap_children()
        # A sweep that failed before any cell ran has no samples.
        samples = speed.samples[sampled:] or [speed.sample()]
        walls.append(wall * speed.factor(samples))
        cells.extend(progress)
        seconds.extend(cell.seconds for cell in progress)
        sweeps.append((root, benchmarks, result, progress))

    def phase():
        draw = inputs.sweep_draw(run.seed, _units(
            run.seconds, SWEEP_SECONDS, len(inputs.SWEEP_BENCHMARKS)))
        for index, benchmarks in enumerate(draw):
            one(index, benchmarks)

    report.timed(tracer, phase)
    report.memory()
    good = _check_sweeps(report, sweeps, seconds)
    report.notes.append("sweeps (calibrated): %s" % ", ".join(
        "%s %.3f s" % ("+".join(benchmarks), wall)
        for (_root, benchmarks, _r, _p), wall in zip(sweeps, walls)))
    if tracer is None:
        report.end_to_end("sweep-cold", setup_s, sum(walls), seconds,
                          good, sum(walls), speed)
        return report

    spans = report.spans = tracer.spans
    report.basis = sum(walls)
    report.metrics.update(_span_layer_metrics(spans, len(cells)))
    report.metrics.update({
        "bench.parallel.cell_p50_s": median(seconds),
        "bench.parallel.cell_max_s": max(seconds),
        "bench.parallel.utilization": sum(seconds) / (sum(walls) * jobs),
        "trace.request_s": sum(walls) / len(cells),
        "input.distinct_source_share":
            len({cell.key for cell in cells}) / len(cells),
        "input.elided_share": sum(1 for cell in cells
                                  if cell.key[2] == "elided") / len(cells),
    })
    _accounting(report, [span for span in spans
                         if span["pid"] == os.getpid()],
                ("request",), "sweep requests (parent process)")
    _accounting(report, [span for span in spans
                         if span["pid"] != os.getpid()],
                ("cell",), "sweep cells (pool workers, incl. worker init)")
    return report


def _baseline_metrics():
    """``benchmarks/results/baseline.json``: the committed counters of
    every default-scale cell in the gate triple."""
    import repro
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))), "benchmarks", "results",
        "baseline.json")
    with open(path) as handle:
        return json.load(handle)["metrics"]


def _check_sweeps(report, roots, seconds):
    """Every cell of every sweep: the sweep succeeded, its output is
    right (node / cross-guest / cross-config), and gate-triple cells
    retire exactly the committed instructions and cycles.  Returns the
    number of right cells within the latency limit (``seconds``: the
    calibrated cell times, in progress order)."""
    from repro.bench.cache import ResultCache
    from repro.bench.runner import resolve_scale

    baseline = _baseline_metrics()
    oracle = inputs.Oracle({(benchmark, resolve_scale(benchmark))
                            for _root, benchmarks, _result, _p in roots
                            for benchmark in benchmarks})
    limit = LATENCY_LIMIT_S["sweep-cold"]
    good = 0
    calibrated = iter(seconds)
    for root, benchmarks, result, progress in roots:
        by_key = {cell.key: next(calibrated) for cell in progress}
        disk = ResultCache(root)
        for engine in inputs.ENGINES:
            for benchmark in benchmarks:
                scale = resolve_scale(benchmark)
                committed = baseline["%s/%s" % (engine, benchmark)]
                measured = result.cells.get("%s/%s" % (engine, benchmark),
                                            {})
                for config in inputs.PINNED_CONFIGS:
                    record = disk.load(engine, benchmark, config, scale)
                    if not result.ok or record is None:
                        report.check("%s/%s/%s: sweep failed or cell "
                                     "missing (%s)" % (engine, benchmark,
                                                       config,
                                                       result.error))
                        continue
                    reason = oracle.check(engine, benchmark, scale,
                                          record.output)
                    if reason is None and config in inputs.GATE_CONFIGS:
                        for stat in ("instructions", "cycles"):
                            key = "%s/%s" % (stat, config)
                            if measured.get(key) != committed[key] or \
                                    getattr(record.counters, stat) \
                                    != committed[key]:
                                reason = ("%s/%s %s = %s, baseline.json "
                                          "says %s" % (engine, benchmark,
                                                       key,
                                                       measured.get(key),
                                                       committed[key]))
                    if report.check(reason) and by_key.get(
                            (engine, benchmark, config), limit) < limit:
                        good += 1
    return good


# -- scripts-cold ------------------------------------------------------------

_SCRIPT_SETUP = """
import repro.api
from repro.engines.js import vm as js_vm
from repro.engines.lua import vm as lua_vm
for vm in (lua_vm, js_vm):
    for config in %r:
        vm.interpreter_program(config)
""" % (inputs.PINNED_CONFIGS,)


def scripts_cold(run, tracer=None):
    """A closed loop of distinct short scripts through
    ``repro.api.execute(op="run", attribute=False)`` (the
    ``repro run --no-attribution`` path), one client in one process,
    after the warm-worker set-up (imports plus every pinned
    interpreter assembled).  The host speed is sampled between
    scripts; each script's latency is calibrated by the samples on
    either side of it, and ``wall_s`` is the sum of the calibrated
    latencies."""
    report = Report()
    speed = HostSpeed()
    setup_s = timed_setup(run.src, _SCRIPT_SETUP) if tracer is None \
        else None
    exec(compile(_SCRIPT_SETUP, "<setup>", "exec"), {})
    from repro import api

    done, round_walls = [], []

    def one_round(index, cells):
        busy = 0.0
        before = speed.sample()
        for position, cell in enumerate(cells):
            engine, template, scale, config = cell
            request = api.ExecutionRequest(
                op="run", engine=engine, config=config, attribute=False,
                source=inputs.source_of(engine, template, scale))
            rid = "%d.%d" % (index, position)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = api.execute(request)
                else:
                    with tracer.request(rid, "script.request"):
                        result = api.execute(request)
            except Exception as err:  # noqa: BLE001 — a failed operation
                result = api.ExecutionResult(
                    ok=False, exit_code=None,
                    error={"type": type(err).__name__,
                           "message": str(err)})
            latency = time.perf_counter() - t0
            after = speed.sample()
            latency *= speed.factor((before, after))
            before = after
            busy += latency
            if tracer is not None and result.ok:
                # The same request again, warm: its Machine.run minus
                # the cold one estimates block/trace codegen.
                with tracer.request("warm-" + rid, "script.warm"):
                    api.execute(request)
            done.append((cell, result, latency, rid))
        round_walls.append(busy)

    def phase():
        rounds = inputs.script_rounds(run.seed, _units(
            run.seconds, ROUND_SECONDS, inputs.SCRIPT_ROUNDS))
        for index, cells in enumerate(rounds):
            one_round(index, cells)

    report.timed(tracer, phase)
    report.memory()
    good = _check_scripts(report, done)
    if tracer is None:
        report.end_to_end("scripts-cold", setup_s, sum(round_walls),
                          [latency for _c, _r, latency, _i in done], good,
                          sum(round_walls), speed)
        return report

    runs = {}
    for span in tracer.spans:
        if span["name"] == "uarch.run":
            runs[span["request"]] = span["end"] - span["start"]
    codegen = sum(max(0.0, runs[rid] - runs["warm-" + rid])
                  for _cell, _result, _latency, rid in done
                  if "warm-" + rid in runs)
    spans = [span for span in tracer.spans
             if not span["request"].startswith("warm-")]
    report.spans = tracer.spans
    report.basis = sum(round_walls)
    report.metrics.update(_span_layer_metrics(spans, len(done), codegen))
    sources = {(cell[0], cell[1], cell[2]) for cell, _r, _l, _i in done}
    report.metrics.update({
        "trace.request_s": sum(latency for _c, _r, latency, _i in done)
        / len(done),
        "input.distinct_source_share": len(sources) / len(done),
        "input.elided_share": sum(1 for cell, _r, _l, _i in done
                                  if cell[3] == "elided") / len(done),
    })
    _accounting(report, spans, ("request",), "script requests")
    report.notes.append("sim.codegen_est_s: cold minus warm Machine.run, "
                        "%.3f s over %d scripts" % (codegen, len(done)))
    return report


def _check_scripts(report, done):
    """Check every script's output; returns the number of right
    scripts within the latency limit."""
    oracle = inputs.Oracle({(cell[1], cell[2]) for cell, _r, _l, _i in done})
    good = 0
    for cell, result, latency, _rid in done:
        engine, template, scale, _config = cell
        if not result.ok or result.exit_code != 0:
            reason = "%s: failed (%s, exit %s)" % (
                "/".join(map(str, cell)), result.error, result.exit_code)
        else:
            reason = oracle.check(engine, template, scale, result.output)
        if report.check(reason) and \
                latency <= LATENCY_LIMIT_S["scripts-cold"]:
            good += 1
    return good


# -- serve-zipf --------------------------------------------------------------

#: Offered rate (requests per second) and population size.
SERVE_QPS = 10.0
SERVE_KEYS = 48
ZIPF_S = 1.1
#: Served replies re-executed in-process for the identity check.
IDENTITY_SAMPLE = 8
#: Tier start-ups timed for ``setup_s`` (the median is kept).
TIER_STARTS = 3
#: Socket timeout towards the tier, and how long after the last due time
#: requests are still sent: a stalled tier fails the run's remaining
#: requests instead of holding the run past its time limit.
TIER_TIMEOUT_S = 10.0


def _schedule(seed, population, seconds):
    """Due offsets at a fixed rate, keys by zipf popularity."""
    from repro.serve.loadgen import ZipfSampler
    sampler = ZipfSampler(len(population), ZIPF_S)
    rng = random.Random("serve-zipf-schedule/%d" % seed)
    count = max(1, int(SERVE_QPS * seconds))
    return [(index / SERVE_QPS, population[sampler.draw(rng.random())])
            for index in range(count)]


class _Tier:
    """A ``LocalTier(shards=2, jobs=1)`` over an empty cache root that
    this process's router also probes, started and timed until every
    shard is healthy and has its worker pool up."""

    def __init__(self, run, name):
        from repro import api
        from repro.bench import cache, runner
        from repro.serve.loadgen import LocalTier
        self.root = run.workdir(name + "-cache")
        base = os.path.relpath(run.workdir(name + "-tier"))
        # The router runs in this process and probes the shared root
        # through the runner's memory cache: start both empty.
        runner.clear_cache()
        cache.configure(self.root)
        self.tier = LocalTier(
            shards=2, jobs=1, cache_dir=self.root,
            warm_engines=inputs.ENGINES,
            warm_configs=inputs.PINNED_CONFIGS, log_dir=base,
            # Relative: unix socket paths are short whatever the
            # checkout's location.
            socket_path=os.path.join(base, "route.sock"))
        started = time.perf_counter()
        self.tier.start(timeout=3 * TIER_TIMEOUT_S)
        try:
            with self.client() as client:
                while client.status()["healthy"] < 2:
                    if time.perf_counter() - started > TIER_TIMEOUT_S:
                        raise RuntimeError("shards never became healthy")
                    time.sleep(0.005)
            # Shard pools start on their first request; start them here,
            # so set-up carries that cost and the timed phase starts warm.
            warmup = api.ExecutionRequest(op="run", engine="lua",
                                          source="print(1)\n")
            for spec in self.tier.manager.specs:
                with spec.client(timeout=TIER_TIMEOUT_S) as client:
                    client.submit(warmup)
        except BaseException:
            self.tier.shutdown()
            raise
        self.setup_s = time.perf_counter() - started

    def client(self):
        from repro.serve.client import ServeClient
        return ServeClient(socket_path=self.tier.socket_path,
                           timeout=TIER_TIMEOUT_S)

    def counters(self):
        """Router job counters and the shards' summed job counters."""
        with self.client() as client:
            router = dict(client.status()["jobs"])
        shards = {}
        for spec in self.tier.manager.specs:
            with spec.client(timeout=TIER_TIMEOUT_S) as client:
                for key, value in client.status()["jobs"].items():
                    shards[key] = shards.get(key, 0) + value
        return router, shards

    def close(self):
        """Drain the tier; this process keeps probing its cache root
        until the next :class:`_Tier` (or ``cache.disable()``)."""
        self.tier.shutdown()


def _open_loop(tier, schedule, connections, tracer=None):
    """Send ``schedule`` at its due times over ``connections``
    persistent connections; each outcome is timed from its due time."""
    from repro.serve.client import ServeBusy, ServeError
    outcomes = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05
    deadline = start + schedule[-1][0] + TIER_TIMEOUT_S

    def worker():
        client = tier.client()
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                offset, entry = schedule[index]
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                result, error = None, None
                if sent > deadline:
                    error = "failed: not sent, the tier stalled"
                    outcomes[index] = {
                        "entry": entry, "due": due, "sent": sent,
                        "done": sent, "result": None, "error": error}
                    continue
                try:
                    if tracer is None:
                        result = client.submit(entry["payload"])
                    else:
                        with tracer.request("serve-%d" % index,
                                            "serve.request", "serve"):
                            result = client.submit(entry["payload"])
                except ServeBusy as err:
                    error = "refused: %s" % err
                except (ServeError, OSError) as err:
                    error = "failed: %s: %s" % (type(err).__name__, err)
                    client.close()
                outcomes[index] = {
                    "entry": entry, "due": due, "sent": sent,
                    "done": time.perf_counter(), "result": result,
                    "error": error}
        finally:
            client.close()

    threads = [threading.Thread(target=worker, name="e2e-client-%d" % i)
               for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, start


def serve_zipf(run, tracer=None):
    """Open-loop zipf traffic at a fixed rate against
    ``LocalTier(shards=2, jobs=1)`` over at most ``nproc`` connections
    from this one process.  The host speed is sampled around each tier
    start, and before, during and after the open loop: the samples
    calibrate set-up times and latencies; ``wall_s`` and
    ``goodput_qps`` follow the fixed schedule and stay in host
    seconds."""
    from repro.bench import cache

    report = Report()
    speed = HostSpeed()
    connections = os.cpu_count() or 1
    population = inputs.serve_population(run.seed, SERVE_KEYS)
    setups = []

    def start_tier(name):
        before = speed.sample()
        tier = _Tier(run, name)
        setups.append(tier.setup_s * speed.factor((before, speed.sample())))
        return tier

    if tracer is None:
        for attempt in range(TIER_STARTS - 1):
            start_tier("setup-%d" % attempt).close()

    tier = start_tier("timed")
    try:
        router_before, shards_before = tier.counters()
        before = speed.sample()
        with speed.sampling() as during:
            outcomes, start = report.timed(tracer, lambda: _open_loop(
                tier, _schedule(run.seed, population, run.seconds),
                connections, tracer))
        factor = speed.factor([before] + during.samples + [speed.sample()])
        report.notes.append("open-loop latencies calibrated by x%.4f "
                            "(%d samples)" % (factor,
                                              len(during.samples) + 2))
        router_after, shards_after = tier.counters()
    finally:
        tier.close()
    report.memory()
    try:
        _check_serve(report, outcomes)
        hops = _hops(outcomes) if tracer is not None else []
    finally:
        cache.disable()
    latencies = [(item["done"] - item["due"]) * factor for item in outcomes]
    if tracer is None:
        limit = LATENCY_LIMIT_S["serve-zipf"]
        wall = max(item["done"] for item in outcomes) - start
        good = sum(1 for item, latency in zip(outcomes, latencies)
                   if latency <= limit and item["good"])
        report.end_to_end("serve-zipf", median(setups), wall, latencies,
                          good, wall, speed)
        return report

    report.spans = tracer.spans
    report.basis = median(latencies) * 1000.0
    report.metrics.update(_span_layer_metrics(tracer.spans, len(outcomes)))
    served = [item for item in outcomes if item["result"] is not None]
    hit = [item["done"] - item["sent"] for item in served
           if item["result"].cached]
    miss = [item["done"] - item["sent"] for item in served
            if not item["result"].cached]
    # Shard-side execution time of the replies that really executed.
    executed = [item["result"].wall_seconds for item in served
                if not item["result"].cached
                and not item["result"].coalesced]
    report.metrics.update({
        "serve.hit_ms_p50": median(hit) * 1000.0,
        "serve.miss_ms_p50": median(miss) * 1000.0,
        "serve.hop_ms_p50": median(hops) * 1000.0,
        "serve.router.forwarded":
            router_after["forwarded"] - router_before["forwarded"],
        "serve.router.cache_hits": router_after["router_cache_hits"]
        - router_before["router_cache_hits"],
        "serve.router.failovers":
            router_after["failovers"] - router_before["failovers"],
        "serve.shard.executed":
            shards_after["completed"] - shards_before["completed"],
        "serve.shard.coalesced":
            shards_after["deduped"] - shards_before["deduped"],
        "serve.shard.busy_rejected": shards_after["busy_rejected"]
        - shards_before["busy_rejected"],
        "serve.cache_hit_share": len(hit) / len(outcomes),
        "serve.coalesced_share": sum(1 for item in served
                                     if item["result"].coalesced)
        / len(outcomes),
        "loadgen.late_ms_p99": percentile(
            [item["sent"] - item["due"] for item in outcomes], 0.99)
        * 1000.0,
        "uarch.execute_s": sum(executed) / len(outcomes),
        "trace.request_s": sum(item["done"] - item["sent"]
                               for item in outcomes) / len(outcomes),
        "input.distinct_source_share":
            len({item["entry"]["rank"] for item in outcomes})
            / len(outcomes),
        "input.elided_share": sum(1 for item in outcomes
                                  if item["entry"]["cell"][3] == "elided")
        / len(outcomes),
    })
    return report


def _check_serve(report, outcomes):
    """Check every reply; re-execute a sample in-process, uncached, and
    require byte-identical counters and output."""
    from repro import api

    oracle = inputs.Oracle({(item["entry"]["cell"][1],
                             item["entry"]["cell"][2])
                            for item in outcomes})
    first = {}
    for item in outcomes:
        entry, result = item["entry"], item["result"]
        engine, template, scale, _config = entry["cell"]
        if result is None:
            reason = item["error"]
        elif not result.ok:
            reason = "%s: not ok (%s)" % (entry["op"], result.error)
        elif entry["op"] == "sweep":
            reason = None
        else:
            reason = oracle.check(engine, template, scale, result.output)
        item["good"] = report.check(reason)
        if item["good"] and entry["op"] != "sweep":
            first.setdefault(entry["rank"], item)

    for rank in sorted(first)[:IDENTITY_SAMPLE]:
        item = first[rank]
        payload = dict(item["entry"]["payload"], use_cache=False)
        local = api.execute(api.ExecutionRequest.from_dict(payload))
        served = item["result"]
        if json.dumps(local.counters.as_dict(), sort_keys=True) != \
                json.dumps(served.counters.as_dict(), sort_keys=True) \
                or local.output != served.output:
            # The reply was counted right above; it is not.
            item["good"] = False
            report.failed += 1
            report.failures.append("rank %d: served counters differ "
                                   "from in-process execution" % rank)
    report.notes.append("identity: %d served replies re-executed "
                        "in-process" % min(len(first), IDENTITY_SAMPLE))


def _hops(outcomes):
    """Serving overhead of the last reply of each of the most popular
    keys: its latency from send minus an in-process ``api.execute`` of
    the same payload against the same cache root."""
    from repro import api

    last = {}
    for item in outcomes:
        if item["result"] is not None and item["entry"]["op"] != "sweep":
            last[item["entry"]["rank"]] = item
    hops = []
    for rank in sorted(last)[:IDENTITY_SAMPLE]:
        item = last[rank]
        started = time.perf_counter()
        api.execute(api.ExecutionRequest.from_dict(item["entry"]["payload"]))
        hops.append(item["done"] - item["sent"]
                    - (time.perf_counter() - started))
    return hops


WORKLOADS = {
    "sweep-cold": sweep_cold,
    "scripts-cold": scripts_cold,
    "serve-zipf": serve_zipf,
}
