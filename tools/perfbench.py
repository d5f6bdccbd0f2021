#!/usr/bin/env python3
"""Simulator-performance benchmark: reference loop vs block engine vs
superblock trace engine.

Runs the figure-5 sweep cells fresh (attribution off, caches bypassed)
three times — per-instruction reference loop, basic-block
superinstruction engine (``use_traces=False``), and the superblock
trace engine — and reports host wall-clock, simulated MIPS and the
per-cell speedups plus overall and per-config geometric means,
verifying along the way that all three engines produced bit-identical
counters and output.  ``--smoke`` additionally runs each cell with
attribution on, on the reference loop and on the block engine, and
requires those two to agree on every counter too (per-bytecode
attribution included); those runs are checked, not timed.

Writes ``BENCH_simperf.json`` (override with ``--out``), stamped with
the package schema version and the ``simperf`` artifact kind
(:mod:`repro.schema`), so the perf trajectory of the simulator itself
is trackable run over run; CI runs ``--smoke`` (a pinned 7-cell
subset — deliberately *not* derived from the live registry, which can
grow) and uploads the JSON as an artifact.

``--compare PRIOR`` diffs the freshly measured aggregate against a
previously written artifact.  Unstamped or version/kind-mismatched
priors are refused outright: a cross-version comparison would blame
schema drift on the simulator.

Usage:
    PYTHONPATH=src python tools/perfbench.py [--smoke] [--out PATH]
        [--configs A,B,..] [--compare PRIOR] [--min-speedup X]
        [--min-trace-speedup X]

Exit status is non-zero when any cell's counters differ between the
engines, when a ``--min-*`` bound fails, or when ``--compare`` is
given an unusable prior artifact.
"""

import argparse
import json
import math
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import schema  # noqa: E402
from repro.bench.runner import ENGINES, run_benchmark  # noqa: E402
from repro.bench.workloads import BENCHMARK_ORDER  # noqa: E402
from repro.engines import CONFIGS  # noqa: E402

#: Artifact family for ``BENCH_simperf.json`` (see repro.schema).
ARTIFACT_KIND = "simperf"

#: The measured execution engines, in measurement order.
ENGINE_MODES = (
    ("legacy", {"use_blocks": False}),
    ("blocks", {"use_blocks": True, "use_traces": False}),
    ("traces", {"use_blocks": True, "use_traces": True}),
)

#: --smoke subset: small scales, both guest engines, a typed and a
#: baseline config each — a pinned, explicit list so CI timing stays
#: put even as the config registry grows (it has doubled once
#: already).  n-body mixes ints and floats: it is the one cell whose
#: attributed runs charge per-bytecode type misses.
SMOKE_CELLS = [
    ("lua", "fibo", "baseline", 8),
    ("lua", "fibo", "typed", 8),
    ("lua", "n-sieve", "typed", 200),
    ("lua", "n-body", "typed", 2),
    ("js", "fibo", "baseline", 8),
    ("js", "fibo", "typed", 8),
    ("js", "n-sieve", "typed", 200),
]


def full_cells(configs=None):
    """The figure-5 sweep: every engine x benchmark x config at the
    default input scales (optionally restricted to ``configs``)."""
    selected = list(configs) if configs else list(CONFIGS)
    return [(engine, benchmark, config, None)
            for engine in ENGINES
            for benchmark in BENCHMARK_ORDER
            for config in selected]


def _ratio(numerator, denominator):
    return round(numerator / denominator, 3) if denominator else 0.0


#: Warm passes per cell for the trace engine: trace formation is
#: profile-driven and adaptive (record, evaluate, retire, re-record),
#: so peak state is reached after a couple of runs, not one.  Warm-up
#: stops early once a run is within :data:`WARM_CONVERGED` of the
#: previous one.
MAX_WARM_RUNS = 3
WARM_CONVERGED = 0.85


def _attributed_identical(engine, benchmark, config, scale):
    """Whether the attributed reference-loop and block-engine runs of
    one cell give identical counters (attribution included) and
    output."""
    reference, blocks = (
        run_benchmark(engine, benchmark, config, scale=scale,
                      use_cache=False, use_blocks=use_blocks)
        for use_blocks in (False, True))
    return (blocks.counters.as_dict() == reference.counters.as_dict()
            and blocks.output == reference.output)


def _measure_cell(engine, benchmark, config, scale, attributed=False):
    """Warm then run one cell under every engine mode.

    The warm passes (JIT-backed engines only — the reference loop
    keeps no cross-run state) pay interpreter assembly and block/trace
    compilation up front, so the measured runs see peak state.  The
    trace engine warms until converged: profile-driven formation
    keeps adapting (retiring unprofitable traces, recording the paths
    hot in later workload phases) for a run or two before its table
    reaches a fixed point.  With ``attributed`` the cell's
    ``identical`` flag also covers the attributed engine pair (see
    :func:`_attributed_identical`).
    """
    runs = {}
    run_benchmark(engine, benchmark, config, scale=scale,
                  use_cache=False, attribute=False,
                  **dict(ENGINE_MODES[1][1]))
    previous = None
    for _warm in range(MAX_WARM_RUNS):
        record = run_benchmark(engine, benchmark, config, scale=scale,
                               use_cache=False, attribute=False,
                               **dict(ENGINE_MODES[2][1]))
        if previous is not None and \
                record.wall_seconds >= WARM_CONVERGED * previous:
            break
        previous = record.wall_seconds
    for name, mode in ENGINE_MODES:
        runs[name] = run_benchmark(engine, benchmark, config, scale=scale,
                                   use_cache=False, attribute=False, **mode)
    reference = runs["legacy"]
    identical = all(
        run.counters.as_dict() == reference.counters.as_dict()
        and run.output == reference.output
        for run in runs.values())
    if attributed:
        identical = identical and _attributed_identical(
            engine, benchmark, config, scale)
    row = {
        "engine": engine,
        "benchmark": benchmark,
        "config": config,
        "scale": reference.scale,
        "instructions": reference.counters.instructions,
        "identical": identical,
    }
    for name, run in runs.items():
        row["seconds_%s" % name] = round(run.wall_seconds, 4)
        row["mips_%s" % name] = round(run.simulated_mips, 3)
    row["speedup_blocks"] = _ratio(reference.wall_seconds,
                                   runs["blocks"].wall_seconds)
    row["speedup_traces"] = _ratio(reference.wall_seconds,
                                   runs["traces"].wall_seconds)
    row["speedup_traces_vs_blocks"] = _ratio(
        runs["blocks"].wall_seconds, runs["traces"].wall_seconds)
    return row


def measure(cells, echo=print, attributed=False):
    results = []
    for index, (engine, benchmark, config, scale) in enumerate(cells):
        row = _measure_cell(engine, benchmark, config, scale, attributed)
        results.append(row)
        echo("[%3d/%d] %-3s %-15s %-12s  %6.2fs -> %6.2fs -> %6.2fs  "
             "blocks %5.2fx traces %5.2fx (vs blocks %5.2fx)  %s"
             % (index + 1, len(cells), engine, benchmark, config,
                row["seconds_legacy"], row["seconds_blocks"],
                row["seconds_traces"], row["speedup_blocks"],
                row["speedup_traces"], row["speedup_traces_vs_blocks"],
                "ok" if row["identical"] else "COUNTER MISMATCH"))
    return results


def _geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def aggregate(results):
    summary = {
        "cells": len(results),
        "identical": all(cell["identical"] for cell in results),
        "total_instructions": sum(c["instructions"] for c in results),
    }
    for metric in ("speedup_blocks", "speedup_traces",
                   "speedup_traces_vs_blocks"):
        summary["geomean_%s" % metric] = round(
            _geomean([c[metric] for c in results]), 3)
    for name, _mode in ENGINE_MODES:
        seconds = sum(c["seconds_%s" % name] for c in results)
        summary["total_seconds_%s" % name] = round(seconds, 2)
        summary["mips_%s" % name] = round(
            summary["total_instructions"] / seconds / 1e6, 3) \
            if seconds else 0.0
    summary["geomean_mips_traces"] = round(
        _geomean([c["mips_traces"] for c in results]), 3)
    # The reference-loop figure anchors the advisory host-throughput
    # floor (repro.bench.gate.check_host_floor): gate sweeps run with
    # attribution, i.e. at reference-loop speed.
    summary["geomean_mips_legacy"] = round(
        _geomean([c["mips_legacy"] for c in results]), 3)
    per_config = {}
    for config in sorted({c["config"] for c in results}):
        rows = [c for c in results if c["config"] == config]
        per_config[config] = {
            "cells": len(rows),
            "geomean_speedup_blocks": round(
                _geomean([c["speedup_blocks"] for c in rows]), 3),
            "geomean_speedup_traces": round(
                _geomean([c["speedup_traces"] for c in rows]), 3),
            "geomean_speedup_traces_vs_blocks": round(
                _geomean([c["speedup_traces_vs_blocks"] for c in rows]),
                3),
        }
    summary["per_config"] = per_config
    return summary


def load_prior(path):
    """Load and validate a prior artifact for --compare.

    Raises :class:`repro.schema.SchemaError` (or ``OSError``/
    ``ValueError`` for unreadable files) when the prior is unstamped
    or from another schema version/artifact family — comparing across
    schema drift would produce garbage deltas, so it is refused, not
    papered over.
    """
    with open(path) as handle:
        payload = json.load(handle)
    return schema.require_artifact(payload, ARTIFACT_KIND)


def compare_with(prior, summary, echo=print):
    """Print aggregate deltas current-vs-prior."""
    base = prior.get("aggregate", {})
    echo("\ncomparison against prior artifact (mode=%s, %s cells):"
         % (prior.get("mode"), base.get("cells")))
    for metric in ("geomean_speedup_blocks", "geomean_speedup_traces",
                   "geomean_speedup_traces_vs_blocks",
                   "geomean_mips_traces", "mips_traces", "mips_blocks",
                   "mips_legacy"):
        old = base.get(metric)
        new = summary.get(metric)
        if old is None or new is None:
            continue
        delta = (new / old - 1.0) * 100.0 if old else float("inf")
        echo("  %-32s %10.3f -> %10.3f  (%+.1f%%)"
             % (metric, old, new, delta))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="reference vs block vs trace simulator benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="pinned 7-cell subset for CI (seconds, "
                             "not minutes), with an attributed "
                             "reference/blocks counter check per cell")
    parser.add_argument("--configs", metavar="A,B,..",
                        help="comma-separated config subset for the "
                             "full sweep (default: every registered "
                             "config)")
    parser.add_argument("--out", metavar="PATH",
                        default="BENCH_simperf.json")
    parser.add_argument("--compare", metavar="PRIOR",
                        help="print aggregate deltas against a prior "
                             "stamped artifact (refused when the prior "
                             "is unstamped or version-mismatched)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail when the blocks-vs-legacy geomean "
                             "is below this (e.g. 1.5)")
    parser.add_argument("--min-trace-speedup", type=float, default=None,
                        help="fail when the traces-vs-blocks geomean "
                             "is below this (e.g. 1.8)")
    args = parser.parse_args(argv)

    if args.configs:
        selected = [c.strip() for c in args.configs.split(",") if c.strip()]
        unknown = [c for c in selected if c not in CONFIGS]
        if unknown:
            parser.error("unknown config(s): %s (registered: %s)"
                         % (", ".join(unknown), ", ".join(CONFIGS)))
    else:
        selected = None

    prior = None
    if args.compare:
        try:
            prior = load_prior(args.compare)
        except (OSError, ValueError, schema.SchemaError) as err:
            print("perfbench: refusing to compare against %s: %s"
                  % (args.compare, err))
            return 2

    cells = SMOKE_CELLS if args.smoke else full_cells(selected)
    print("perfbench: %d cells (%s mode), warm + 3-engine measure per "
          "cell%s..." % (len(cells), "smoke" if args.smoke else "full",
                         " + attributed reference/blocks check"
                         if args.smoke else ""))
    started = time.time()
    results = measure(cells, attributed=args.smoke)
    summary = aggregate(results)

    payload = schema.artifact(ARTIFACT_KIND, {
        "mode": "smoke" if args.smoke else "full",
        "configs": sorted({c["config"] for c in results}),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timestamp": int(started),
        "cells": results,
        "aggregate": summary,
    })
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")

    print("\nwrote %s" % args.out)
    print("geomean speedups: blocks %.2fx, traces %.2fx "
          "(traces vs blocks %.2fx) | %.2f -> %.2f -> %.2f MIPS | "
          "counters %s"
          % (summary["geomean_speedup_blocks"],
             summary["geomean_speedup_traces"],
             summary["geomean_speedup_traces_vs_blocks"],
             summary["mips_legacy"], summary["mips_blocks"],
             summary["mips_traces"],
             "identical" if summary["identical"] else "MISMATCH"))
    for config, stats in summary["per_config"].items():
        print("  %-12s blocks %5.2fx  traces %5.2fx  vs blocks %5.2fx  "
              "(%d cells)"
              % (config, stats["geomean_speedup_blocks"],
                 stats["geomean_speedup_traces"],
                 stats["geomean_speedup_traces_vs_blocks"],
                 stats["cells"]))
    if prior is not None:
        compare_with(prior, summary)

    if not summary["identical"]:
        print("perfbench: FAILED (counter mismatch)")
        return 1
    if args.min_speedup is not None \
            and summary["geomean_speedup_blocks"] < args.min_speedup:
        print("perfbench: FAILED (blocks geomean %.2fx < %.2fx)"
              % (summary["geomean_speedup_blocks"], args.min_speedup))
        return 1
    if args.min_trace_speedup is not None \
            and summary["geomean_speedup_traces_vs_blocks"] \
            < args.min_trace_speedup:
        print("perfbench: FAILED (traces-vs-blocks geomean %.2fx < "
              "%.2fx)" % (summary["geomean_speedup_traces_vs_blocks"],
                          args.min_trace_speedup))
        return 1
    print("perfbench: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
