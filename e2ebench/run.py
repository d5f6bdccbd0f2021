#!/usr/bin/env python3
"""End-to-end benchmark of the repository: a cold sweep, cold short
scripts and zipf traffic to the served tier.

Run from the repository root::

    python3 e2ebench/run.py --workload sweep-cold --seed 1 --seconds 24 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 24

One workload prints notes, then as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of an untraced run.  ``--trace 1``
spends half of ``--seconds`` on an untraced run of the same seed in a
fresh process and the other half on a traced run, and reports the
per-layer metrics of the traced run and the tracing overhead (traced
against untraced); the spans are written to ``.e2ebench-out/``.
``--workload all`` runs every workload in its own process and prints
each metric with its unit.

The exit status is non-zero, with no result line, when the checkout
has no ``src/repro`` to measure or a workload cannot run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("sweep-cold", "scripts-cold", "serve-zipf")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_child(name, seed, seconds, trace):
    """This benchmark on one workload in a fresh process; returns its
    result object, or raises ``RuntimeError`` when it failed."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError("%s: exit %d\n%s" % (name, done.returncode,
                                                 done.stderr[-2000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(args):
    """Every workload in a fresh process; a table of its metrics."""
    status = 0
    for name in WORKLOAD_NAMES:
        try:
            result = run_child(name, args.seed, args.seconds, args.trace)
        except RuntimeError as err:
            print("failed: %s" % err)
            status = 1
            continue
        print("%s: correct=%s attempted=%d failed=%d"
              % (name, result["correct"], result["attempted"],
                 result["failed"]))
        for metric, entry in result["metrics"].items():
            print("  %-30s %14.6g %s" % (metric, entry["value"],
                                         entry["unit"]))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("e2ebench: no src/repro under %s; nothing to measure" % ROOT,
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, SRC)
    import tracing
    import workloads

    seconds, plain = args.seconds, None
    if args.trace:
        seconds = args.seconds / 2.0
        try:
            plain = run_child(args.workload, args.seed, seconds, 0)
        except RuntimeError as err:
            print("e2ebench: untraced reference run failed: %s" % err,
                  file=sys.stderr)
            return 1

    work = os.path.join(ROOT, ".e2ebench-work", str(os.getpid()))
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    # Temporary files (and unix sockets) stay inside the checkout, on a
    # relative path so socket names stay short wherever it lives.
    tempfile.tempdir = os.path.relpath(os.path.join(work, "tmp"))
    os.environ["TMPDIR"] = os.path.abspath(tempfile.tempdir)
    try:
        run = workloads.Run(args.seed, seconds, work, SRC)
        report = workloads.WORKLOADS[args.workload](
            run, tracing.Tracer() if args.trace else None)
    except Exception:  # noqa: BLE001 — report and fail without a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        basis = workloads.OVERHEAD_BASIS[args.workload]
        untraced = plain["metrics"][basis]["value"]
        report.metrics["trace.overhead"] = \
            report.basis / untraced - 1.0 if untraced else 0.0
        report.notes.append(
            "trace.overhead: %s %.4g traced against %.4g untraced"
            % (basis, report.basis, untraced))
        if not plain["correct"]:
            report.failed += plain["failed"]
            report.failures.append("the untraced reference run failed %d "
                                   "operations" % plain["failed"])
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    missing = set(units) - set(report.metrics)
    metrics = {name: {"value": report.metrics.get(name, 0.0),
                      "unit": unit} for name, unit in units.items()}
    if not args.trace and missing:
        print("e2ebench: %s did not measure %s"
              % (args.workload, sorted(missing)), file=sys.stderr)
        return 1
    if args.trace:
        out = os.path.join(ROOT, ".e2ebench-out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, "spans-%s-seed%d.json"
                            % (args.workload, args.seed))
        with open(path, "w") as handle:
            json.dump(report.spans, handle)
        report.notes.append("%d spans written to %s"
                            % (len(report.spans), os.path.relpath(path)))
        report.notes.append("not measured on this workload (reported as "
                            "0): %s" % ", ".join(sorted(missing)))
    for note in report.notes:
        print("# " + note)
    for reason in report.failures[:20]:
        print("# FAILED: " + reason)
    for name, entry in metrics.items():
        print("%-30s %14.6g %s" % (name, entry["value"], entry["unit"]))
    print(json.dumps({"correct": report.failed == 0,
                      "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
