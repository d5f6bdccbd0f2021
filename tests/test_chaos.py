"""Chaos harness: seed-deterministic fault schedules, MTTR
measurement from ring-membership samples, the chaos SLO gate's
violation matrix, cache-corruption quarantine, and one compact
end-to-end campaign against real shard subprocesses."""

import glob
import random
import time

import pytest

from repro.bench import cache as result_cache
from repro.bench.gate import check_chaos
from repro.bench.runner import clear_cache, run_benchmark
from repro.serve.chaos import (ChaosSpec, build_fault_schedule,
                               corrupt_cache_entry, make_chaos_report,
                               measure_mttr, render_report, run_chaos)
from repro.serve.loadgen import LoadSpec


# -- fault schedule ----------------------------------------------------------

def test_schedule_is_seed_deterministic():
    spec = ChaosSpec(seed=99, shards=4, fault_count=6)
    assert build_fault_schedule(spec) == build_fault_schedule(spec)


def test_schedule_differs_across_seeds():
    schedules = [build_fault_schedule(
        ChaosSpec(seed=seed, shards=64, fault_count=4))
        for seed in (1, 2)]
    assert schedules[0] != schedules[1]          # shard draws differ
    # ... but only in the shard draws: kinds and offsets are fixed.
    strip = [[{k: v for k, v in e.items() if k != "shard"}
              for e in schedule] for schedule in schedules]
    assert strip[0] == strip[1]


def test_schedule_shape():
    spec = ChaosSpec(faults=("kill", "stall", "blackhole"),
                     fault_count=5, shards=3)
    events = build_fault_schedule(spec)
    assert [e["kind"] for e in events] \
        == ["kill", "stall", "blackhole", "kill", "stall"]  # cycle
    lo, hi = spec.window
    duration = spec.load.duration
    for event in events:
        assert duration * lo <= event["at"] <= duration * hi
        assert 0 <= event["shard"] < spec.shards
    offsets = [e["at"] for e in events]
    assert offsets == sorted(offsets)            # evenly spaced, ordered
    by_kind = {e["kind"]: e["duration"] for e in events}
    assert by_kind["kill"] == 0.0
    assert by_kind["stall"] == spec.stall_seconds
    assert by_kind["blackhole"] == spec.blackhole_seconds


def test_default_schedule_is_pinned():
    # The CI smoke run's schedule — kill then stall, evenly spaced
    # inside the default window. Changing any default that moves these
    # events silently changes what CI exercises; fail loudly instead.
    events = build_fault_schedule(ChaosSpec())
    assert [e["kind"] for e in events] == ["kill", "stall"]
    assert [e["at"] for e in events] == [1.6, 5.2]


def test_schedule_rejects_unknown_fault_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        build_fault_schedule(ChaosSpec(faults=("kill", "meteor")))


# -- MTTR --------------------------------------------------------------------

A, B = "unix:/a.sock", "unix:/b.sock"


def test_mttr_zero_when_shard_never_left_the_ring():
    samples = [(1.0, frozenset({A, B})), (2.0, frozenset({A, B}))]
    assert measure_mttr(samples, A, 0.5) == 0.0


def test_mttr_is_injection_to_readmission_delta():
    samples = [(1.2, frozenset({B})), (2.5, frozenset({A, B}))]
    assert measure_mttr(samples, A, 1.0) == 1.5


def test_mttr_none_when_shard_never_returned():
    samples = [(1.0, frozenset({B})), (2.0, frozenset({B}))]
    assert measure_mttr(samples, A, 0.5) is None


def test_mttr_ignores_samples_before_injection():
    # A pre-injection absence (e.g. the previous fault's tail) must
    # not be billed to this fault.
    samples = [(0.5, frozenset({B})), (1.5, frozenset({A, B}))]
    assert measure_mttr(samples, A, 1.0) == 0.0


# -- the chaos SLO gate ------------------------------------------------------

def _report(**overrides):
    report = {
        "traffic": {"offered": 12, "classified": 12, "served": 10,
                    "retried": 2, "shed": 0, "busy": 0, "lost": 0,
                    "duplicated": 0, "lost_samples": []},
        "latency_ms": {"p50": 5.0, "p95": 9.0, "p99": 9.5,
                       "max": 10.0},
        "faults": [{"kind": "kill", "shard": 1, "shard_id": A,
                    "at": 1.6, "duration": 0.0, "mttr_seconds": 0.5,
                    "recovered": True}],
        "recovery": {"ring_full": True, "expected": [A, B],
                     "max_mttr_seconds": 0.5, "unrecovered": []},
    }
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            report[section][field] = value
        else:
            report[section] = value
    return make_chaos_report(report)


def test_gate_passes_a_clean_report():
    violations, text = check_chaos(_report())
    assert violations == []
    assert text.startswith("CHAOS GATE: ok")


def test_gate_fails_on_lost_requests():
    violations, _ = check_chaos(_report(**{"traffic.lost": 1}))
    assert any("LOST" in v for v in violations)


def test_gate_fails_on_duplicated_terminals():
    violations, _ = check_chaos(_report(**{"traffic.duplicated": 1}))
    assert any("exactly-once" in v for v in violations)


def test_gate_fails_when_a_fault_never_recovers():
    report = _report()
    report["faults"][0]["mttr_seconds"] = None
    violations, _ = check_chaos(report)
    assert any("never recovered" in v for v in violations)


def test_gate_bounds_mttr():
    report = _report()
    report["faults"][0]["mttr_seconds"] = 2.0
    assert check_chaos(report)[0] == []          # inside default bound
    violations, _ = check_chaos(report, max_mttr_seconds=1.0)
    assert any("took 2.00s" in v for v in violations)


def test_gate_fails_on_a_degraded_ring():
    violations, _ = check_chaos(
        _report(**{"recovery.ring_full": False,
                   "recovery.unrecovered": [A]}))
    assert any("full strength" in v for v in violations)


def test_gate_requires_some_traffic_served():
    violations, _ = check_chaos(
        _report(**{"traffic.served": 0, "traffic.retried": 0}))
    assert any("served under faults" in v for v in violations)


def test_gate_rejects_unknown_overrides():
    with pytest.raises(ValueError, match="unknown chaos SLO"):
        check_chaos(_report(), max_typos=1)


def test_gate_rejects_an_unstamped_payload():
    violations, text = check_chaos({"traffic": {}})
    assert violations and "unreadable artifact" in text


# -- cache corruption --------------------------------------------------------

def test_corrupt_entry_is_quarantined_and_recomputed(tmp_path):
    cache_root = tmp_path / "cache"
    clear_cache()
    with result_cache.temporary(cache_root):
        golden = run_benchmark("lua", "fibo", "baseline", scale=8)
        victim = corrupt_cache_entry(cache_root, random.Random(0))
        assert victim is not None
        clear_cache()                            # drop the memo layer
        again = run_benchmark("lua", "fibo", "baseline", scale=8)
        # The corrupt entry was a miss, never a served wrong answer.
        assert again.output == golden.output
        assert again.counters.as_dict() == golden.counters.as_dict()
        quarantined = list(cache_root.rglob("corrupt/*"))
        assert len(quarantined) == 1
    clear_cache()


def test_corrupt_entry_on_an_empty_cache_is_a_noop(tmp_path):
    assert corrupt_cache_entry(tmp_path, random.Random(0)) is None


# -- end to end --------------------------------------------------------------

def _processes_naming(needles, timeout=5.0):
    """Pids whose command line contains any of ``needles``, polled
    until none is left or ``timeout`` passes (reads ``/proc``; finds
    nothing where there is none).  A forked pool worker keeps its
    shard's command line, so this sees workers as well as shards."""
    deadline = time.monotonic() + timeout
    while True:
        found = []
        for path in glob.glob("/proc/[0-9]*/cmdline"):
            try:
                with open(path, "rb") as handle:
                    cmdline = handle.read().decode(errors="replace")
            except OSError:
                continue
            if any(needle in cmdline for needle in needles):
                found.append(int(path.split("/")[2]))
        if not found or time.monotonic() > deadline:
            return found
        time.sleep(0.1)


def test_chaos_campaign_end_to_end(tmp_path):
    """A compact kill-only campaign against two real shard processes:
    no request lost or duplicated, the killed shard rejoins the ring,
    and the stamped artifact clears the gate."""
    spec = ChaosSpec(
        load=LoadSpec(qps=4.0, duration=3.0, keys=4, threads=4,
                      configs=("baseline",)),
        shards=2, faults=("kill",), window=(0.3, 0.5),
        recovery_timeout=20.0)
    clear_cache()
    with result_cache.temporary(tmp_path / "cache"):
        report = run_chaos(spec, cache_dir=str(tmp_path / "cache"),
                           log_dir=str(tmp_path))
    clear_cache()
    traffic = report["traffic"]
    assert traffic["classified"] == traffic["offered"]
    assert traffic["lost"] == 0
    assert traffic["duplicated"] == 0
    assert traffic["served"] + traffic["retried"] >= 1
    assert report["recovery"]["ring_full"]
    (fault,) = report["faults"]
    assert fault["kind"] == "kill" and fault["recovered"]
    assert report["supervisor"]["respawns"] >= 1
    violations, text = check_chaos(make_chaos_report(report))
    assert violations == [], text
    render_report(report)                        # must not raise
    # Every process the shard manager spawned (each shard, the killed
    # one's respawn, and the pool workers they forked) has exited.
    sockets = [shard_id[len("unix:"):]
               for shard_id in report["recovery"]["expected"]]
    assert _processes_naming(sockets) == []
