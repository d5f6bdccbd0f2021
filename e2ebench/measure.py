"""Measurement helpers shared by the workloads: percentiles, calibrated
set-up timing in fresh interpreters, peak RSS and child-process
reaping."""

import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time

#: Fresh interpreters timed per set-up measurement (the median is kept).
SETUP_REPEATS = 7

# Calibrated in the fresh interpreter itself, right before and after
# the timed code (``hostspeed`` imports only ``gc`` and ``time``).
_TIMER = """
import sys
import time
sys.path.append(%(here)r)
import hostspeed
_speed = hostspeed.HostSpeed()
_speed.sample()
_start = time.perf_counter()
%(code)s
_seconds = time.perf_counter() - _start
_speed.sample()
print(repr(_seconds * _speed.factor()))
"""


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """``(value, percentile, count)``: the highest percentile that has
    at least 10 samples beyond it (the maximum when there are fewer
    than 11 samples)."""
    ordered = sorted(values)
    count = len(ordered)
    if not count:
        return 0.0, 0.0, 0
    index = count - 11 if count >= 11 else count - 1
    return ordered[index], 100.0 * (index + 1) / count, count


def percentile(values, q):
    """The ``q``-quantile (0..1) by rank selection."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[index]


def timed_setup(src, code, repeats=SETUP_REPEATS):
    """Median calibrated seconds ``code`` takes in a fresh interpreter
    with ``src`` on its path (interpreter start-up itself excluded)."""
    env = dict(os.environ, PYTHONPATH=src)
    program = _TIMER % {"here": os.path.dirname(os.path.abspath(__file__)),
                        "code": code}
    seconds = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", program],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds.append(float(done.stdout.strip().splitlines()[-1]))
    return median(seconds)


def peak_rss_mb():
    """Peak RSS of this process plus the largest peak among its reaped
    children, in MiB (``getrusage``; Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def reap_children(timeout=60.0):
    """Wait until every ``multiprocessing`` child (pool workers) has
    exited, so none outlives its phase and each one's peak RSS is
    counted."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5.0)
            break
        time.sleep(0.01)
