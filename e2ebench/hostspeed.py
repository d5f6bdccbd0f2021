"""Host-speed calibration.

A shared host runs the same code 10-45% slower or faster from one
minute to the next, with the load of its other tenants.  Timing
:func:`calibration_unit` beside an operation and scaling the
operation's time by ``CALIBRATION_REF_S / calibration`` cancels that
swing and keeps any change in the program's own speed: the calibration
runs none of the program's code.  A unit is timed in thread CPU time,
so it measures how fast a core runs, not how long the unit waited for
one.

This module imports only ``gc`` and ``time`` at load time, so a fresh
interpreter can load it before a timed set-up without importing
anything the set-up would otherwise pay for.
"""

import gc
import time

#: Seconds one calibration unit takes on the reference host.
#: Calibrated times are in seconds of that host; a 2-vCPU Xeon VM under
#: CPython 3 runs one unit in 14-20 ms.
CALIBRATION_REF_S = 0.016


def calibration_unit():
    """Fixed pure-Python work shaped like the simulator's inner loop
    (tuple decode, dict and list indexing, masked integer arithmetic,
    branches)."""
    regs = dict.fromkeys(range(16), 1)
    memory = [0] * 256
    program = [(i % 4, i % 16, (i * 7) % 16) for i in range(64)]
    acc = 0
    for _ in range(2000):
        for op, a, b in program:
            if op == 0:
                regs[a] = (regs[a] + regs[b]) & 0xFFFF
            elif op == 1:
                memory[(regs[a] ^ b) & 255] = regs[b]
            elif op == 2:
                acc += memory[regs[b] & 255]
            else:
                regs[b] = (acc + a) & 0xFF
    return acc


class HostSpeed:
    """Calibration samples, each the mean seconds of one unit."""

    def __init__(self):
        self.samples = []

    def sample(self):
        """Time two calibration units here and now; returns the mean
        seconds of one and keeps it."""
        seconds = _timed_units(2)
        self.samples.append(seconds)
        return seconds

    def cells(self):
        """A context manager under which every cell a
        ``repro.bench.parallel`` pool worker simulates is calibrated in
        that worker, by a sample on either side of it: the cell's
        reported seconds are calibrated, and the samples join this
        object's when the parent publishes the cell's record."""
        return _CellCalibration(self)

    def sampling(self, interval=0.5):
        """A context manager that samples one unit every ``interval``
        seconds in a forked process while its body runs (work that
        cannot pause for calibration, such as an open loop), and keeps
        those samples.  The process stops and is joined when the
        body ends."""
        return _Sampling(self, interval)

    def factor(self, samples=None):
        """``CALIBRATION_REF_S`` over the mean of ``samples`` (default:
        every sample so far): multiply a host time by it to get the
        reference host's time."""
        samples = self.samples if samples is None else samples
        return CALIBRATION_REF_S * len(samples) / sum(samples)


def _timed_units(units):
    """Mean thread CPU seconds of one of ``units`` calibration units.
    The cycle collector is off meanwhile, so a collection of the
    program's heap is not charged to the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        for _ in range(units):
            calibration_unit()
        return (time.thread_time() - started) / units
    finally:
        if enabled:
            gc.enable()


class _Sampling:
    """See :meth:`HostSpeed.sampling`."""

    def __init__(self, speed, interval):
        self.speed = speed
        self.interval = interval
        self.samples = []

    def __enter__(self):
        import multiprocessing
        context = multiprocessing.get_context("fork")
        self._conn, child = context.Pipe()
        self._process = context.Process(
            target=_sample_until_told, args=(child, self.interval),
            name="e2ebench-hostspeed", daemon=True)
        self._process.start()
        child.close()
        return self

    def __exit__(self, *exc):
        try:
            self._conn.send(None)
            self.samples = self._conn.recv()
        finally:
            self._conn.close()
            self._process.join(10.0)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()
        self.speed.samples.extend(self.samples)
        return False


def _sample_until_told(conn, interval):
    samples = []
    while not conn.poll(interval):
        samples.append(_timed_units(1))
    conn.recv()
    conn.send(samples)
    conn.close()


#: Attribute the worker's samples travel on, from pool worker to parent.
_SHIPPED = "_e2ebench_hostspeed"
_original_cell = None  # the wrapped cell body (module-level: fork-inherited)


def calibrated_simulate_cell(cell):
    """Pool-worker cell body: the wrapped ``_simulate_cell`` between two
    calibration samples, which calibrate its seconds and travel to the
    parent on the record.  Module-level so the pool can pickle it by
    name."""
    before = _timed_units(1)
    record, seconds = _original_cell(cell)
    after = _timed_units(1)
    setattr(record, _SHIPPED, (before, after))
    return record, seconds * CALIBRATION_REF_S * 2 / (before + after)


class _CellCalibration:
    """See :meth:`HostSpeed.cells`."""

    def __init__(self, speed):
        self.speed = speed

    def __enter__(self):
        global _original_cell
        from repro.bench import parallel, runner
        self._saved = (parallel._simulate_cell, runner.publish)
        original_publish = runner.publish
        samples = self.speed.samples

        def publish(record, *args, **kwargs):
            samples.extend(record.__dict__.pop(_SHIPPED, ()))
            return original_publish(record, *args, **kwargs)

        _original_cell = parallel._simulate_cell
        parallel._simulate_cell = calibrated_simulate_cell
        runner.publish = publish
        return self

    def __exit__(self, *exc):
        global _original_cell
        from repro.bench import parallel, runner
        parallel._simulate_cell, runner.publish = self._saved
        _original_cell = None
        return False
