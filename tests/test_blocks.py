"""The basic-block superinstruction engine (:mod:`repro.sim.blocks`).

The engine's contract is strict: counters, cycles and architectural
state must be bit-identical to the reference per-instruction loop for
every program, per-bytecode attribution included, and the engine must
silently stand aside whenever something needs per-instruction
visibility.  The differential tests here enforce the contract over the
full benchmark matrix (at reduced input scales), with attribution off
and on; block-shape unit tests pin the discovery rules.
"""

import pytest

from repro.bench.runner import ENGINES, run_benchmark
from repro.bench.workloads import BENCHMARK_ORDER
from repro.engines import CONFIGS
from repro.engines.js import run_js
from repro.engines.js import vm as js_vm
from repro.engines.lua import vm as lua_vm
from repro.isa.assembler import assemble
from repro.sim.blocks import MAX_BLOCK_LEN, block_table
from repro.sim.cpu import Cpu
from repro.sim.errors import ExecutionLimitExceeded
from repro.sim.memory import Memory
from repro.telemetry import Telemetry
from repro.uarch.pipeline import DEFAULT_CONFIG, Attribution, Machine


def _machine(text, **kwargs):
    cpu = Cpu(assemble(text), Memory(size=1 << 16))
    return cpu, Machine(cpu, **kwargs)


# -- block discovery -------------------------------------------------------------

def test_blocks_end_at_terminators():
    program = assemble("""
        addi a0, zero, 1
        addi a1, zero, 2
        jal ra, after
    after:
        addi a2, zero, 3
        ebreak
    """)
    table = block_table(program, DEFAULT_CONFIG)
    assert len(table.blocks) == 5
    assert table.block_at(0)[1] == 3     # addi, addi, jal
    assert table.block_at(3)[1] == 2     # addi, ebreak
    assert table.block_at(4)[1] == 1     # ebreak alone


def test_blocks_capped_at_max_len():
    text = "\n".join(["addi a0, a0, 1"] * (MAX_BLOCK_LEN + 20)) + "\nebreak"
    table = block_table(assemble(text), DEFAULT_CONFIG)
    assert table.block_at(0)[1] == MAX_BLOCK_LEN
    # A block starting mid-stream still runs to the real terminator.
    assert table.block_at(MAX_BLOCK_LEN)[1] == 21


def test_blocks_compiled_lazily_and_cached():
    program = assemble("addi a0, zero, 7\nebreak")
    table = block_table(program, DEFAULT_CONFIG)
    assert table.compiled == 0
    first = table.block_at(0)
    assert table.compiled == 1
    assert table.block_at(0) is first
    assert table.compiled == 1


def test_block_table_shared_per_program_and_config():
    program = assemble("addi a0, zero, 7\nebreak")
    assert block_table(program, DEFAULT_CONFIG) \
        is block_table(program, DEFAULT_CONFIG)


_HANDLERS = """
    addi a0, zero, 3
loop:
    addi a1, a1, 1
    addi a2, a2, 2
mid:
    addi a3, a3, 1
    addi a0, a0, -1
    bne a0, zero, loop
    ebreak
"""


def _handler_attribution(program):
    """Two "handlers" whose entries sit inside one straight-line run."""
    loop, mid = program.labels["loop"], program.labels["mid"]
    return Attribution(program, [("LOOP", loop, mid),
                                 ("MID", mid, program.end)],
                       {loop: "LOOP", mid: "MID"})


def test_entry_points_are_block_leaders():
    program = assemble(_HANDLERS)
    table = block_table(program, DEFAULT_CONFIG)
    assert table.block_at(1)[1] == 6          # loop .. ebreak spans mid
    attribution = _handler_attribution(program)
    table.add_leaders(attribution.leaders)
    assert table.blocks[1] is None            # dropped for recompilation
    assert table.block_at(1)[1] == 2          # now stops before mid
    assert table.block_at(3)[1] == 4
    results = []
    for use_blocks in (False, True):
        cpu = Cpu(program, Memory(size=1 << 16))
        machine = Machine(cpu, attribution=attribution,
                          use_blocks=use_blocks)
        results.append(machine.run(max_instructions=1_000).as_dict())
    assert results[0] == results[1]
    assert results[1]["bytecode_counts"] == {"LOOP": 3, "MID": 3}


def test_single_at_is_one_instruction():
    program = assemble("addi a0, zero, 1\naddi a1, zero, 2\nebreak")
    table = block_table(program, DEFAULT_CONFIG)
    assert table.single_at(0)[1] == 1
    assert table.single_at(0) is table.single_at(0)


# -- engine selection ------------------------------------------------------------

_LOOP = """
    addi a0, zero, 50
    addi a1, zero, 0
loop:
    add a1, a1, a0
    addi a0, a0, -1
    bne a0, zero, loop
    ebreak
"""


def test_blocks_used_by_default(monkeypatch):
    _cpu, machine = _machine(_LOOP)
    monkeypatch.setattr(Machine, "_run_interpreted", _boom)
    machine.run(max_instructions=1_000)


def test_use_blocks_false_falls_back(monkeypatch):
    _cpu, machine = _machine(_LOOP, use_blocks=False)
    monkeypatch.setattr(Machine, "_run_blocks", _boom)
    machine.run(max_instructions=1_000)


def _attributed(**kwargs):
    program = assemble(_HANDLERS)
    cpu = Cpu(program, Memory(size=1 << 16))
    machine = Machine(cpu, attribution=_handler_attribution(program),
                      **kwargs)
    return cpu, machine


def test_attribution_runs_on_blocks(monkeypatch):
    """Attribution is charged per block, so an attributed run takes the
    block engine, also when traces are enabled."""
    _cpu, machine = _attributed()
    monkeypatch.setattr(Machine, "_run_interpreted", _boom)
    monkeypatch.setattr(Machine, "_run_traces", _boom)
    counters = machine.run(max_instructions=1_000)
    assert counters.bytecode_counts == {"LOOP": 3, "MID": 3}


@pytest.mark.parametrize("route", ["telemetry", "step", "no-blocks"])
def test_attributed_runs_needing_each_instruction_use_reference(
        monkeypatch, route):
    if route == "telemetry":
        cpu, machine = _attributed(telemetry=Telemetry())
    elif route == "step":
        cpu, machine = _attributed()
        cpu.step = cpu.step  # an instance shadow, as fault hooks install
    else:
        cpu, machine = _attributed(use_blocks=False)
    monkeypatch.setattr(Machine, "_run_blocks", _boom)
    monkeypatch.setattr(Machine, "_run_traces", _boom)
    machine.run(max_instructions=1_000)


def test_cpu_step_shadow_forces_interpreter(monkeypatch):
    cpu, machine = _machine(_LOOP)
    cpu.step = cpu.step  # an instance shadow, as tracers install
    monkeypatch.setattr(Machine, "_run_blocks", _boom)
    machine.run(max_instructions=1_000)


def _boom(*_args, **_kwargs):
    raise AssertionError("wrong engine selected")


# -- differential: simple programs ----------------------------------------------

def _run_both(text, max_instructions=1_000_000):
    cpu_ref, machine_ref = _machine(text, use_blocks=False)
    ref = machine_ref.run(max_instructions=max_instructions)
    cpu_blk, machine_blk = _machine(text)
    blk = machine_blk.run(max_instructions=max_instructions)
    return (cpu_ref, ref), (cpu_blk, blk)


def test_differential_loop_program():
    (cpu_ref, ref), (cpu_blk, blk) = _run_both(_LOOP)
    assert blk.as_dict() == ref.as_dict()
    assert cpu_blk.regs.value == cpu_ref.regs.value
    assert cpu_blk.mem.data == cpu_ref.mem.data


def test_execution_limit_trips_identically():
    spin = "spin:\naddi a0, a0, 1\njal zero, spin"
    cpu_ref, machine_ref = _machine(spin, use_blocks=False)
    with pytest.raises(ExecutionLimitExceeded):
        machine_ref.run(max_instructions=777)
    cpu_blk, machine_blk = _machine(spin)
    with pytest.raises(ExecutionLimitExceeded):
        machine_blk.run(max_instructions=777)
    assert cpu_blk.instret == cpu_ref.instret == 777
    assert cpu_blk.pc == cpu_ref.pc
    assert cpu_blk.regs.value == cpu_ref.regs.value


def test_thdl_deopt_differential():
    """The path selector mutates hot-site stats mid-run; the block
    engine must replicate its redirects and counter effects exactly."""
    outputs, counters, cpus = [], [], []
    for use_blocks in (False, True):
        cpu, runtime, _program = lua_vm.prepare(
            "local s = 0\n"
            "local t = {}\n"
            "for i = 1, 60 do\n"
            "  if i % 2 == 0 then t[i] = i else t[i] = i + 0.5 end\n"
            "end\n"
            "for i = 1, 59 do s = s + (t[i] + t[i + 1]) end\n"
            "print(s)\n", config="typed")
        cpu.deopt_threshold = 0.5
        machine = Machine(cpu, use_blocks=use_blocks)
        counters.append(machine.run(max_instructions=20_000_000))
        outputs.append("".join(runtime.output))
        cpus.append(cpu)
    assert outputs[0] == outputs[1]
    assert counters[0].as_dict() == counters[1].as_dict()
    assert cpus[0].deopt_redirects == cpus[1].deopt_redirects
    assert cpus[1].deopt_redirects > 0  # the selector actually fired


# -- differential: the full benchmark matrix -------------------------------------
# Reduced input scales keep the 88-cell matrix, run with attribution off
# and on, tractable in tier-1; the full-scale version is
# tools/perfbench.py (which asserts the same counter identity on every
# cell it measures).

_SCALES = {
    "ackermann": 2,
    "binary-trees": 4,
    "fannkuch-redux": 4,
    "fibo": 8,
    "k-nucleotide": 30,
    "mandelbrot": 4,
    "n-body": 5,
    "n-sieve": 150,
    "pidigits": 5,
    "random": 200,
    "spectral-norm": 3,
}

_CELLS = [(engine, benchmark, config, attribute)
          for attribute in (False, True)
          for engine in ENGINES
          for benchmark in BENCHMARK_ORDER
          for config in CONFIGS]


# the arg is named "workload" because pytest-benchmark owns "benchmark"
@pytest.mark.parametrize(
    ("engine", "workload", "config", "attribute"), _CELLS,
    ids=["%s-%s-%s%s" % (engine, benchmark, config,
                         "-attributed" if attribute else "")
         for engine, benchmark, config, attribute in _CELLS])
def test_differential_benchmark_matrix(engine, workload, config, attribute):
    legacy = run_benchmark(engine, workload, config,
                           scale=_SCALES[workload],
                           use_cache=False, attribute=attribute,
                           use_blocks=False)
    blocks = run_benchmark(engine, workload, config,
                           scale=_SCALES[workload],
                           use_cache=False, attribute=attribute,
                           use_blocks=True)
    assert blocks.output == legacy.output
    # The full dict: with attribution it includes bucket counts,
    # bytecode counts, per-entry type hits/misses and flat spans.
    assert blocks.counters.as_dict() == legacy.counters.as_dict()
    if attribute:
        assert blocks.counters.bytecode_counts


def test_blocks_do_not_perturb_attribution_runs():
    """An attributed run still matches an attribution-free blocks run
    counter for counter."""
    attributed = run_benchmark("lua", "fibo", "typed", scale=8,
                               use_cache=False)
    plain = run_benchmark("lua", "fibo", "typed", scale=8,
                          use_cache=False, attribute=False)
    assert attributed.output == plain.output
    assert attributed.counters.cycles == plain.counters.cycles
    assert attributed.counters.instructions == plain.counters.instructions


# -- attribution pitfalls ---------------------------------------------------------

def _attributed_pair(source, config):
    reference = run_js(source, config=config, use_blocks=False)
    blocks = run_js(source, config=config)
    assert blocks.output == reference.output
    assert blocks.counters.as_dict() == reference.counters.as_dict()
    return blocks.counters


def test_attributed_overflow_trap_is_a_type_miss():
    """An int32 overflow is a TRT hit that redirects; both engines
    charge it to the bytecode as a type miss."""
    counters = _attributed_pair(
        "var a = 2000000000; var s = 0;\n"
        "for (var i = 0; i < 5; i++) { s = a + a; }\n"
        "print(s);\n", "typed")
    assert counters.overflow_traps > 0
    assert counters.bytecode_type_misses["ADD"] > 0


def test_attributed_chklw_cell_matches_reference():
    """JS chklb guards with ``chklw`` only, which the timing model
    classes as a plain load: its hits and misses must not shift the
    attributed type hits and misses."""
    program = js_vm.interpreter_program("chklb")[0]
    mnemonics = {i.mnemonic for i in program.instructions}
    assert "chklw" in mnemonics and "chklb" not in mnemonics
    counters = _attributed_pair(
        "var s = 0; var f = 0.5;\n"
        "for (var i = 0; i < 20; i++) { s = s + i; f = f + i; }\n"
        "print(s); print(f);\n", "chklb")
    assert counters.chk_hits > 0 and counters.chk_misses > 0
