"""Run a MiniLua benchmark on every registered machine and compare.

Reproduces one bar of the paper's Figure 5 interactively: the same
program, byte-identical output, one row per registered tagging
scheme (the paper's triple plus the statically elided software guards).

Run:  python examples/lua_speedup.py [benchmark] [scale]
"""

import sys

from repro.bench.workloads import BENCHMARK_ORDER, workload
from repro.engines import CONFIGS
from repro.engines.lua import run_lua


def main(argv):
    name = argv[0] if argv else "n-sieve"
    if name not in BENCHMARK_ORDER:
        raise SystemExit("unknown benchmark %r; choose from %s"
                         % (name, ", ".join(BENCHMARK_ORDER)))
    scale = int(argv[1]) if len(argv) > 1 else None
    source = workload(name).lua_source(scale)

    results = {config: run_lua(source, config=config)
               for config in CONFIGS}
    outputs = {r.output for r in results.values()}
    assert len(outputs) == 1, "configs must agree on program output"

    print("benchmark:", name)
    print("program output:")
    print("  " + results["baseline"].output.strip().replace("\n", "\n  "))
    print()
    width = max(len("config"), max(len(config) for config in CONFIGS))
    header = "%-*s %12s %12s %9s %9s %9s" % (
        width, "config", "instructions", "cycles", "speedup", "type-hit",
        "br-MPKI")
    print(header)
    print("-" * len(header))
    base_cycles = results["baseline"].counters.cycles
    for config in CONFIGS:
        counters = results[config].counters
        print("%-*s %12d %12d %8.3fx %9.3f %9.2f" % (
            width, config, counters.instructions, counters.cycles,
            base_cycles / counters.cycles, counters.type_hit_rate,
            counters.branch_mpki))


if __name__ == "__main__":
    main(sys.argv[1:])
