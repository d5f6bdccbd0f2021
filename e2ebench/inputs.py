"""Seeded inputs and the output oracle shared by every workload.

Everything the program under test receives is generated here from the
run's seed: which benchmark cells a cold sweep runs, which short
scripts a client submits, and the request population of the served
tier.  Configs, templates and scale domains are pinned in this file
(never read from the live registry), so deleting or adding a config in
``src/`` cannot silently change a workload.
"""

import json
import random
import shutil
import subprocess

#: The four tagging configs every workload draws from.
PINNED_CONFIGS = ("baseline", "chklb", "typed", "elided")

#: The paper's triple, whose counters ``benchmarks/results/baseline.json``
#: pins for every default-scale cell.
GATE_CONFIGS = ("baseline", "chklb", "typed")

ENGINES = ("lua", "js")

#: The eleven workload templates (Table 7), pinned by name.
TEMPLATES = ("ackermann", "binary-trees", "fannkuch-redux", "fibo",
             "k-nucleotide", "mandelbrot", "n-body", "n-sieve",
             "pidigits", "random", "spectral-norm")

#: ``sweep-cold`` runs a prefix of these benchmarks, one to a sweep (the
#: first four in a 24-second run).  The set is pinned so every seed does
#: the same simulation work; the seed draws the order.  The first four
#: each take 3-6 s as a cold sweep on a 2-core host, fibo and n-sieve
#: 9-10 s; ackermann, random, n-body, spectral-norm and mandelbrot cost
#: more still and are left out to keep a run short.
SWEEP_BENCHMARKS = ("binary-trees", "fannkuch-redux", "k-nucleotide",
                    "pidigits", "fibo", "n-sieve")

#: ``scripts-cold`` scale domains: two short inputs per template, each
#: inside its program's domain.  fannkuch-redux needs n >= 3 because the
#: algorithm reads ``p[3]``.  Two rounds use every scale once on both
#: guests, so every seed runs the same 44 programs.
SCRIPT_SCALES = {
    "ackermann": (1, 2), "binary-trees": (3, 4),
    "fannkuch-redux": (3, 4), "fibo": (9, 11),
    "k-nucleotide": (30, 60), "mandelbrot": (2, 3),
    "n-body": (1, 2), "n-sieve": (100, 200),
    "pidigits": (4, 6), "random": (100, 250),
    "spectral-norm": (2, 3),
}
SCRIPT_ROUNDS = 2

#: ``serve-zipf`` bench cells: each template that has an input retiring
#: at most ~40k simulated instructions on either guest, at that input,
#: so a cold attributed cell costs about as much as a run script (below)
#: and the cold tail does not swamp the steady one.
SERVE_SCALES = {
    "ackermann": 1, "binary-trees": 3, "fannkuch-redux": 3, "fibo": 6,
    "n-sieve": 20, "pidigits": 3, "random": 20,
}

#: ``serve-zipf`` run scripts: a sum-of-squares loop whose bound is drawn
#: per key from a narrow per-guest range, so every attributed run
#: retires 31k-36k simulated instructions and the tail reflects the
#: tier, not which program happened to be hot.  At this size the tail
#: percentile falls among executions that rarely queue behind each
#: other; at twice the size it fell among collisions, and its spread
#: over five seeds was 0.18 (IQR over median) against 0.08-0.17.
LOOP = "sum-of-squares"
LOOP_BOUNDS = {"lua": range(310, 341), "js": range(120, 131)}
_LOOP_SOURCES = {
    "lua": "local s = 0\nfor i = 1, %d do s = s + i * i end\nprint(s)\n",
    "js": "var s = 0;\nfor (var i = 1; i <= %d; i = i + 1) "
          "{ s = s + i * i; }\nprint(s);\n",
}


def source_of(engine, template, scale):
    """The guest program text of ``template`` at ``scale`` (for
    :data:`LOOP`, ``scale`` is the loop bound)."""
    if template == LOOP:
        return _LOOP_SOURCES[engine] % scale
    from repro.bench.workloads import workload
    spec = workload(template)
    return spec.lua_source(scale) if engine == "lua" \
        else spec.js_source(scale)


def balanced_configs(rng, count):
    """``count`` configs, each pinned config as often as possible
    (counts differ by at most one), in a seeded order."""
    configs = [PINNED_CONFIGS[i % len(PINNED_CONFIGS)]
               for i in range(count)]
    rng.shuffle(configs)
    return configs


def sweep_draw(seed, sweeps):
    """``sweeps`` cold sweeps of one benchmark each (both guests, all
    four pinned configs): the first ``sweeps`` of
    :data:`SWEEP_BENCHMARKS` in a seeded order."""
    rng = random.Random("sweep-cold/%d" % seed)
    chosen = [(benchmark,) for benchmark in SWEEP_BENCHMARKS[:sweeps]]
    rng.shuffle(chosen)
    return chosen


def script_rounds(seed, rounds):
    """``rounds`` rounds of short scripts for ``scripts-cold``.

    A round is every template on both guests (22 scripts) in a seeded
    order, with the four configs balanced within it.  Each (template,
    guest) takes its scales in a seeded order, one per round, so no
    source repeats.  Returns lists of ``(engine, template, scale,
    config)``.
    """
    rng = random.Random("scripts-cold/%d" % seed)
    pairs = [(engine, template) for template in TEMPLATES
             for engine in ENGINES]
    scales = {}
    for pair in pairs:
        order = list(SCRIPT_SCALES[pair[1]])
        rng.shuffle(order)
        scales[pair] = order
    result = []
    for index in range(rounds):
        order = list(pairs)
        rng.shuffle(order)
        configs = balanced_configs(rng, len(order))
        result.append([(engine, template,
                        scales[(engine, template)][index], config)
                       for (engine, template), config
                       in zip(order, configs)])
    return result


def serve_population(seed, keys):
    """The ``serve-zipf`` request population, most popular first.

    Ranks follow a fixed op pattern (per 16 ranks: two attributed
    ``run`` scripts, one single-cell ``sweep``, the rest ``bench``
    cells), so the op mix of the hot ranks, and with it the cache-hit
    share, is the same for every seed (about 88% bench, 10% run and 2%
    sweep requests for 48 keys under the zipf draw of
    ``serve-zipf``); the seed draws each key's guest, program and
    config.  Returns dicts with ``rank``,
    ``op``, ``cell`` (engine, template, scale, config) and the wire
    ``payload``.
    """
    from repro import api

    rng = random.Random("serve-zipf/%d" % seed)
    pattern = {3: "run", 11: "run", 15: "sweep"}
    configs = balanced_configs(rng, keys)
    population, seen = [], set()
    for rank in range(keys):
        op = pattern.get(rank % 16, "bench")
        while True:
            engine = rng.choice(ENGINES)
            if op == "run":
                template = LOOP
                scale = rng.choice(LOOP_BOUNDS[engine])
            else:
                template = rng.choice(sorted(SERVE_SCALES))
                scale = SERVE_SCALES[template]
            cell = (engine, template, scale, configs[rank])
            if (op, cell) not in seen:
                seen.add((op, cell))
                break
        if op == "run":
            request = api.ExecutionRequest(
                op="run", engine=engine, config=cell[3], attribute=True,
                source=source_of(engine, template, scale))
        elif op == "bench":
            request = api.ExecutionRequest(
                op="bench", engine=engine, benchmark=template,
                config=cell[3], scale=scale)
        else:
            request = api.ExecutionRequest(
                op="sweep", engines=(engine,), benchmarks=(template,),
                configs=(cell[3],), scales={template: scale}, jobs=1)
        population.append({"rank": rank, "op": op, "cell": cell,
                           "payload": request.as_dict()})
    return population


# -- the output oracle ---------------------------------------------------------

# MiniJS globals, with node's own formatting; output is captured per
# program so one node process checks every program of a run.
_NODE_HARNESS = r"""
'use strict';
const vm = require('vm');
const PRELUDE = `
'use strict';
function print() {
  __out.push(Array.prototype.map.call(arguments, String).join(' ') + '\\n');
}
function write() {
  __out.push(Array.prototype.map.call(arguments, String).join(''));
}
function substring(s, i, j) { return s.substring(i, j); }
function charCodeAt(s, i) { return s.charCodeAt(i); }
`;
let input = '';
process.stdin.setEncoding('utf8');
process.stdin.on('data', (chunk) => { input += chunk; });
process.stdin.on('end', () => {
  const outputs = JSON.parse(input).map((source) => {
    const out = [];
    vm.runInContext(PRELUDE + source, vm.createContext({__out: out}),
                    {timeout: 60000});
    return out.join('');
  });
  process.stdout.write(JSON.stringify(outputs));
});
"""


def node_outputs(sources):
    """Run every JS source under node; returns their outputs in order.

    Raises ``RuntimeError`` when node is missing or fails: without the
    reference engine no output can be checked.
    """
    node = shutil.which("node")
    if node is None:
        raise RuntimeError("node is required to check JS outputs")
    if not sources:
        return []
    done = subprocess.run([node, "-e", _NODE_HARNESS],
                          input=json.dumps(list(sources)),
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError("node failed: %s" % done.stderr[-500:])
    return json.loads(done.stdout)


def outputs_agree(ours, reference):
    """Token-by-token comparison, numeric tokens to 1e-12 (relative or
    absolute), as ``tests/test_node_conformance.py`` compares them."""
    our_tokens, ref_tokens = ours.split(), reference.split()
    if len(our_tokens) != len(ref_tokens):
        return False
    for mine, theirs in zip(our_tokens, ref_tokens):
        try:
            a, b = float(mine), float(theirs)
        except ValueError:
            if mine != theirs:
                return False
            continue
        if a != a or b != b:
            if not (a != a and b != b):
                return False
        elif abs(a - b) > max(1e-12, 1e-12 * abs(b)):
            return False
    return True


class Oracle:
    """Expected outputs for (template, scale) pairs and the
    cross-config agreement check.

    JS outputs must equal node's; Lua outputs must equal the JS
    reference output of the same template and scale; and every config
    must print exactly the same text for one (guest, template, scale).
    """

    def __init__(self, pairs):
        pairs = sorted(set(pairs))
        outputs = node_outputs([source_of("js", template, scale)
                                for template, scale in pairs])
        self.expected = dict(zip(pairs, outputs))
        self._by_source = {}

    def check(self, engine, template, scale, output):
        """``None`` when ``output`` is right, else a reason string."""
        if not outputs_agree(output, self.expected[(template, scale)]):
            return ("%s %s/%d output %r != reference %r"
                    % (engine, template, scale, output[:80],
                       self.expected[(template, scale)][:80]))
        first = self._by_source.setdefault((engine, template, scale),
                                           output)
        if first != output:
            return ("%s %s/%d output differs across configs"
                    % (engine, template, scale))
        return None
