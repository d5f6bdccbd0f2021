"""N-config sweeps through the registry: figures, campaigns, smoke.

Covers the registry-driven figure pipeline (figures 5 and 9 rendering
an arbitrary number of registered configs), the figure 9 denominator
regression (chklb rates normalised by the chklb run's own bytecode
count) and the fault-campaign guarantee that every config — including
a late-registered one — faces the identical seeded fault sequence.
The late-registered config is a test-only clone of the typed family.
"""

from types import SimpleNamespace

import pytest

from repro.bench import experiments
from repro.bench.runner import RunRecord, clear_cache, run_matrix
from repro.engines import (
    BASELINE,
    CHECKED_LOAD,
    TYPED,
    all_configs,
    register,
    unregister,
)
from repro.engines.configs import FAMILY_TYPED, TaggingScheme

TYPED_CLONE = "typed-clone"
SMOKE_CONFIGS = (BASELINE, CHECKED_LOAD, TYPED, TYPED_CLONE)


@pytest.fixture(scope="module")
def typed_clone():
    register(TaggingScheme(name=TYPED_CLONE,
                           description="test-only typed clone",
                           family=FAMILY_TYPED))
    try:
        yield TYPED_CLONE
    finally:
        unregister(TYPED_CLONE)


@pytest.fixture(scope="module")
def records(typed_clone):
    clear_cache()
    return run_matrix(engines=("lua",), benchmarks=("fibo",),
                      configs=SMOKE_CONFIGS, scales={"fibo": 6})


# -- N-config figures --------------------------------------------------------

def test_figure5_renders_all_registered_configs(records):
    data = experiments.figure5(records)
    assert set(data["lua"]["geomean"]) == set(SMOKE_CONFIGS)
    assert data["lua"]["geomean"][BASELINE] == pytest.approx(1.0)
    assert data["lua"]["geomean"][TYPED] > 1.0
    assert data["lua"]["geomean"][TYPED_CLONE] \
        == data["lua"]["geomean"][TYPED]
    text = experiments.render_figure5(data)
    for config in SMOKE_CONFIGS:
        assert config in text


def test_figure9_renders_all_hardware_check_configs(records):
    data = experiments.figure9(records)
    entry = data["lua"]["fibo"]
    # Paper key names for the original triple, derived names beyond it.
    assert {"typed_hit", "typed_miss", "overflow",
            "chklb_hit", "chklb_miss"} <= set(entry)
    assert entry["%s_hit" % TYPED_CLONE] == entry["typed_hit"]
    assert BASELINE not in {key.split("_")[0] for key in entry}
    text = experiments.render_figure9(data)
    assert "%s_hit" % TYPED_CLONE in text and "chklb_hit" in text


def _record(config, chk_hits, chk_misses, type_hits, type_misses,
            overflow, bytecodes):
    counters = SimpleNamespace(
        chk_hits=chk_hits, chk_misses=chk_misses,
        type_hits=type_hits, type_misses=type_misses,
        overflow_traps=overflow,
        bytecode_counts={"ADD": bytecodes})
    return RunRecord(engine="lua", benchmark="fibo", config=config,
                     scale=1, output="", counters=counters)


def test_figure9_uses_each_configs_own_denominator():
    """Regression: chklb rates were normalised by the *typed* run's
    bytecode count even though the two configs execute different
    dynamic bytecode streams."""
    records = {
        ("lua", "fibo", TYPED): _record(TYPED, 0, 0, 80, 20, 4, 200),
        ("lua", "fibo", CHECKED_LOAD): _record(CHECKED_LOAD, 30, 10,
                                               0, 0, 0, 50),
    }
    entry = experiments.figure9(records)["lua"]["fibo"]
    assert entry["typed_hit"] == pytest.approx(80 / 200)
    assert entry["typed_miss"] == pytest.approx(20 / 200)
    assert entry["overflow"] == pytest.approx(4 / 200)
    # The old bug divided these by 200 (typed's total) instead of 50.
    assert entry["chklb_hit"] == pytest.approx(30 / 50)
    assert entry["chklb_miss"] == pytest.approx(10 / 50)


# -- fault-campaign parity ---------------------------------------------------

def test_campaign_covers_registry_with_identical_fault_sequence(
        typed_clone):
    """Every registered config — the late clone included — faces the
    same abstract seeded fault sequence as the paper's triple; only the
    resolved instruction index differs (it scales with each config's
    golden instruction count)."""
    from repro.faults import run_campaign
    clear_cache()
    report = run_campaign(seed=7, count=5, engines=("lua",),
                          benchmarks=("fibo",), configs=SMOKE_CONFIGS,
                          scales={"fibo": 2}, max_workers=1)
    clear_cache()
    cells = {cell["config"]: cell for cell in report["cells"]}
    assert set(cells) == set(SMOKE_CONFIGS)

    def abstract_sequence(config):
        return [{key: value
                 for key, value in injection["spec"].items()
                 if key != "index"}
                for injection in cells[config]["injections"]]

    reference = abstract_sequence(TYPED)
    assert len(reference) == 5
    for config in SMOKE_CONFIGS:
        assert abstract_sequence(config) == reference
    assert set(report["coverage"]) == set(SMOKE_CONFIGS)


def test_sweep_default_covers_registry(typed_clone):
    assert set(SMOKE_CONFIGS) <= set(all_configs())
