"""Tests for the tagging-scheme registry (repro.engines.configs)."""

import pytest

from repro.engines import (
    BASELINE,
    CHECKED_LOAD,
    ELIDED,
    GATE_CONFIGS,
    TYPED,
    all_configs,
    all_families,
    all_schemes,
    family_policy,
    get_scheme,
    hardware_check_configs,
    is_registered,
    register,
    unregister,
)
from repro.engines.configs import (
    FAMILY_SOFTWARE,
    FAMILY_TYPED,
    TaggingScheme,
)
from repro.engines.js import layout as js_layout
from repro.engines.js import vm as js_vm
from repro.engines.lua import layout as lua_layout
from repro.engines.lua import vm as lua_vm
from repro.sim.trt import TRT_OPCODES


def _scheme(name, **kwargs):
    kwargs.setdefault("description", "test scheme")
    kwargs.setdefault("family", FAMILY_TYPED)
    return TaggingScheme(name=name, **kwargs)


# -- registry mechanics ------------------------------------------------------

def test_builtins_registered_in_order():
    configs = all_configs()
    assert configs == (BASELINE, CHECKED_LOAD, TYPED, ELIDED)
    assert [s.name for s in all_schemes()] == list(configs)


def test_gate_configs_pinned_to_paper_triple():
    assert GATE_CONFIGS == (BASELINE, CHECKED_LOAD, TYPED)
    assert ELIDED not in GATE_CONFIGS


def test_hardware_check_configs_excludes_baseline():
    assert hardware_check_configs() == (CHECKED_LOAD, TYPED)


def test_hardware_checks_follow_family_check_mode():
    for family in all_families():
        scheme = _scheme("probe", family=family)
        assert scheme.hardware_checks \
            == (family_policy(family).check_mode != FAMILY_SOFTWARE)


def test_register_and_unregister():
    scheme = _scheme("unit-test-scheme")
    register(scheme)
    try:
        assert is_registered("unit-test-scheme")
        assert get_scheme("unit-test-scheme") is scheme
        assert all_configs()[-1] == "unit-test-scheme"
    finally:
        unregister("unit-test-scheme")
    assert not is_registered("unit-test-scheme")


def test_duplicate_name_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register(_scheme(TYPED))


def test_register_requires_tagging_scheme():
    with pytest.raises(TypeError):
        register("typed-2")


def test_get_scheme_unknown_name():
    with pytest.raises(ValueError, match="unknown config"):
        get_scheme("no-such-config")


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown scheme family"):
        _scheme("bad-family", family="quantum")


# -- family policies ---------------------------------------------------------

def test_duplicate_family_rejected():
    from repro.engines.configs import HandlerPolicy, register_family
    with pytest.raises(ValueError, match="already registered"):
        register_family(HandlerPolicy(family=FAMILY_SOFTWARE,
                                      description="duplicate"))


def test_family_registry_contents():
    from repro.engines.configs import FAMILY_CHECKED, FAMILY_ELIDED
    assert set(all_families()) == {FAMILY_SOFTWARE, FAMILY_TYPED,
                                   FAMILY_CHECKED, FAMILY_ELIDED}
    with pytest.raises(ValueError, match="unknown scheme family"):
        family_policy("quantum")
    # The elided family is the software interpreter plus the quickening
    # hooks; every other built-in family leaves them unset.
    elided = family_policy(FAMILY_ELIDED)
    assert elided.check_mode == FAMILY_SOFTWARE
    assert callable(elided.quicken)
    assert callable(elided.quickened_ops)
    assert callable(elided.extra_handlers)
    for family in (FAMILY_SOFTWARE, FAMILY_TYPED, FAMILY_CHECKED):
        assert family_policy(family).quicken is None


def test_elided_scheme_registered_and_gate_exempt():
    from repro.engines.configs import FAMILY_ELIDED
    scheme = get_scheme(ELIDED)
    assert scheme.family == FAMILY_ELIDED
    assert not scheme.hardware_checks
    assert ELIDED not in GATE_CONFIGS
    assert ELIDED in all_configs()
    assert ELIDED not in hardware_check_configs()


def test_register_family_requires_policy_type():
    from repro.engines.configs import register_family
    with pytest.raises(TypeError):
        register_family("elided-2")


def test_live_configs_view_through_engines_module():
    import repro.engines as engines
    before = engines.CONFIGS
    register(_scheme("late-view-scheme"))
    try:
        assert "late-view-scheme" in engines.CONFIGS
        assert "late-view-scheme" not in before
    finally:
        unregister("late-view-scheme")


# -- extractor geometry ------------------------------------------------------

def test_default_scheme_uses_table4_geometry():
    """The typed startup programs each engine's Table 4 extractor
    geometry and loads its Table 5 rules into the TRT unchanged."""
    for vm, layout in ((lua_vm, lua_layout), (js_vm, js_layout)):
        cpu, _runtime, _program = vm.prepare("print(1);", TYPED)
        cpu.run()
        spr = layout.SPR_SETTINGS
        codec = cpu.codec
        assert (codec.offset, codec.shift, codec.mask) \
            == (spr.offset, spr.shift, spr.mask)
        assert cpu.trt.snapshot()["rules"] == {
            (TRT_OPCODES[rule.opcode], rule.type_in1, rule.type_in2):
                rule.type_out
            for rule in layout.TYPE_RULES}


# -- downstream validation ---------------------------------------------------

def test_api_validation_tracks_registry():
    from repro import api
    from repro.schema import SchemaError
    request = api.ExecutionRequest(op="run", engine="lua",
                                   source="print(1)",
                                   config="late-api-scheme")
    with pytest.raises(SchemaError, match="unknown config"):
        request.validate()
    register(_scheme("late-api-scheme", family=FAMILY_SOFTWARE))
    try:
        request.validate()
    finally:
        unregister("late-api-scheme")


def test_cli_config_choices_resolve_at_parse_time():
    """Regression: ``--config`` used ``choices=CONFIGS`` captured at
    import time, so schemes registered later were rejected."""
    from repro.cli import build_parser
    parser = build_parser()   # built *before* the scheme exists
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "fibo", "--config", "late-cli-scheme"])
    register(_scheme("late-cli-scheme"))
    try:
        args = parser.parse_args(["run", "fibo", "--config",
                                  "late-cli-scheme"])
        assert args.config == "late-cli-scheme"
    finally:
        unregister("late-cli-scheme")
