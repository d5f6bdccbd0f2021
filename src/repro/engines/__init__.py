"""Scripting-engine substrates: MiniLua (register VM) and MiniJS (stack VM).

Each engine compiles a language subset to bytecode and interprets it with
hand-written RV64 assembly handlers executed on the simulator, under the
machine configurations enumerated by the tagging-scheme registry
(:mod:`repro.engines.configs`): the paper's ``baseline`` (software type
guards, Figure 1(c)), ``typed`` (the Typed Architecture extension,
Figure 3) and ``chklb`` (the Checked Load comparator), plus ``elided``
(software guards with statically proven checks removed) and any
additionally registered schemes.
"""

from repro.engines.configs import (  # noqa: F401
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
    register_family,
    unregister,
)


def __getattr__(name):
    # ``CONFIGS`` reflects the live registry so late-registered schemes
    # are picked up by every consumer that enumerates it at call time.
    if name == "CONFIGS":
        return all_configs()
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
