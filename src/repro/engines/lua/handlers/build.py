"""Assemble the full MiniLua interpreter text for one configuration."""

from repro.engines import configs
from repro.engines.lua import layout
from repro.engines.lua.handlers import arith, common, control, table
from repro.sim.trt import pack_rule


def _software_startup(scheme):
    return []


def _typed_startup(scheme):
    """Program the tag extractor (Table 4) and Type Rule Table
    (Table 5) exactly once at launch (Section 3.1)."""
    spr = layout.SPR_SETTINGS
    lines = []
    lines.append("    li a0, %d" % spr.offset)
    lines.append("    setoffset a0")
    lines.append("    li a0, %d" % spr.shift)
    lines.append("    setshift a0")
    lines.append("    li a0, %d" % spr.mask)
    lines.append("    setmask a0")
    for rule in layout.TYPE_RULES:
        lines.append("    li a0, %d" % pack_rule(rule))
        lines.append("    set_trt a0")
    return lines


def _chklb_startup(scheme):
    return ["    li a0, %d" % layout.TNUMINT,
            "    settype a0"]


#: Startup tail per HandlerPolicy.check_mode.
_STARTUP_TAILS = {
    configs.FAMILY_SOFTWARE: _software_startup,
    configs.FAMILY_TYPED: _typed_startup,
    configs.FAMILY_CHECKED: _chklb_startup,
}


def _startup(scheme):
    """Interpreter prologue: load the VM registers (program-specific
    addresses come from the boot block), then the scheme family's
    machine programming (tag extractor / TRT / expected-type register)
    selected by its :class:`~repro.engines.configs.HandlerPolicy`."""
    policy = configs.family_policy(scheme.family)
    try:
        tail = _STARTUP_TAILS[policy.check_mode]
    except KeyError:
        raise ValueError("no Lua startup for mode %r (family %r)"
                         % (policy.check_mode, scheme.family)) from None
    lines = ["startup:"]
    lines.append("    li a0, %d" % layout.BOOT_BLOCK)
    lines.append("    ld s0, %d(a0)" % layout.BOOT_MAIN_CODE)
    lines.append("    ld s2, %d(a0)" % layout.BOOT_MAIN_CONSTS)
    lines.append("    ld s4, %d(a0)" % layout.BOOT_GLOBALS)
    lines.append("    li s1, %d" % layout.REG_STACK_BASE)
    lines.append("    li s3, %d" % layout.JUMP_TABLE_ADDR)
    lines.append("    li s5, %d" % layout.CALL_STACK_BASE)
    lines.append("    li s6, %d" % layout.CALL_STACK_BASE)
    lines.extend(tail(scheme))
    lines.append("    j dispatch")
    return "\n".join(lines) + "\n"


def build_interpreter(config):
    """Full interpreter assembly text for ``config``.

    The text is program-independent: launch addresses are read from the
    boot block the image builder fills, so callers may cache the
    assembled program per configuration.  Families whose policy carries
    ``extra_handlers`` (quickened guard-free variants) get that text
    appended before the shared slow stubs.
    """
    scheme = configs.get_scheme(config)
    policy = configs.family_policy(scheme.family)
    parts = [
        common.equ_block(),
        _startup(scheme),
        common.dispatch_loop(),
        arith.build(scheme),
        table.build(scheme),
        control.build(),
    ]
    if policy.extra_handlers is not None:
        parts.append(policy.extra_handlers("lua", scheme))
    parts += [
        common.slow_stubs(),
        common.error_stub(),
    ]
    return "\n".join(parts)
