"""Assemble the full MiniJS interpreter for one configuration."""

from repro.engines import configs
from repro.engines.js import layout
from repro.engines.js.handlers import arith, common, control, elem
from repro.sim.trt import pack_rule


def _software_startup(scheme):
    return []


def _typed_startup(scheme):
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
    return ["    li a0, %d" % common.CTYPE_INT_UPPER,
            "    settype a0"]


#: Startup tail per HandlerPolicy.check_mode.
_STARTUP_TAILS = {
    configs.FAMILY_SOFTWARE: _software_startup,
    configs.FAMILY_TYPED: _typed_startup,
    configs.FAMILY_CHECKED: _chklb_startup,
}


def _startup(scheme):
    policy = configs.family_policy(scheme.family)
    try:
        tail = _STARTUP_TAILS[policy.check_mode]
    except KeyError:
        raise ValueError("no JS startup for mode %r (family %r)"
                         % (policy.check_mode, scheme.family)) from None
    lines = ["startup:"]
    lines.append("    li a0, %d" % layout.BOOT_BLOCK)
    lines.append("    ld s0, %d(a0)" % layout.BOOT_MAIN_CODE)
    lines.append("    ld s2, %d(a0)" % layout.BOOT_MAIN_CONSTS)
    lines.append("    ld s4, %d(a0)" % layout.BOOT_GLOBALS)
    lines.append("    ld a5, %d(a0)" % layout.BOOT_MAIN_NLOCALS)
    lines.append("    li s1, %d" % layout.STACK_BASE)
    lines.append("    li s3, %d" % layout.JUMP_TABLE_ADDR)
    lines.append("    li s5, %d" % layout.CALL_STACK_BASE)
    lines.append("    li s6, %d" % layout.CALL_STACK_BASE)
    # Operand stack starts empty below the frame; main's locals are
    # pushed as undefined.
    lines.append("    addi s7, s1, -8")
    lines.append("    li a4, %d" % common.SIG_UNDEF)
    lines.append("    slli a4, a4, 47")
    lines.append("startup_initloop:")
    lines.append("    beqz a5, startup_initdone")
    lines.append("    addi s7, s7, 8")
    lines.append("    sd a4, 0(s7)")
    lines.append("    addi a5, a5, -1")
    lines.append("    j startup_initloop")
    lines.append("startup_initdone:")
    lines.extend(tail(scheme))
    lines.append("    j dispatch")
    return "\n".join(lines) + "\n"


def build_interpreter(config):
    """Full interpreter text for ``config`` (program-independent).
    Families whose policy carries ``extra_handlers`` (quickened
    guard-free variants) get that text appended before the shared slow
    stubs."""
    scheme = configs.get_scheme(config)
    policy = configs.family_policy(scheme.family)
    parts = [
        common.equ_block(),
        _startup(scheme),
        common.dispatch_loop(),
        arith.build(scheme),
        elem.build(scheme),
        control.build(),
    ]
    if policy.extra_handlers is not None:
        parts.append(policy.extra_handlers("js", scheme))
    parts += [
        common.slow_stubs(),
        common.error_stub(),
    ]
    return "\n".join(parts)
