"""The tagging-scheme registry: machine configurations as data.

The paper evaluates exactly three configurations (baseline / chklb /
typed).  This module generalises that triple into a registry of
*tagging schemes*: each entry declares a name and which check
instructions the handlers use (the scheme *family*).  The tag extractor
is always programmed with the engine's Table 4 geometry.

Beyond the paper's triple the registry ships ``elided``: software
guards with the static tag-inference pass (``repro.analysis``) eliding
the checks it proves redundant.

Adding a scheme is a call to :func:`register`; every consumer (sweep,
figures, fault campaigns, serve warm sets, CLI ``--config``) enumerates
the registry dynamically.  The performance gate alone stays pinned to
:data:`GATE_CONFIGS` so committed baselines remain comparable — new
schemes are gate-exempt until a new baseline is committed.
"""

from dataclasses import dataclass

# Canonical configuration names.  The first three are the paper's triple.
BASELINE = "baseline"
TYPED = "typed"
CHECKED_LOAD = "chklb"
ELIDED = "elided"

#: The paper's triple, in the order the committed gate baseline stores
#: them.  ``bench/gate.py`` pins its metric collection to this tuple so
#: results stay comparable against ``benchmarks/results/baseline.json``;
#: everything else enumerates :func:`all_configs`.
GATE_CONFIGS = (BASELINE, CHECKED_LOAD, TYPED)

# Scheme families: which check instructions the handlers are built with.
FAMILY_SOFTWARE = "software"   # Figure 1(c) software guard chains
FAMILY_TYPED = "typed"         # tld/thdl/xadd/tchk/tsd (Figure 3)
FAMILY_CHECKED = "chklb"       # Checked Load comparator (chklb/chklw)
FAMILY_ELIDED = "elided"       # software guards, statically elided


@dataclass(frozen=True)
class HandlerPolicy:
    """How both engines build an interpreter for one scheme family.

    The engine builders (``engines/*/handlers/build.py``) consult the
    policy instead of switching on ``scheme.family`` directly, so a new
    family registers here once and every engine, sweep, figure and
    fault campaign picks it up without per-engine edits.

    ``check_mode`` selects which of the engines' guard flavours and
    startup fragments the *standard* handlers use (one of the
    paper-triple families).  The optional hooks extend the
    build: ``quicken(engine, chunk)`` runs after compilation and may
    rewrite bytecode in place; ``quickened_ops(engine)`` names the
    extra opcodes the rewrite may emit (``{opcode: name}`` — sizes the
    jump table and extends handler attribution); ``extra_handlers
    (engine, scheme)`` returns assembly text appended to the
    interpreter for those opcodes.
    """

    family: str
    description: str
    check_mode: str = FAMILY_SOFTWARE
    quicken: object = None
    quickened_ops: object = None
    extra_handlers: object = None


_POLICIES = {}


def register_family(policy):
    """Add a :class:`HandlerPolicy`.  Duplicate families are rejected."""
    if not isinstance(policy, HandlerPolicy):
        raise TypeError("expected a HandlerPolicy, got %r" % (policy,))
    if policy.family in _POLICIES:
        raise ValueError("scheme family %r is already registered"
                         % policy.family)
    _POLICIES[policy.family] = policy
    return policy


def family_policy(family):
    """Look up the :class:`HandlerPolicy` for a scheme family."""
    try:
        return _POLICIES[family]
    except KeyError:
        raise ValueError("unknown scheme family %r (registered: %s)"
                         % (family, ", ".join(_POLICIES))) from None


def all_families():
    """Registered family names, in registration order."""
    return tuple(_POLICIES)


register_family(HandlerPolicy(
    family=FAMILY_SOFTWARE,
    description="software guard chains on every dispatch (Figure 1(c))",
))

register_family(HandlerPolicy(
    family=FAMILY_TYPED,
    description="hardware tagged ISA: tld/thdl/xadd/tchk/tsd (Figure 3)",
    check_mode=FAMILY_TYPED,
))

register_family(HandlerPolicy(
    family=FAMILY_CHECKED,
    description="Checked Load comparator guards (chklb/chklw)",
    check_mode=FAMILY_CHECKED,
))


def _elided_quicken(engine, chunk):
    from repro.analysis import quicken_chunk
    return quicken_chunk(engine, chunk)


def _elided_quickened_ops(engine):
    from repro.analysis.quickening import quickened_ops
    return quickened_ops(engine)


def _elided_extra_handlers(engine, scheme):
    if engine == "lua":
        from repro.engines.lua.handlers import elided
    elif engine == "js":
        from repro.engines.js.handlers import elided
    else:
        raise ValueError("unknown engine %r" % (engine,))
    return elided.build(scheme)


register_family(HandlerPolicy(
    family=FAMILY_ELIDED,
    description=("software guards statically elided where the tag-"
                 "inference proof holds (repro.analysis)"),
    quicken=_elided_quicken,
    quickened_ops=_elided_quickened_ops,
    extra_handlers=_elided_extra_handlers,
))


@dataclass(frozen=True)
class TaggingScheme:
    """One registered machine configuration."""

    name: str
    description: str
    family: str

    def __post_init__(self):
        if self.family not in _POLICIES:
            raise ValueError("unknown scheme family %r (registered: %s)"
                             % (self.family, ", ".join(_POLICIES)))

    @property
    def hardware_checks(self):
        """Whether the handlers use hardware type checks (typed or
        chklb families) rather than software guards."""
        return family_policy(self.family).check_mode != FAMILY_SOFTWARE


# -- registry ----------------------------------------------------------------

_REGISTRY = {}


def register(scheme):
    """Add ``scheme`` to the registry.  Duplicate names are rejected."""
    if not isinstance(scheme, TaggingScheme):
        raise TypeError("expected a TaggingScheme, got %r" % (scheme,))
    if scheme.name in _REGISTRY:
        raise ValueError("config %r is already registered" % scheme.name)
    _REGISTRY[scheme.name] = scheme
    return scheme


def unregister(name):
    """Remove a scheme (test hook; the built-ins should stay put)."""
    _REGISTRY.pop(name, None)


def get_scheme(name):
    """Look up a scheme by configuration name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError("unknown config %r (registered: %s)"
                         % (name, ", ".join(_REGISTRY))) from None


def is_registered(name):
    return name in _REGISTRY


def all_configs():
    """Registered configuration names, in registration order."""
    return tuple(_REGISTRY)


def all_schemes():
    return tuple(_REGISTRY.values())


def hardware_check_configs():
    """Configs whose scheme uses hardware type checks (typed or chklb
    families) — the set the fault-campaign detection summary covers."""
    return tuple(s.name for s in _REGISTRY.values() if s.hardware_checks)


# -- built-in schemes --------------------------------------------------------

register(TaggingScheme(
    name=BASELINE,
    description="software type guards (Figure 1(c))",
    family=FAMILY_SOFTWARE,
))

register(TaggingScheme(
    name=CHECKED_LOAD,
    description="Checked Load comparator (chklb/chklw)",
    family=FAMILY_CHECKED,
))

register(TaggingScheme(
    name=TYPED,
    description="Typed Architecture extension (Figure 3, Table 4 geometry)",
    family=FAMILY_TYPED,
))

# The gradual-typing rival: software guards, but the static
# tag-inference pass (repro/analysis/) quickens proven-stable sites to
# guard-free handler variants.  Gate-exempt like every post-baseline
# scheme.
register(TaggingScheme(
    name=ELIDED,
    description=("software guards with static tag inference eliding "
                 "proven checks (transient gradual typing)"),
    family=FAMILY_ELIDED,
))
