"""Architectural constants of the Typed Architecture extension.

This module records the paper's configuration data as machine-readable
constants: the special-purpose registers (Section 3.1), the tag-location
encodings of ``R_offset``, and the per-engine settings of Tables 4 and 5.
The functional behaviour lives in :mod:`repro.sim`.
"""

from dataclasses import dataclass
from enum import Enum


class SpecialRegister(Enum):
    """Special-purpose registers added by the extension."""

    OFFSET = "R_offset"   # 3 bits: tag dword select + NaN-detect
    SHIFT = "R_shift"     # 6 bits: tag start bit within the double-word
    MASK = "R_mask"       # 8 bits: tag extraction mask
    HDL = "R_hdl"         # slow-path (type misprediction handler) address
    CTYPE = "R_ctype"     # Checked Load expected-type register (comparator)


# R_offset low two bits: which double-word holds the tag relative to the
# value's double-word (Section 3.1).
OFFSET_SAME_DWORD = 0b00
OFFSET_NEXT_DWORD = 0b01
OFFSET_PREV_DWORD = 0b11
# R_offset bit 2: enable NaN detection for FP-boxed layouts.
OFFSET_NAN_DETECT = 0b100

# Byte displacement of the tag double-word for each R_offset[1:0] encoding.
TAG_DWORD_DISPLACEMENT = {
    OFFSET_SAME_DWORD: 0,
    OFFSET_NEXT_DWORD: 8,
    OFFSET_PREV_DWORD: -8,
}

TYPE_FIELD_BITS = 8      # width of the register type field
TYPE_UNTYPED = 0xFF      # tag written by untyped instructions
TRT_ENTRIES = 8          # Type Rule Table capacity (Section 7.2)


@dataclass(frozen=True)
class SprSettings:
    """One engine's tag extraction configuration (Table 4)."""

    offset: int  # 3 bits
    shift: int   # 6 bits
    mask: int    # 8 bits

    @property
    def tag_displacement(self):
        return TAG_DWORD_DISPLACEMENT[self.offset & 0b11]


# Table 4: special-purpose register settings.
# Lua: 8-byte value followed by a 1-byte tag in the next double-word.
LUA_SPR = SprSettings(offset=0b001, shift=0b000000, mask=0xFF)
# SpiderMonkey: NaN boxing -- 4-bit tag at bits [50:47] of the same dword.
SPIDERMONKEY_SPR = SprSettings(offset=0b100, shift=0b101111, mask=0x0F)


@dataclass(frozen=True)
class TypeRule:
    """One Type Rule Table entry: (opcode, in1, in2) -> out."""

    opcode: str
    type_in1: int
    type_in2: int
    type_out: int


def arithmetic_rules(int_tag, float_tag):
    """The six arithmetic rules of Table 5 for a given tag encoding."""
    rules = []
    for opcode in ("xadd", "xsub", "xmul"):
        rules.append(TypeRule(opcode, int_tag, int_tag, int_tag))
        rules.append(TypeRule(opcode, float_tag, float_tag, float_tag))
    return rules


def table_access_rules(table_tag, int_tag):
    """The two ``tchk`` rules of Table 5 (Table-Int in either order)."""
    return [
        TypeRule("tchk", table_tag, int_tag, table_tag),
        TypeRule("tchk", int_tag, table_tag, table_tag),
    ]
