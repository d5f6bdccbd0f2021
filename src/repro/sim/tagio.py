"""Tag extraction and insertion logic for ``tld``/``tsd`` (Section 3.3).

The logic is reconfigured by three special-purpose registers:

* ``R_offset`` — which double-word holds the tag (same / next / previous)
  plus an MSB that enables NaN detection for FP-boxed layouts,
* ``R_shift`` — the tag's starting bit within that double-word,
* ``R_mask`` — an 8-bit mask selecting the tag width.

Two concrete configurations matter for the paper (Table 4): Lua's
struct layout (value dword followed by a tag byte in the next dword) and
SpiderMonkey's NaN boxing (tag inside the value dword, guarded by NaN
detection).
"""

from repro.isa.extension import (
    OFFSET_NAN_DETECT,
    TAG_DWORD_DISPLACEMENT,
)
from repro.sim import nanbox

MASK64 = (1 << 64) - 1


class TagCodec:
    """Extract/insert tags per the current special-register settings.

    ``fp_tags`` is the hardware table of FP-subtype tag values used to
    derive the F/I bit (Section 3.1 offers this as one of the two options).
    ``double_tag`` is the tag reported for an unboxed double when NaN
    detection is enabled; ``int_tag`` identifies boxed payloads that should
    be sign-extended from 32 bits (integer payload convention).
    """

    def __init__(self, fp_tags=(), double_tag=0, int_tag=None):
        self.offset = 0
        self.shift = 0
        self.mask = 0xFF
        self.fp_tags = frozenset(fp_tags)
        self.double_tag = double_tag
        self.int_tag = int_tag

    # -- configuration ----------------------------------------------------
    def set_offset(self, value):
        self.offset = value & 0b111

    def set_shift(self, value):
        self.shift = value & 0x3F

    def set_mask(self, value):
        self.mask = value & 0xFF

    #: Fault-injectable configuration fields and their widths in bits —
    #: the three special registers of Section 3.3.
    FIELDS = (("offset", 3), ("shift", 6), ("mask", 8))

    def corrupt(self, field, mask):
        """Fault injection: XOR ``mask`` into one of the extractor
        special registers (``offset``/``shift``/``mask``), re-applying
        the architectural width clamp the setters enforce."""
        if field == "offset":
            self.set_offset(self.offset ^ mask)
        elif field == "shift":
            self.set_shift(self.shift ^ mask)
        elif field == "mask":
            self.set_mask(self.mask ^ mask)
        else:
            raise ValueError("unknown codec field %r" % field)

    @property
    def nan_detect(self):
        return bool(self.offset & OFFSET_NAN_DETECT)

    @property
    def tag_displacement(self):
        """Byte displacement of the tag double-word from the value's."""
        return TAG_DWORD_DISPLACEMENT[self.offset & 0b11]

    def fbit_for(self, tag):
        """F/I bit for ``tag`` per the FP-subtype table."""
        return 1 if tag in self.fp_tags else 0

    # -- tld --------------------------------------------------------------
    def extract(self, value_dword, tag_dword):
        """Return ``(value, tag, fbit)`` for a tagged load.

        ``tag_dword`` is the contents of the tag's double-word; under NaN
        detection it is the value itself and is ignored otherwise when the
        displacement is zero.
        """
        if self.nan_detect:
            if nanbox.is_boxed(value_dword):
                tag = (value_dword >> self.shift) & self.mask
                value = value_dword & nanbox.PAYLOAD_MASK
                if self.int_tag is not None and tag == self.int_tag:
                    value = nanbox.unbox_int32(value_dword) & MASK64
                return value, tag, 0
            return value_dword, self.double_tag, 1
        tag = (tag_dword >> self.shift) & self.mask
        return value_dword, tag, self.fbit_for(tag)

    # -- tsd --------------------------------------------------------------
    def insert(self, value, tag, fbit, old_tag_dword):
        """Return ``(value_dword, tag_dword)`` for a tagged store.

        ``tag_dword`` is ``None`` when no separate tag write is needed
        (NaN-boxed layouts store a single double-word).
        """
        if self.nan_detect:
            if fbit:
                return value & MASK64, None
            boxed = (nanbox.NAN_PREFIX << nanbox.NAN_PREFIX_SHIFT) \
                | ((tag & self.mask) << self.shift) \
                | (value & nanbox.PAYLOAD_MASK)
            return boxed, None
        field = (self.mask & 0xFF) << self.shift
        tag_dword = (old_tag_dword & ~field & MASK64) \
            | ((tag & self.mask) << self.shift)
        return value & MASK64, tag_dword
