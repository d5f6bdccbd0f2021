"""Tag extraction/insertion tests for both paper layouts (Table 4)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.isa.extension import LUA_SPR, SPIDERMONKEY_SPR
from repro.sim import nanbox
from repro.sim.tagio import TagCodec


def lua_codec():
    codec = TagCodec(fp_tags={3})
    codec.set_offset(LUA_SPR.offset)
    codec.set_shift(LUA_SPR.shift)
    codec.set_mask(LUA_SPR.mask)
    return codec


def js_codec():
    codec = TagCodec(double_tag=0, int_tag=1)
    codec.set_offset(SPIDERMONKEY_SPR.offset)
    codec.set_shift(SPIDERMONKEY_SPR.shift)
    codec.set_mask(SPIDERMONKEY_SPR.mask)
    return codec


# -- Lua layout: value dword, tag byte in the next dword ---------------------

def test_lua_displacement_is_next_dword():
    codec = lua_codec()
    assert not codec.nan_detect
    assert codec.tag_displacement == 8


def test_lua_extract():
    codec = lua_codec()
    value, tag, fbit = codec.extract(42, 19)  # int tag 19 in the tag byte
    assert (value, tag, fbit) == (42, 19, 0)
    value, tag, fbit = codec.extract(7, 3)  # float tag 3
    assert fbit == 1


def test_lua_insert_preserves_other_tag_bytes():
    codec = lua_codec()
    old = 0xAABBCCDD_11223344
    value_dword, tag_dword = codec.insert(99, 19, 0, old)
    assert value_dword == 99
    assert tag_dword == (old & ~0xFF) | 19


@given(value=st.integers(0, (1 << 64) - 1), tag=st.integers(0, 255),
       old=st.integers(0, (1 << 64) - 1))
def test_lua_roundtrip(value, tag, old):
    codec = lua_codec()
    value_dword, tag_dword = codec.insert(value, tag, 0, old)
    back_value, back_tag, _ = codec.extract(value_dword, tag_dword)
    assert back_value == value
    assert back_tag == tag


def test_offset_register_is_three_bits():
    """``R_offset`` is the paper's 3-bit register: dword select plus
    the NaN-detect bit."""
    codec = TagCodec()
    codec.set_offset(0b1111)
    assert codec.offset == 0b111
    assert dict(TagCodec.FIELDS)["offset"] == 3


# -- SpiderMonkey layout: NaN boxing ------------------------------------------

def test_js_nan_detect_enabled():
    codec = js_codec()
    assert codec.nan_detect
    assert codec.tag_displacement == 0


def test_js_double_passthrough():
    codec = js_codec()
    bits = nanbox.double_to_bits(3.25)
    value, tag, fbit = codec.extract(bits, bits)
    assert (value, tag, fbit) == (bits, 0, 1)


def test_js_boxed_int_extraction_sign_extends():
    codec = js_codec()
    boxed = nanbox.box_int32(1, -5)
    value, tag, fbit = codec.extract(boxed, boxed)
    assert tag == 1
    assert fbit == 0
    assert value == (-5) & ((1 << 64) - 1)


def test_js_insert_reconstructs_nan_box():
    codec = js_codec()
    value_dword, tag_dword = codec.insert(41, 1, 0, 0)
    assert tag_dword is None  # single-dword store
    assert nanbox.is_boxed(value_dword)
    assert nanbox.boxed_tag(value_dword) == 1
    assert nanbox.unbox_int32(value_dword) == 41


def test_js_insert_double_is_raw_bits():
    codec = js_codec()
    bits = nanbox.double_to_bits(2.5)
    value_dword, tag_dword = codec.insert(bits, 0, 1, 0)
    assert tag_dword is None
    assert value_dword == bits


@given(value=st.integers(-(1 << 31), (1 << 31) - 1))
def test_js_int_roundtrip(value):
    codec = js_codec()
    boxed = nanbox.box_int32(1, value)
    reg_value, tag, fbit = codec.extract(boxed, boxed)
    stored, _ = codec.insert(reg_value, tag, fbit, 0)
    assert nanbox.unbox_int32(stored) == value
    assert nanbox.boxed_tag(stored) == 1


@given(value=st.floats(allow_nan=False))
def test_js_double_roundtrip(value):
    codec = js_codec()
    bits = nanbox.double_to_bits(value)
    reg_value, tag, fbit = codec.extract(bits, bits)
    stored, _ = codec.insert(reg_value, tag, fbit, 0)
    assert nanbox.bits_to_double(stored) == value


@given(tag=st.integers(0, 15), payload=st.integers(0, (1 << 47) - 1))
def test_nanbox_pack_unpack(tag, payload):
    boxed = nanbox.box(tag, payload)
    assert nanbox.is_boxed(boxed)
    assert nanbox.boxed_tag(boxed) == tag
    assert nanbox.boxed_payload(boxed) == payload


def test_real_doubles_are_never_boxed():
    for value in (0.0, -0.0, 1.0, -1.5, 1e308, -1e308, 5e-324):
        assert not nanbox.is_boxed(nanbox.double_to_bits(value))
