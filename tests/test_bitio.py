import pytest

from helpers import se_golomb, se_golomb_decode, ue_golomb, ue_golomb_decode
from mvcodec.bitio import (
    BitReader,
    BitstreamError,
    BitWriter,
    signed_to_unsigned,
    unsigned_to_signed,
)


class TestUeGolomb:
    def test_small_codewords(self):
        assert ue_golomb(0) == "1"
        assert ue_golomb(1) == "010"
        assert ue_golomb(2) == "011"
        assert ue_golomb(4) == "00101"

    def test_exhaustive_round_trip(self):
        # one concatenated string per chunk keeps this fast enough to be exhaustive
        for start in range(0, 100_001, 10_000):
            values = list(range(start, min(start + 10_000, 100_001)))
            bits = "".join(ue_golomb(v) for v in values)
            pos = 0
            for v in values:
                got, pos = ue_golomb_decode(bits, pos)
                assert got == v
            assert pos == len(bits)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ue_golomb(-1)

    def test_truncated_decode(self):
        with pytest.raises(BitstreamError):
            ue_golomb_decode("00")
        with pytest.raises(BitstreamError):
            ue_golomb_decode("0010")


class TestSignedMapping:
    def test_mapping_rule(self):
        assert [signed_to_unsigned(v) for v in (0, 1, -1, 2, -2)] == [0, 2, 1, 4, 3]

    def test_round_trip(self):
        for v in range(-300, 301):
            assert unsigned_to_signed(signed_to_unsigned(v)) == v

    def test_se_golomb(self):
        value, _ = se_golomb_decode(se_golomb(-7))
        assert value == -7


class TestBitPacking:
    def test_writer_reader_agree_with_string_codec(self):
        values = [0, 1, 2, 3, 100, 65534, 7, 0, 31]
        w = BitWriter()
        for v in values:
            w.write_ue(v)
        data = w.getvalue()
        # string-level encoder is the reference for the packed bits
        bits = "".join(ue_golomb(v) for v in values)
        bits += "0" * (-len(bits) % 8)
        assert data == bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))
        r = BitReader(data)
        assert [r.read_ue() for _ in values] == values

    def test_signed_round_trip_through_bytes(self):
        values = [0, -1, 1, -128, 127, 4000, -4000]
        w = BitWriter()
        for v in values:
            w.write_se(v)
        r = BitReader(w.getvalue())
        assert [r.read_se() for _ in values] == values

    def test_truncated_payload(self):
        r = BitReader(b"")
        with pytest.raises(BitstreamError, match="truncated"):
            r.read_bit()

    def test_raw_bits_msb_first(self):
        w = BitWriter()
        w.write_bits(0b1011, 4)
        w.write_bits(0b0, 1)
        assert w.getvalue() == bytes([0b10110000])
