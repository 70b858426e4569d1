import numpy as np
import pytest

from helpers import read_bits, se_golomb, se_golomb_decode, ue_golomb, ue_golomb_decode
from mvcodec.bitio import (
    BitReader,
    BitstreamError,
    BitWriter,
    signed_to_unsigned,
    unsigned_to_signed,
)
from mvcodec.transform import LEVEL_LIMIT


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

    def test_int_and_array_forms_agree(self):
        values = np.arange(-LEVEL_LIMIT, LEVEL_LIMIT + 1, dtype=np.int32)
        codes = signed_to_unsigned(values)
        assert codes.tolist() == [signed_to_unsigned(v) for v in values.tolist()]
        back = unsigned_to_signed(codes)
        assert back.tolist() == [unsigned_to_signed(c) for c in codes.tolist()]
        assert np.array_equal(back, values)

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


def _pack(bits: str) -> bytes:
    """Bit string to bytes, zero padded to a whole byte."""
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


def _bits(writer: BitWriter) -> str:
    return "".join(f"{b:08b}" for b in writer.getvalue())


# a mix of short codes, codes around the 64-bit window and the longest
# legal level code: ue(65535) is 16 zeros and 17 significant bits
VALUES = [0, 5, 1, 2**31, 300, 0, 65535, 7, 2**40 + 3, 2**63, 12, 65534, 1, 0]


class TestBitReaderWindow:
    @pytest.mark.parametrize("offset", range(8))
    def test_ue_codes_at_every_start_offset(self, offset):
        bits = "1" * offset + "".join(ue_golomb(v) for v in VALUES)
        reader = BitReader(_pack(bits))
        assert read_bits(reader, offset) == 2**offset - 1
        pos = offset
        for v in VALUES:
            expected, pos = ue_golomb_decode(bits, pos)
            assert reader.read_ue() == expected == v
            assert reader.bytes_consumed() == (pos + 7) // 8

    @pytest.mark.parametrize("offset", range(8))
    def test_runs_at_every_start_offset(self, offset):
        # a run stops after its 0 value, the next run starts right after it
        values = [3, 65535, 2**62, 1, 0, 9, 0, 4, 2**33]
        bits = "0" * offset + "".join(ue_golomb(v) for v in values)
        reader = BitReader(_pack(bits))
        read_bits(reader, offset)
        assert reader.read_ue_run(16) == [3, 65535, 2**62, 1]
        assert reader.read_ue_run(16) == [9]
        assert reader.read_ue_run(2) == [4, 2**33]
        assert reader.bytes_consumed() == (len(bits) + 7) // 8

    def test_run_stops_at_its_limit_without_reading_on(self):
        bits = "".join(ue_golomb(v) for v in (1, 2, 3, 0))
        reader = BitReader(_pack(bits))
        assert reader.read_ue_run(3) == [1, 2, 3]
        assert reader.read_ue() == 0

    def test_codes_across_window_reloads(self):
        # long runs of long codes make every code cross some window edge
        rng = np.random.default_rng(4)
        values = [int(v) for v in rng.integers(1, 2**62, size=300)]
        values += [int(v) for v in rng.integers(1, 70000, size=300)]
        for shift in range(0, 130, 13):
            bits = "1" * shift + "".join(ue_golomb(v) for v in values)
            reader = BitReader(_pack(bits))
            read_bits(reader, shift)
            got = reader.read_ue_run(len(values))
            assert got == values
            reader = BitReader(_pack(bits))
            read_bits(reader, shift)
            assert [reader.read_ue() for _ in values] == values

    def test_longest_legal_level_code(self):
        w = BitWriter()
        w.write_ue(65535)
        assert _bits(w) == ue_golomb(65535) + "0" * 7
        assert len(ue_golomb(65535)) == 33
        assert BitReader(w.getvalue()).read_ue() == 65535
        assert BitReader(w.getvalue()).read_ue_run(1) == [65535]

    def test_longest_legal_prefix(self):
        # 64 zeros are legal, 65 are not
        value = 2**65 - 2
        bits = ue_golomb(value)
        assert bits.startswith("0" * 64 + "1")
        assert BitReader(_pack(bits)).read_ue() == value
        assert BitReader(_pack(bits)).read_ue_run(1) == [value]
        data = _pack("0" * 65 + "1" * 80)
        with pytest.raises(BitstreamError, match="malformed"):
            BitReader(data).read_ue()
        with pytest.raises(BitstreamError, match="malformed"):
            BitReader(data).read_ue_run(4)

    @pytest.mark.parametrize("offset", range(8))
    def test_prefix_of_more_than_64_zeros_is_malformed(self, offset):
        data = _pack("1" * offset + "0" * 100 + "1")
        for read in (lambda r: r.read_ue(), lambda r: r.read_ue_run(64)):
            reader = BitReader(data)
            read_bits(reader, offset)
            with pytest.raises(BitstreamError, match="malformed"):
                read(reader)

    @pytest.mark.parametrize("value", [1, 6, 65535, 2**40])
    def test_code_truncated_mid_way(self, value):
        bits = "1" + ue_golomb(value)
        for cut in range(2, len(bits)):
            with pytest.raises(BitstreamError, match="truncated"):
                ue_golomb_decode(bits[:cut], 1)
            # the zero padding of the last byte may complete a shorter code
            data = _pack(bits[:cut])
            try:
                expected = ue_golomb_decode("".join(f"{b:08b}" for b in data), 1)[0]
            except BitstreamError:
                expected = None
            reader = BitReader(data)
            reader.read_bit()
            run = BitReader(data)
            run.read_bit()
            if expected is None:
                with pytest.raises(BitstreamError, match="truncated"):
                    reader.read_ue()
                with pytest.raises(BitstreamError, match="truncated"):
                    run.read_ue_run(1)
            else:
                assert reader.read_ue() == expected
                assert run.read_ue_run(1) == ([expected] if expected else [])

    def test_empty_payload_is_truncated(self):
        for read in (BitReader.read_ue, lambda r: r.read_ue_run(4), lambda r: read_bits(r, 3)):
            with pytest.raises(BitstreamError, match="truncated"):
                read(BitReader(b""))
        assert BitReader(b"").read_ue_run(0) == []

    @pytest.mark.parametrize("offset", range(8))
    def test_padding_and_bytes_consumed_at_each_offset(self, offset):
        reader = BitReader(_pack("1" * offset))
        read_bits(reader, offset)
        assert reader.padding_is_clean()
        assert reader.bytes_consumed() == (offset + 7) // 8
        dirty = BitReader(_pack("1" * offset + "1"))
        read_bits(dirty, offset)
        assert dirty.padding_is_clean() == (offset == 0)
        # a start offset counts whole bytes before the payload
        shifted = BitReader(b"\xff\xff" + _pack("0" * offset + "1"), start=2)
        read_bits(shifted, offset)
        assert shifted.bytes_consumed() == 2 + (offset + 7) // 8
        assert shifted.padding_is_clean() == (offset == 0)
        assert shifted.read_bit() == 1
        assert shifted.padding_is_clean()
        assert shifted.bytes_consumed() == 3


class TestWriteCodes:
    def test_matches_one_write_ue_per_value(self):
        rng = np.random.default_rng(6)
        values = [int(v) for v in rng.integers(0, 70000, size=200)]
        one = BitWriter()
        one.write_bits(0b101, 3)
        for v in values:
            one.write_ue(v)
        batched = BitWriter()
        batched.write_bits(0b101, 3)
        for chunk in (values[:1], values[1:77], [], values[77:]):
            counts = [2 * (v + 1).bit_length() - 1 for v in chunk]
            batched.write_codes([v + 1 for v in chunk], counts)
        assert batched.getvalue() == one.getvalue()
