"""MSB-first bit packing and order-0 exp-Golomb entropy codes."""

from __future__ import annotations

# A ue prefix longer than this is malformed; the longest legal code is then
# 2 * MAX_UE_ZEROS + 1 bits.
MAX_UE_ZEROS = 64
# Bytes a run read loads at a time.  It reloads once fewer bits than the
# longest legal code remain, and 32 bytes leave at least 249 bits after the
# bit offset, so a reload comes about every 120 bits of codes.
_RUN_WINDOW_BYTES = 32


class BitstreamError(ValueError):
    """Raised when a bitstream is malformed or ends early."""


def signed_to_unsigned(value):
    """Map a signed value onto the non-negative integers (0, -1, 1, -2, ...).

    ``value`` is an int or an integer array, mapped elementwise.
    """
    return 2 * abs(value) - (value < 0)


def unsigned_to_signed(code):
    """Inverse of :func:`signed_to_unsigned`, also on an int or elementwise."""
    return (code >> 1) ^ -(code & 1)


class BitWriter:
    """Accumulates bits MSB-first; the final byte is zero padded."""

    def __init__(self):
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write_bit(self, bit: int) -> None:
        self.write_bits(bit, 1)

    def write_bits(self, value: int, count: int) -> None:
        """Append the low ``count`` bits of ``value`` and flush whole bytes."""
        self._acc = (self._acc << count) | (value & ((1 << count) - 1))
        self._nbits += count
        while self._nbits >= 8:
            self._nbits -= 8
            self._out.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def write_codes(self, values, counts) -> None:
        """Append ``values[i]`` in ``counts[i]`` bits, for every i in order.

        Each value must fit in its count; a ue codeword of ``v`` is ``v + 1``
        in ``2 * (v + 1).bit_length() - 1`` bits.  Whole bytes are flushed
        once, after the last value.
        """
        acc, nbits = self._acc, self._nbits
        for value, count in zip(values, counts):
            acc = (acc << count) | value
            nbits += count
        spare = nbits & 7
        self._out += (acc >> spare).to_bytes(nbits >> 3, "big")
        self._acc = acc & ((1 << spare) - 1)
        self._nbits = spare

    def write_ue(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"ue value must be non-negative, got {value}")
        # value + 1 in 2n - 1 bits: n - 1 leading zeros, then its n significant bits
        self.write_bits(value + 1, 2 * (value + 1).bit_length() - 1)

    def write_se(self, value: int) -> None:
        self.write_ue(signed_to_unsigned(value))

    def getvalue(self) -> bytes:
        out = bytes(self._out)
        if self._nbits:
            out += bytes([self._acc << (8 - self._nbits)])
        return out


class BitReader:
    """Reads bits MSB-first from a bytes object."""

    def __init__(self, data: bytes, start: int = 0):
        self._data = data
        self._pos = 8 * start  # bit position
        self._end = 8 * len(data)

    def padding_is_clean(self) -> bool:
        """True when only zero padding bits of the current byte remain."""
        spare = -self._pos & 7
        return spare == 0 or self._data[self._pos >> 3] & ((1 << spare) - 1) == 0

    def bytes_consumed(self) -> int:
        """Bytes consumed, counting a partially read byte as consumed."""
        return (self._pos + 7) >> 3

    def read_bit(self) -> int:
        pos = self._pos
        if pos >= self._end:
            raise BitstreamError("truncated payload")
        self._pos = pos + 1
        return (self._data[pos >> 3] >> (7 - (pos & 7))) & 1

    def read_ue(self) -> int:
        # a run stops at ue(0) and consumes it, so a run of one is one code
        run = self.read_ue_run(1)
        return run[0] if run else 0

    def read_se(self) -> int:
        return unsigned_to_signed(self.read_ue())

    def read_ue_run(self, limit: int) -> list[int]:
        """ue values up to the first 0, or ``limit`` values when no 0 comes
        first.  The 0 is consumed but not returned.

        This is the one exp-Golomb code reader: ``read_ue`` and ``read_se``
        are runs of one.  The payload is loaded a window of bytes at a time;
        each code's leading zeros are counted in one step with
        ``int.bit_length``.  A prefix of more than ``MAX_UE_ZEROS`` zeros
        raises "malformed exp-Golomb prefix", and a code that runs past the
        payload raises "truncated payload".
        """
        data, end = self._data, self._end
        values: list[int] = []
        # the window holds the ``avail`` bits that end at bit ``stop``; it is
        # reloaded while it may hold less than the longest legal code
        window = avail = 0
        stop = self._pos
        reload_at = 2 * MAX_UE_ZEROS
        for _ in range(limit):
            if avail <= reload_at:
                pos = stop - avail
                chunk = data[pos >> 3 : (pos >> 3) + _RUN_WINDOW_BYTES]
                stop = 8 * ((pos >> 3) + len(chunk))
                avail = stop - pos
                window = int.from_bytes(chunk, "big") & ((1 << avail) - 1)
                if stop >= end:
                    reload_at = -1
            zeros = avail - window.bit_length()
            if zeros > MAX_UE_ZEROS:
                raise BitstreamError("malformed exp-Golomb prefix")
            avail -= zeros + zeros + 1
            if avail < 0:
                raise BitstreamError("truncated payload")
            code = window >> avail
            if code == 1:
                break
            window -= code << avail
            values.append(code - 1)
        self._pos = stop - avail
        return values
