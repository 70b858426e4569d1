"""MSB-first bit packing and order-0 exp-Golomb entropy codes."""

from __future__ import annotations


class BitstreamError(Exception):
    """Raised when a bitstream is malformed or ends early."""


def signed_to_unsigned(value: int) -> int:
    """Map a signed value onto the non-negative integers (0, -1, 1, -2, ...)."""
    return 2 * value if value >= 0 else -2 * value - 1


def unsigned_to_signed(code: int) -> int:
    return code // 2 if code % 2 == 0 else -(code + 1) // 2


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
        self._byte = start
        self._bit = 0

    def padding_is_clean(self) -> bool:
        """True when only zero padding bits of the current byte remain."""
        if self._bit == 0:
            return True
        mask = (1 << (8 - self._bit)) - 1
        return (self._data[self._byte] & mask) == 0

    def bytes_consumed(self) -> int:
        """Bytes consumed, counting a partially read byte as consumed."""
        return self._byte + (1 if self._bit else 0)

    def read_bit(self) -> int:
        if self._byte >= len(self._data):
            raise BitstreamError("truncated payload")
        bit = (self._data[self._byte] >> (7 - self._bit)) & 1
        self._bit += 1
        if self._bit == 8:
            self._bit = 0
            self._byte += 1
        return bit

    def read_bits(self, count: int) -> int:
        value = 0
        for _ in range(count):
            value = (value << 1) | self.read_bit()
        return value

    def read_ue(self) -> int:
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
            if zeros > 64:
                raise BitstreamError("malformed exp-Golomb prefix")
        return ((1 << zeros) | self.read_bits(zeros)) - 1

    def read_se(self) -> int:
        return unsigned_to_signed(self.read_ue())
