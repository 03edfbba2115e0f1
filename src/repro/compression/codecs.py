"""Byte codecs powering the compressed-secondary-storage (CSS) tier.

Paper Section 7.2: Facebook compresses cold data, trading extra CPU per
operation for lower storage cost.  The analytic CSS curve in Figure 8 needs
two inputs — a compression ratio and the added execution cost.  The ratio
is *measured* here: a real run-length codec (written out in full) and the
stdlib DEFLATE codec run over the actual page bytes the workloads produce.
The execution cost is ``CostTable.decompress_per_byte``, priced per page.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterable


class CodecError(ValueError):
    """Raised when a payload cannot be decoded."""


class Codec:
    """Interface: losslessly shrink and restore byte strings."""

    name = "identity"

    def compress(self, data: bytes) -> bytes:
        raise NotImplementedError

    def decompress(self, data: bytes) -> bytes:
        raise NotImplementedError


class RleCodec(Codec):
    """Byte-level run-length encoding with a literal escape.

    Format: a stream of chunks.  ``0x00 <len> <byte>`` encodes a run of
    ``len`` (1-255) copies of ``byte``; ``0x01 <len> <bytes...>`` encodes
    ``len`` literal bytes.  The escape byte values were chosen so typical
    text never needs double-escaping — there is none; everything passes
    through one of the two chunk forms.
    """

    name = "rle"
    _RUN = 0x00
    _LIT = 0x01
    _MAX = 255

    def compress(self, data: bytes) -> bytes:
        if not data:
            return b""
        out = bytearray()
        literals = bytearray()
        index = 0
        n = len(data)
        while index < n:
            byte = data[index]
            run = 1
            while (index + run < n and run < self._MAX
                   and data[index + run] == byte):
                run += 1
            if run >= 4:
                self._flush_literals(out, literals)
                out.extend((self._RUN, run, byte))
                index += run
            else:
                literals.extend(data[index:index + run])
                index += run
                if len(literals) >= self._MAX:
                    self._flush_literals(out, literals)
        self._flush_literals(out, literals)
        return bytes(out)

    def _flush_literals(self, out: bytearray, literals: bytearray) -> None:
        while literals:
            chunk = literals[: self._MAX]
            out.extend((self._LIT, len(chunk)))
            out.extend(chunk)
            del literals[: self._MAX]

    def decompress(self, data: bytes) -> bytes:
        out = bytearray()
        index = 0
        n = len(data)
        while index < n:
            if index + 2 > n:
                raise CodecError("truncated RLE chunk header")
            tag, length = data[index], data[index + 1]
            index += 2
            if length == 0:
                raise CodecError("zero-length RLE chunk")
            if tag == self._RUN:
                if index >= n:
                    raise CodecError("truncated RLE run byte")
                out.extend(bytes([data[index]]) * length)
                index += 1
            elif tag == self._LIT:
                if index + length > n:
                    raise CodecError("truncated RLE literal chunk")
                out.extend(data[index:index + length])
                index += length
            else:
                raise CodecError(f"unknown RLE chunk tag {tag}")
        return bytes(out)


class DeflateCodec(Codec):
    """DEFLATE via the standard library, as a realistic-ratio reference."""

    name = "deflate"

    def __init__(self, level: int = 6) -> None:
        if not 0 <= level <= 9:
            raise ValueError(f"deflate level must be 0-9, got {level}")
        self.level = level

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, data: bytes) -> bytes:
        try:
            return zlib.decompress(data)
        except zlib.error as exc:
            raise CodecError(f"bad deflate payload: {exc}") from exc


@dataclass(frozen=True)
class CompressionReport:
    """Measured outcome of compressing a corpus."""

    raw_bytes: int
    compressed_bytes: int
    codec: str

    @property
    def ratio(self) -> float:
        """compressed / raw, in (0, 1] for effective codecs."""
        if self.raw_bytes == 0:
            return 1.0
        return self.compressed_bytes / self.raw_bytes

    @property
    def savings_fraction(self) -> float:
        return 1.0 - self.ratio


def measure_corpus(codec: Codec, payloads: Iterable[bytes]
                   ) -> CompressionReport:
    """Compress a corpus, verifying round-trips, and report the ratio."""
    raw = 0
    compressed = 0
    for payload in payloads:
        packed = codec.compress(payload)
        if codec.decompress(packed) != payload:
            raise CodecError(
                f"codec {codec.name} failed to round-trip a payload"
            )
        raw += len(payload)
        compressed += len(packed)
    return CompressionReport(raw, compressed, codec.name)
