"""Compression codecs for the CSS operation class (paper Section 7.2)."""

from .codecs import (
    Codec,
    CodecError,
    CompressionReport,
    DeflateCodec,
    RleCodec,
    measure_corpus,
)

__all__ = [
    "Codec",
    "RleCodec",
    "DeflateCodec",
    "CodecError",
    "CompressionReport",
    "measure_corpus",
]
