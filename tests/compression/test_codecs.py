"""Codec round-trips, ratios and corpus measurement."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.compression import CodecError, DeflateCodec, RleCodec, measure_corpus


class TestRleCodec:
    def test_empty(self):
        codec = RleCodec()
        assert codec.compress(b"") == b""
        assert codec.decompress(b"") == b""

    def test_roundtrip_simple(self):
        codec = RleCodec()
        data = b"aaaaaabbbbbbbcdefggggggg"
        assert codec.decompress(codec.compress(data)) == data

    def test_runs_compress(self):
        codec = RleCodec()
        data = b"a" * 1000
        packed = codec.compress(data)
        assert len(packed) < 20

    def test_incompressible_bounded_overhead(self):
        codec = RleCodec()
        data = bytes(range(256)) * 4
        packed = codec.compress(data)
        assert len(packed) < len(data) * 1.05

    def test_long_run_chunked(self):
        codec = RleCodec()
        data = b"x" * 10_000
        assert codec.decompress(codec.compress(data)) == data

    def test_corrupt_input_raises(self):
        codec = RleCodec()
        with pytest.raises(CodecError):
            codec.decompress(b"\x00")          # truncated header
        with pytest.raises(CodecError):
            codec.decompress(b"\x00\x05")      # missing run byte
        with pytest.raises(CodecError):
            codec.decompress(b"\x01\x05ab")    # short literal
        with pytest.raises(CodecError):
            codec.decompress(b"\x07\x01x")     # unknown tag
        with pytest.raises(CodecError):
            codec.decompress(b"\x00\x00x")     # zero-length chunk

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=2048))
    def test_roundtrip_property(self, data):
        codec = RleCodec()
        assert codec.decompress(codec.compress(data)) == data


class TestDeflateCodec:
    def test_roundtrip(self):
        codec = DeflateCodec()
        data = b"hello world " * 100
        assert codec.decompress(codec.compress(data)) == data

    def test_level_validation(self):
        with pytest.raises(ValueError):
            DeflateCodec(level=10)

    def test_bad_payload(self):
        with pytest.raises(CodecError):
            DeflateCodec().decompress(b"not deflate")

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=2048))
    def test_roundtrip_property(self, data):
        codec = DeflateCodec()
        assert codec.decompress(codec.compress(data)) == data


class TestCorpus:
    def test_measure_reports_ratio(self):
        report = measure_corpus(RleCodec(), [b"a" * 100, b"b" * 100])
        assert report.raw_bytes == 200
        assert report.ratio < 0.2
        assert report.savings_fraction == pytest.approx(1 - report.ratio)

    def test_workload_values_compress_meaningfully(self):
        from repro.workloads import WorkloadGenerator, WorkloadSpec
        spec = WorkloadSpec(record_count=50, value_bytes=500)
        corpus = [v for __, v in WorkloadGenerator(spec).load_items()]
        rle = measure_corpus(RleCodec(), corpus)
        deflate = measure_corpus(DeflateCodec(), corpus)
        assert rle.ratio < 0.95
        assert deflate.ratio < 0.6
