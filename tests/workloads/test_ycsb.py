"""YCSB-style workload specs, generation and application to stores."""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bwtree import BwTree, BwTreeConfig
from repro.hardware import Machine
from repro.workloads import (
    OpKind,
    WorkloadGenerator,
    WorkloadSpec,
    apply_operations,
)

from ..frames import count_calls

MIXES = ("ycsb_a", "ycsb_b", "ycsb_c")
DISTRIBUTIONS = ("uniform", "scrambled")
VALUE_BYTES = (0, 1, 7, 100, 257)
#: Both seeds roll a 5% op kind in the first 24 ops, and 15 also after.
SEEDS = (7, 15)

#: sha256 of every (mix, distribution, value size, seed) stream of a mix,
#: in that order: :func:`stream_digest` of 16 records and 24 + 8 ops.
GOLDEN_MIXES = {
    "ycsb_a":
        "c1517a829e1cc63c49db414604dbc9d6e265210a1d303587fa9aa9681b0348fc",
    "ycsb_b":
        "9011051768c6815676127091bcb89e5f99d1c0d73be48abdee97f3b75b5ac1e9",
    "ycsb_c":
        "eda44b423d955aeedca0e462055370eda361f679ce48f991732ea79cd3dca679",
}

#: The e2e benchmark's four specs at a tenth of their records and of
#: their warm-up + measured ops, seed 42: (builder, records, ops, sha256).
GOLDEN_E2E = [
    ("ycsb_c", 3000, 33000,                     # read_hot
     "3c16eb513d2cf2b80575814823d2b41b0de0532ea11709205308d334278d0e6c"),
    ("ycsb_c", 4000, 10000,                     # read_cold
     "b9760de0045786d79e8d4883069f69c512092e5b78a8b45c478cb1f426612eda"),
    ("ycsb_a", 2000, 8960,                      # update_batched
     "0fb153b41ce0915dd53523c9976051645a9ba1866fb567f2b9ed3764ae61d480"),
    ("ycsb_a", 1600, 8960,                      # fleet_async
     "2b9f99c4709adad02355e9f0707e74610650b9e8b136f9009db0d02a737afe1d"),
]

_TAGS = {OpKind.READ: b"R", OpKind.UPDATE: b"U"}


def stream_digest(spec: WorkloadSpec, ops: int, more_ops: int = 0) -> str:
    """sha256 of the load items, ``ops`` ops, one more value and then
    ``more_ops`` ops, all from one generator."""
    generator = WorkloadGenerator(spec)
    digest = hashlib.sha256()
    update = digest.update
    for key, value in generator.load_items():
        update(b"%b=%b;" % (key, value))

    def absorb(count: int) -> None:
        for op in generator.operations(count):
            value = b"-" if op.value is None else b"=" + op.value
            # The byte format keeps a scan-length slot, always 0.
            update(b"%b%b%b0;" % (_TAGS[op.kind], op.key, value))

    absorb(ops)
    update(b"V%b;" % generator.make_value())
    absorb(more_ops)
    return digest.hexdigest()


def mix_digest(mix: str) -> str:
    combined = hashlib.sha256()
    for distribution in DISTRIBUTIONS:
        for value_bytes in VALUE_BYTES:
            for seed in SEEDS:
                spec = getattr(WorkloadSpec, mix)(
                    record_count=16, distribution=distribution,
                    value_bytes=value_bytes, seed=seed)
                combined.update(stream_digest(spec, 24, 8).encode())
    return combined.hexdigest()


class TestGoldenStream:
    """The stream is pinned draw for draw: any change to what a seed
    generates (a key, a value byte, an op kind, or the order the
    generators draw in) changes a digest here.  CI runs them
    on every Python version it tests, so they also show that the stream
    does not depend on the interpreter."""

    @pytest.mark.parametrize("mix", MIXES)
    def test_every_mix_distribution_and_value_size(self, mix):
        assert mix_digest(mix) == GOLDEN_MIXES[mix]

    def test_the_e2e_specs_at_a_tenth(self):
        for builder, records, ops, expected in GOLDEN_E2E:
            spec = getattr(WorkloadSpec, builder)(record_count=records,
                                                  seed=42)
            assert stream_digest(spec, ops) == expected, (builder, records)


class TestSpec:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadSpec(read_fraction=0.5, update_fraction=0.6)

    def test_standard_mixes(self):
        assert WorkloadSpec.ycsb_a().update_fraction == 0.5
        assert WorkloadSpec.ycsb_b().read_fraction == 0.95
        assert WorkloadSpec.ycsb_c().read_fraction == 1.0

    def test_record_count_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(record_count=0)

    @pytest.mark.parametrize("name, value", [
        ("record_count", 10.5), ("record_count", True), ("record_count", "9"),
        ("value_bytes", math.nan), ("value_bytes", 10.5),
        ("value_bytes", True), ("value_bytes", None),
    ])
    def test_a_size_that_is_no_int_is_refused_by_name(self, name, value):
        """A NaN or 10.5 ``value_bytes`` and a 10.5 ``record_count`` used
        to fail only deep inside generation, and ``value_bytes=True``
        built 1-byte values."""
        with pytest.raises(ValueError, match=name):
            WorkloadSpec(**{name: value})

    @pytest.mark.parametrize("fields, name", [
        (dict(read_fraction=math.nan, update_fraction=0.0), "read_fraction"),
        (dict(read_fraction=1.5, update_fraction=-0.5), "read_fraction"),
        (dict(read_fraction=0.5, update_fraction=math.nan),
         "update_fraction"),
        (dict(read_fraction=-0.5, update_fraction=1.5), "read_fraction"),
    ])
    def test_a_fraction_outside_zero_to_one_is_refused_by_name(self, fields,
                                                               name):
        """A NaN or negative fraction used to pass the sum check and
        change the op mix without an error."""
        with pytest.raises(ValueError, match=name):
            WorkloadSpec(**fields)


class TestGenerator:
    def test_load_items_count_and_keys(self):
        spec = WorkloadSpec(record_count=100, value_bytes=50)
        items = list(WorkloadGenerator(spec).load_items())
        assert len(items) == 100
        assert items[0][0] == b"user0000000000"
        assert all(len(value) == 50 for __, value in items)

    def test_values_deterministic_per_seed(self):
        spec = WorkloadSpec(record_count=10, seed=3)
        a = list(WorkloadGenerator(spec).load_items())
        b = list(WorkloadGenerator(spec).load_items())
        assert a == b

    def test_values_compressible(self):
        import zlib
        spec = WorkloadSpec(record_count=20, value_bytes=500)
        generator = WorkloadGenerator(spec)
        raw = b"".join(v for __, v in generator.load_items())
        assert len(zlib.compress(raw)) < len(raw) * 0.8

    def test_operation_mix_matches_fractions(self):
        spec = WorkloadSpec(record_count=1000, read_fraction=0.7,
                            update_fraction=0.3, seed=5)
        ops = list(WorkloadGenerator(spec).operations(5000))
        reads = sum(1 for op in ops if op.kind is OpKind.READ)
        assert 0.65 < reads / 5000 < 0.75
        assert all(op.kind in (OpKind.READ, OpKind.UPDATE) for op in ops)

    def test_generated_keys_within_inserted_range(self):
        spec = WorkloadSpec(record_count=50, distribution="uniform")
        generator = WorkloadGenerator(spec)
        for op in generator.operations(500):
            index = int(op.key[len(spec.key_prefix):])
            assert index < 50

    def test_two_reads_of_one_index_are_one_object(self):
        generator = WorkloadGenerator(WorkloadSpec.ycsb_c(record_count=10,
                                                          seed=5))
        ops = list(generator.operations(200))
        assert len({id(op) for op in ops}) == len({op.key for op in ops})

    def test_an_update_is_a_fresh_op_on_the_shared_key(self):
        generator = WorkloadGenerator(WorkloadSpec.ycsb_a(record_count=4,
                                                          seed=5))
        ops = list(generator.operations(200))
        updates = [op for op in ops if op.kind is OpKind.UPDATE]
        assert len(updates) > 50
        assert len({id(op) for op in updates}) == len(updates)
        for op in ops:
            index = int(op.key[len(b"user"):])
            assert op.key is generator.key_for(index)

    def test_two_records_build_a_scrambled_stream(self):
        """Two items made the Zipfian's ``eta`` 0 / 0, so a two-record
        spec raised ``ZeroDivisionError`` when its generator was built."""
        generator = WorkloadGenerator(WorkloadSpec(record_count=2))
        keys = {op.key for op in generator.operations(100)}
        assert keys <= {generator.key_for(0), generator.key_for(1)}


class TestApplyOperations:
    @pytest.fixture
    def loaded(self, machine: Machine):
        spec = WorkloadSpec(record_count=500, value_bytes=60, seed=11)
        tree = BwTree(machine, BwTreeConfig(segment_bytes=1 << 16))
        generator = WorkloadGenerator(spec)
        for key, value in generator.load_items():
            tree.upsert(key, value)
        return tree, spec

    def test_reads_all_found(self, loaded):
        tree, spec = loaded
        ops = list(WorkloadGenerator(spec).operations(500))
        assert {op.kind for op in ops} == {OpKind.READ}   # ycsb-c default
        stats = apply_operations(tree, iter(ops))
        assert stats.operations == 500
        assert all(tree.get(op.key) is not None for op in ops)

    def test_mixed_stats_counted(self, loaded):
        tree, __ = loaded
        spec = WorkloadSpec(record_count=500, read_fraction=0.6,
                            update_fraction=0.4, seed=11)
        ops = list(WorkloadGenerator(spec).operations(400))
        assert {op.kind for op in ops} == {OpKind.READ, OpKind.UPDATE}
        stats = apply_operations(tree, iter(ops))
        assert stats.operations == 400
        latest = {op.key: op.value for op in ops if op.kind is OpKind.UPDATE}
        assert all(tree.get(key) == value for key, value in latest.items())

    def test_ss_fraction_zero_when_cached(self, loaded):
        tree, spec = loaded
        generator = WorkloadGenerator(spec)
        stats = apply_operations(tree, generator.operations(300))
        assert stats.ss_fraction == 0.0

    def test_ss_fraction_positive_when_cold(self, machine):
        spec = WorkloadSpec(record_count=1000, value_bytes=100, seed=11)
        tree = BwTree(machine, BwTreeConfig(
            cache_capacity_bytes=16 * 1024, segment_bytes=1 << 16,
        ))
        generator = WorkloadGenerator(spec)
        for key, value in generator.load_items():
            tree.upsert(key, value)
        tree.checkpoint()
        tree.store.flush()
        stats = apply_operations(tree, generator.operations(300))
        assert stats.ss_fraction > 0.3
        assert stats.ios >= stats.ss_operations


class TestFrames:
    def test_a_warmed_ycsb_c_op_enters_two_repro_frames_and_no_init(self):
        """The op loop and the scrambled index stream; a memoised rank
        calls no ``fnv1a_64`` and a memoised read builds no ``Operation``
        and asks ``key_for`` nothing."""
        generator = WorkloadGenerator(WorkloadSpec.ycsb_c(record_count=50,
                                                          seed=3))
        list(generator.operations(5000))    # memoises every rank and read
        ops = generator.operations(1000)
        calls = count_calls(lambda: [next(ops) for __ in range(1000)])
        assert calls.frames == {
            "ycsb.operations": 1000,
            "distributions.scrambled_zipfian_indices": 1000,
        }
        assert not [name for name in calls
                    if name.startswith("random.") or "fnv1a_64" in name
                    or name in ("ycsb.key_for", "<string>.__init__")]

    def test_a_value_enters_no_random_frame(self):
        generator = WorkloadGenerator(WorkloadSpec(record_count=200,
                                                   value_bytes=300))
        calls = count_calls(lambda: list(generator.load_items()))
        assert calls.frames == {
            "ycsb.load_items": 201,
            "ycsb.key_for": 200,
            "ycsb.make_value": 200,
            "ycsb._cut_values": 11,     # blocks of 256, 512, ... 8192 words
        }
        assert not [name for name in calls if name.startswith("random.")]


def per_draw_values(seed: int, value_bytes: int):
    """The value stream drawn one ``getrandbits`` at a time, as
    ``make_value`` drew it before values were cut from blocks."""
    bits = random.Random(seed ^ 0x5EED).getrandbits
    while True:
        out = bytearray()
        while len(out) < value_bytes:
            run = bits(4)
            while run >= 8:
                run = bits(4)
            letter = bits(5)
            while letter >= 16:
                letter = bits(5)
            out += bytes([0x61 + letter]) * (run + 1)
        yield bytes(out[:value_bytes])


#: 0, 1, short values, and values longer than a largest block's letters
#: (8,192 words: about 2,048 runs, 9.2k letters).
VALUE_SIZES = st.one_of(st.just(0), st.just(1), st.integers(2, 300),
                        st.integers(10_000, 12_000))
STEPS = st.lists(st.tuples(st.sampled_from(["value", "load", "ops"]),
                           st.integers(1, 6)), min_size=1, max_size=6)


class TestBlockStream:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64), value_bytes=VALUE_SIZES,
           steps=STEPS)
    def test_values_match_the_per_draw_stream(self, seed, value_bytes,
                                              steps):
        """Values taken by ``make_value``, ``load_items`` and YCSB-A
        updates, in any interleaving, are the per-draw stream's, in
        order."""
        generator = WorkloadGenerator(WorkloadSpec.ycsb_a(
            record_count=12, value_bytes=value_bytes, seed=seed))
        expected = per_draw_values(seed, value_bytes)
        items, ops = generator.load_items(), generator.operations(10**6)
        for step, count in steps:
            if step == "value":
                values = [generator.make_value() for __ in range(count)]
            elif step == "load":
                values = [value for __, value in
                          itertools.islice(items, count)]
            else:
                values = [op.value for op in itertools.islice(ops, count)
                          if op.value is not None]
            assert values == list(itertools.islice(expected, len(values)))
