"""Key-popularity distributions: skew, determinism, bounds."""

from collections import Counter

import pytest

from repro.workloads import (
    ScrambledZipfianChooser,
    UniformChooser,
    ZipfianChooser,
    make_chooser,
)

#: The choosers by name: the ``make_chooser`` kinds, and the plain
#: Zipfian that ranks the scrambled one's items.
CHOOSERS = {
    "uniform": lambda count, seed: make_chooser("uniform", count, seed),
    "scrambled": lambda count, seed: make_chooser("scrambled", count, seed),
    "zipfian": lambda count, seed: ZipfianChooser(count, seed=seed),
}


class TestBounds:
    @pytest.mark.parametrize("kind", ["uniform", "zipfian", "scrambled"])
    def test_indices_in_range(self, kind):
        chooser = CHOOSERS[kind](1000, 1)
        for index in chooser.sample(2000):
            assert 0 <= index < 1000

    def test_unknown_kind(self):
        for kind in ("nope", "zipfian", "hotspot", "latest"):
            with pytest.raises(ValueError, match="choose from"):
                make_chooser(kind, 10)

    def test_zero_items_rejected(self):
        with pytest.raises(ValueError):
            UniformChooser(0)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["uniform", "zipfian", "scrambled"])
    def test_same_seed_same_stream(self, kind):
        a = CHOOSERS[kind](500, 7).sample(200)
        b = CHOOSERS[kind](500, 7).sample(200)
        assert a == b

    def test_different_seed_different_stream(self):
        a = ZipfianChooser(500, seed=1).sample(200)
        b = ZipfianChooser(500, seed=2).sample(200)
        assert a != b


class TestZipfian:
    def test_rank_zero_is_hottest(self):
        counts = Counter(ZipfianChooser(1000, seed=3).sample(20000))
        hottest = counts.most_common(1)[0][0]
        assert hottest == 0

    def test_skew_concentrates_mass(self):
        counts = Counter(ZipfianChooser(1000, theta=0.99, seed=3)
                         .sample(20000))
        top10 = sum(count for __, count in counts.most_common(10))
        assert top10 > 20000 * 0.3

    def test_lower_theta_less_skewed(self):
        high = Counter(ZipfianChooser(1000, theta=0.99, seed=3)
                       .sample(20000))
        low = Counter(ZipfianChooser(1000, theta=0.5, seed=3)
                      .sample(20000))
        top_high = sum(c for __, c in high.most_common(10))
        top_low = sum(c for __, c in low.most_common(10))
        assert top_high > top_low

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            ZipfianChooser(100, theta=1.0)
        with pytest.raises(ValueError):
            ZipfianChooser(100, theta=0.0)


class TestScrambled:
    def test_hot_keys_spread_out(self):
        """The hottest keys should not cluster at low indices."""
        counts = Counter(ScrambledZipfianChooser(10_000, seed=3)
                         .sample(30000))
        hot = [key for key, __ in counts.most_common(20)]
        assert max(hot) > 5000     # some hot keys land in the upper half
        assert len(set(hot)) == 20

    def test_same_skew_as_zipfian(self):
        scrambled = Counter(ScrambledZipfianChooser(1000, seed=3)
                            .sample(20000))
        top10 = sum(c for __, c in scrambled.most_common(10))
        assert top10 > 20000 * 0.25
