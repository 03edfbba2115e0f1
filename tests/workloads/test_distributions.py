"""Key-popularity index streams: skew, determinism, bounds."""

from collections import Counter
from itertools import islice

import pytest

from repro.sharding.router import fnv1a_64
from repro.workloads import CHOOSERS, make_chooser


def draw(kind, count, seed=0, n=20000, theta=0.99):
    """The first ``n`` indices of a ``make_chooser`` stream."""
    return list(islice(make_chooser(kind, count, seed, theta), n))


class TestBounds:
    @pytest.mark.parametrize("kind", ["uniform", "scrambled"])
    def test_indices_in_range(self, kind):
        assert all(0 <= index < 1000 for index in draw(kind, 1000, 1, 2000))

    def test_unknown_kind(self):
        for kind in ("nope", "zipfian", "hotspot", "latest"):
            with pytest.raises(ValueError, match="choose from"):
                make_chooser(kind, 10)

    def test_zero_items_rejected(self):
        """Refused by every kind when the stream is made, before any
        draw."""
        for kind in CHOOSERS:
            with pytest.raises(ValueError, match="item_count"):
                make_chooser(kind, 0)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["uniform", "scrambled"])
    def test_same_seed_same_stream(self, kind):
        assert draw(kind, 500, 7, 200) == draw(kind, 500, 7, 200)

    def test_different_seed_different_stream(self):
        assert draw("scrambled", 500, 1, 200) != draw("scrambled", 500, 2,
                                                      200)


class TestZipfian:
    """The Zipfian rank draw, seen through the scrambled stream: rank
    ``r``'s item is ``fnv1a_64(r.to_bytes(8, "little")) % item_count``."""

    def test_rank_zero_is_hottest(self):
        counts = Counter(draw("scrambled", 1000, 3))
        rank_zero = fnv1a_64((0).to_bytes(8, "little")) % 1000
        assert counts.most_common(1)[0][0] == rank_zero

    def test_skew_concentrates_mass(self):
        counts = Counter(draw("scrambled", 1000, 3))
        top10 = sum(count for __, count in counts.most_common(10))
        assert top10 > 20000 * 0.3

    def test_lower_theta_less_skewed(self):
        high = Counter(draw("scrambled", 1000, 3, theta=0.99))
        low = Counter(draw("scrambled", 1000, 3, theta=0.5))
        top_high = sum(c for __, c in high.most_common(10))
        top_low = sum(c for __, c in low.most_common(10))
        assert top_high > top_low

    def test_theta_validation(self):
        """Refused when the stream is made, before any draw."""
        for theta in (0.0, 1.0):
            with pytest.raises(ValueError, match="theta"):
                make_chooser("scrambled", 100, theta=theta)


class TestScrambled:
    def test_hot_keys_spread_out(self):
        """The hottest keys should not cluster at low indices."""
        counts = Counter(draw("scrambled", 10_000, 3, 30000))
        hot = [key for key, __ in counts.most_common(20)]
        assert max(hot) > 5000     # some hot keys land in the upper half
        assert len(set(hot)) == 20

    def test_same_skew_as_zipfian(self):
        scrambled = Counter(draw("scrambled", 1000, 3))
        top10 = sum(c for __, c in scrambled.most_common(10))
        assert top10 > 20000 * 0.25
