"""Log-bucketed histograms: bucketing, percentiles, merges."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import metrics
from repro.obs.hist import (
    SUBBUCKETS,
    LogHistogram,
    bucket_bounds,
    bucket_index,
)

positive_values = st.one_of(
    st.integers(min_value=1, max_value=10**9),
    st.floats(
        min_value=1e-9, max_value=1e12, allow_nan=False, allow_infinity=False
    ),
)
observations = st.lists(
    st.one_of(st.just(0), st.just(0.0), positive_values), max_size=80
)


class TestBucketing:
    def test_bucket_contains_value(self):
        for value in (1e-6, 0.013, 0.5, 0.9999, 1.0, 1.5, 7.0, 12345.678):
            lo, hi = bucket_bounds(bucket_index(value))
            assert lo <= value < hi, (value, lo, hi)

    def test_boundary_values_land_in_upper_bucket(self):
        # Exact powers of two and exact sub-bucket edges must bucket
        # deterministically: the lower bound is inclusive.
        for exponent in range(-8, 9):
            base = math.ldexp(1.0, exponent)
            for sub in range(SUBBUCKETS):
                edge = base * (1 + sub / SUBBUCKETS)
                lo, hi = bucket_bounds(bucket_index(edge))
                assert lo == edge, (edge, lo)
                assert edge < hi

    def test_buckets_tile_the_line(self):
        # Consecutive indices produce adjacent [lo, hi) ranges.
        for idx in range(-20, 60):
            assert bucket_bounds(idx)[1] == bucket_bounds(idx + 1)[0]

    @given(positive_values)
    def test_relative_error_bound(self, value):
        lo, hi = bucket_bounds(bucket_index(float(value)))
        # 4 sub-buckets per octave: upper/lower ratio <= 1 + 1/(SUB+...)
        assert hi / lo <= 1.0 + 1.0 / SUBBUCKETS + 1e-12


class TestLogHistogram:
    def test_empty(self):
        hist = LogHistogram("x")
        assert hist.count == 0
        assert hist.percentile(50.0) is None
        assert hist.quantile_summary()["max"] is None

    def test_zero_observations_count(self):
        hist = LogHistogram("x")
        hist.observe(0)
        hist.observe(0.0)
        hist.observe(4.0)
        assert hist.count == 3
        assert hist.zero_count == 2
        # rank 1 and 2 are the zeros
        assert hist.percentile(50.0) == 0.0

    @given(observations)
    def test_percentiles_monotone_and_bounded(self, values):
        hist = LogHistogram("x")
        for v in values:
            hist.observe(v)
        if not values:
            assert hist.percentile(95.0) is None
            return
        p50, p95, p99 = (hist.percentile(q) for q in (50.0, 95.0, 99.0))
        assert 0.0 <= p50 <= p95 <= p99 <= float(hist.max)
        assert p50 >= 0.0

    @given(observations, observations)
    def test_merge_equals_combined_stream(self, a_vals, b_vals):
        a = LogHistogram("a")
        b = LogHistogram("b")
        combined = LogHistogram("c")
        for v in a_vals:
            a.observe(v)
            combined.observe(v)
        for v in b_vals:
            b.observe(v)
            combined.observe(v)
        merged = LogHistogram.merged([a, b])
        assert merged.count == combined.count
        assert merged.zero_count == combined.zero_count
        assert merged.buckets == combined.buckets
        assert merged.min == combined.min
        assert merged.max == combined.max
        assert merged.total == pytest.approx(combined.total)

    @given(observations, observations, observations)
    def test_merge_associative_on_integer_counts(self, a_vals, b_vals, c_vals):
        def hist(values):
            h = LogHistogram()
            for v in values:
                h.observe(v)
            return h

        left = LogHistogram.merged(
            [LogHistogram.merged([hist(a_vals), hist(b_vals)]), hist(c_vals)]
        )
        right = LogHistogram.merged(
            [hist(a_vals), LogHistogram.merged([hist(b_vals), hist(c_vals)])]
        )
        assert left.count == right.count
        assert left.buckets == right.buckets
        assert left.zero_count == right.zero_count
        assert left.min == right.min and left.max == right.max

    @given(observations, st.one_of(st.just(0), positive_values), st.integers(1, 60))
    def test_observe_times_equals_repeated_observations(self, before, value, times):
        """``observe(v, times=n)`` is *n* single observations, bucket for
        bucket and zeros included, on a plain histogram and on the
        metrics registry's (the one every ``metrics.histogram`` is)."""
        with metrics.scoped():
            pairs = [
                (LogHistogram(), LogHistogram()),
                (metrics.histogram("bulk"), metrics.histogram("single")),
            ]
        for bulk, single in pairs:
            for v in before:
                bulk.observe(v)
                single.observe(v)
            bulk.observe(value, times=times)
            for _ in range(times):
                single.observe(value)
            assert (bulk.count, bulk.zero_count, bulk.buckets, bulk.min, bulk.max) == (
                single.count, single.zero_count, single.buckets, single.min, single.max
            )
            assert bulk.total == pytest.approx(single.total)

    @given(observations, observations)
    def test_observe_many_equals_sequential_observations(self, before, values):
        """``observe_many(values)`` is ``observe(v)`` for each value in
        order, on a plain histogram and on the registry's: every field
        equal, zeros included, and ``total`` bit-identical (it is added
        in order)."""
        with metrics.scoped():
            pairs = [
                (LogHistogram(), LogHistogram()),
                (metrics.histogram("batch"), metrics.histogram("single")),
            ]
        for batch, single in pairs:
            for v in before:
                batch.observe(v)
                single.observe(v)
            batch.observe_many(iter(values))
            for v in values:
                single.observe(v)
            fields = ("count", "zero_count", "buckets", "min", "max", "total")
            assert [getattr(batch, f) for f in fields] == [
                getattr(single, f) for f in fields
            ]
            assert type(batch.total) is type(single.total)
            assert math.copysign(1.0, batch.total) == math.copysign(1.0, single.total)

    def test_percentile_within_bucket_error(self):
        hist = LogHistogram("x")
        values = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        for v in values:
            hist.observe(v)
        # p50 approximates the true median within one bucket's width.
        true_median = 8
        p50 = hist.percentile(50.0)
        assert p50 >= true_median
        assert p50 <= true_median * (1 + 1.0 / SUBBUCKETS) + 1e-9

    def test_roundtrip_as_dict(self):
        hist = LogHistogram("lat", unit="seconds")
        for v in (0, 0.001, 0.5, 2.5, 2.5, 40):
            hist.observe(v)
        data = hist.as_dict()
        assert data["type"] == "loghist"
        assert data["unit"] == "seconds"
        back = LogHistogram.from_dict(data, "lat")
        assert back.count == hist.count
        assert back.buckets == hist.buckets
        assert back.percentile(95.0) == hist.percentile(95.0)
