"""Tests for Trace manipulation and SWF I/O."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.traces import SWF_FIELDS, Trace, read_swf, write_swf


@pytest.fixture
def trace(rng) -> Trace:
    arrivals = np.cumsum(rng.exponential(10.0, size=400))
    sizes = rng.lognormal(2.0, 1.0, size=400)
    procs = rng.choice([1, 4, 8], size=400)
    return Trace(arrivals, sizes, procs, name="t")


class TestTraceBasics:
    def test_properties(self, trace):
        assert trace.n_jobs == 400
        assert trace.duration > 0
        assert trace.interarrivals.size == 399
        assert trace.mean_service == pytest.approx(np.mean(trace.service_times))

    def test_stats_row(self, trace):
        stats = trace.stats()
        assert stats.n_jobs == 400
        assert stats.min_service <= stats.mean_service <= stats.max_service
        row = stats.as_row()
        assert set(row) == {
            "n_jobs", "duration", "mean_service", "min_service",
            "max_service", "scv",
        }

    def test_service_distribution(self, trace):
        d = trace.service_distribution()
        assert d.mean == pytest.approx(trace.mean_service)

    def test_validation(self):
        with pytest.raises(ValueError):
            Trace([0.0, 1.0], [1.0])  # length mismatch
        with pytest.raises(ValueError):
            Trace([1.0, 0.5], [1.0, 1.0])  # decreasing arrivals
        with pytest.raises(ValueError):
            Trace([0.0, 1.0], [1.0, 0.0])  # non-positive service
        with pytest.raises(ValueError):
            Trace([0.0, 1.0], [1.0, 2.0], processors=[1])  # procs mismatch


class TestOfferedLoadAndScaling:
    def test_offered_load_definition(self):
        # 11 jobs over 100s => rate 0.1; mean service 5 => rho = 0.25 on 2 hosts
        arrivals = np.linspace(0.0, 100.0, 11)
        t = Trace(arrivals, np.full(11, 5.0))
        assert t.offered_load(2) == pytest.approx(0.25)

    def test_scaled_to_load(self, trace):
        scaled = trace.scaled_to_load(0.6, 2)
        assert scaled.offered_load(2) == pytest.approx(0.6, rel=1e-9)
        # Service times and burstiness shape are untouched.
        np.testing.assert_array_equal(scaled.service_times, trace.service_times)
        orig_gaps = trace.interarrivals
        new_gaps = scaled.interarrivals
        ratio = new_gaps[orig_gaps > 0] / orig_gaps[orig_gaps > 0]
        assert np.allclose(ratio, ratio[0])

    def test_scaling_rejects_bad_load(self, trace):
        with pytest.raises(ValueError):
            trace.scaled_to_load(0.0, 2)


class TestSplitFilterHead:
    def test_split_halves(self, trace):
        a, b = trace.split(0.5)
        assert a.n_jobs + b.n_jobs == trace.n_jobs
        assert abs(a.n_jobs - b.n_jobs) <= 1
        np.testing.assert_array_equal(
            np.concatenate([a.service_times, b.service_times]), trace.service_times
        )

    def test_split_fraction(self, trace):
        a, b = trace.split(0.25)
        assert a.n_jobs == 100

    def test_split_validation(self, trace):
        with pytest.raises(ValueError):
            trace.split(0.0)
        with pytest.raises(ValueError):
            trace.split(1.0)

    def test_filter_processors(self, trace):
        t8 = trace.filter_processors(8)
        assert np.all(t8.processors == 8)
        assert t8.n_jobs == int(np.sum(trace.processors == 8))

    def test_filter_missing_count(self, trace):
        with pytest.raises(ValueError):
            trace.filter_processors(1024)

    def test_head(self, trace):
        h = trace.head(10)
        assert h.n_jobs == 10
        assert trace.head(10**9).n_jobs == trace.n_jobs

    @staticmethod
    def assert_view_of(part, trace, jobs, name):
        built = Trace(
            trace.arrival_times[jobs],
            trace.service_times[jobs],
            trace.processors[jobs],
            name=name,
        )
        assert type(part) is Trace
        assert part.name == built.name
        for field in ("arrival_times", "service_times", "processors"):
            got, want = getattr(part, field), getattr(built, field)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert got.base is getattr(trace, field)  # a view, not a copy
        assert part.stats() == built.stats()

    @pytest.mark.parametrize("fraction", [0.5, 0.25, 1e-9, 1 - 1e-9])
    def test_split_halves_are_views(self, trace, fraction):
        a, b = trace.split(fraction)
        cut = a.n_jobs
        self.assert_view_of(a, trace, slice(None, cut), f"t[:{cut}]")
        self.assert_view_of(b, trace, slice(cut, None), f"t[{cut}:]")

    @pytest.mark.parametrize("n", [1, 10, 399, 400, 10**9, -1])
    def test_head_is_a_view(self, trace, n):
        self.assert_view_of(trace.head(n), trace, slice(None, min(n, trace.n_jobs)), "t")

    def test_empty_slices_still_raise(self, trace):
        with pytest.raises(ValueError, match="equal-length"):
            trace.head(0)
        with pytest.raises(ValueError, match="equal-length"):
            trace.head(1).split(0.5)


class TestSWF:
    def test_roundtrip(self, trace, tmp_path):
        path = tmp_path / "trace.swf"
        write_swf(trace, path)
        back = read_swf(path)
        assert back.n_jobs == trace.n_jobs
        np.testing.assert_allclose(back.service_times, trace.service_times, rtol=1e-5)
        np.testing.assert_allclose(
            back.arrival_times, trace.arrival_times, rtol=1e-5, atol=1e-4
        )
        np.testing.assert_array_equal(back.processors, trace.processors)

    def test_reader_skips_comments_and_bad_jobs(self, tmp_path):
        path = tmp_path / "log.swf"
        path.write_text(
            "; Comment: header\n"
            "; UnixStartTime: 0\n"
            "1 10.0 5.0 100.0 8 -1 -1 8 -1 -1 1 1 1 -1 1 -1 -1 -1\n"
            "2 20.0 0.0 -1 8 -1 -1 8 -1 -1 0 1 1 -1 1 -1 -1 -1\n"  # no runtime
            "3 30.0 1.0 50.0 4 -1 -1 -1 -1 -1 1 1 1 -1 1 -1 -1 -1\n"
        )
        t = read_swf(path)
        assert t.n_jobs == 2
        assert t.service_times[0] == 100.0
        assert t.processors[0] == 8
        assert t.processors[1] == 4  # fell back to allocated

    def test_reader_sorts_by_submit(self, tmp_path):
        path = tmp_path / "log.swf"
        path.write_text(
            "1 30.0 0 10.0 1 -1 -1 1 -1 -1 1 1 1 -1 1 -1 -1 -1\n"
            "2 10.0 0 20.0 1 -1 -1 1 -1 -1 1 1 1 -1 1 -1 -1 -1\n"
        )
        t = read_swf(path)
        assert list(t.arrival_times) == [10.0, 30.0]
        assert list(t.service_times) == [20.0, 10.0]

    def test_reader_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.swf"
        path.write_text("; nothing here\n")
        with pytest.raises(ValueError):
            read_swf(path)

    def test_reader_rejects_short_lines(self, tmp_path):
        path = tmp_path / "short.swf"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError):
            read_swf(path)

    def test_swf_field_count(self):
        assert len(SWF_FIELDS) == 18

    def test_trace_convenience_methods(self, trace, tmp_path):
        path = tmp_path / "x.swf"
        trace.to_swf(path)
        back = Trace.from_swf(path, name="restored")
        assert back.name == "restored"
        assert back.n_jobs == trace.n_jobs


class TestLenientSWF:
    """read_swf(on_error="skip") tolerates malformed archive lines."""

    GOOD = "1 0.0 0 10.0 1 -1 -1 1 -1 -1 1 1 1 -1 1 -1 -1 -1\n"
    SHORT = "2 3.0 0\n"
    GARBAGE = "3 what 0 ten 1 -1 -1 1 -1 -1 1 1 1 -1 1 -1 -1 -1\n"

    def test_skip_drops_malformed_lines_with_warning(self, tmp_path):
        path = tmp_path / "messy.swf"
        path.write_text(self.GOOD + self.SHORT + self.GARBAGE + self.GOOD)
        with pytest.warns(RuntimeWarning, match="skipped 2 malformed"):
            t = read_swf(path, on_error="skip")
        assert t.n_jobs == 2
        assert list(t.service_times) == [10.0, 10.0]

    def test_warning_names_line_numbers(self, tmp_path):
        path = tmp_path / "messy.swf"
        path.write_text(self.GOOD + self.SHORT + self.GOOD)
        with pytest.warns(RuntimeWarning, match=r"lines 2"):
            read_swf(path, on_error="skip")

    def test_raise_mode_names_offending_line(self, tmp_path):
        path = tmp_path / "messy.swf"
        path.write_text(self.GOOD + self.GARBAGE)
        with pytest.raises(ValueError, match="messy.swf:2"):
            read_swf(path)

    def test_skip_still_rejects_fully_unusable_file(self, tmp_path):
        path = tmp_path / "hopeless.swf"
        path.write_text(self.SHORT + self.GARBAGE)
        with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="no usable jobs"):
            read_swf(path, on_error="skip")

    def test_unknown_mode_rejected(self, tmp_path):
        path = tmp_path / "x.swf"
        path.write_text(self.GOOD)
        with pytest.raises(ValueError, match="on_error"):
            read_swf(path, on_error="ignore")

    def test_from_swf_passes_mode_through(self, tmp_path):
        path = tmp_path / "messy.swf"
        path.write_text(self.GOOD + self.SHORT)
        with pytest.warns(RuntimeWarning):
            t = Trace.from_swf(path, on_error="skip")
        assert t.n_jobs == 1
