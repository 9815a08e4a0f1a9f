"""Series container, smoothing, derivatives, curvature, and CSV schema."""

import numpy as np
import pytest

from odeaug.errors import CsvFormatError
from odeaug.series import (TimeSeries, curvature, derivative, moving_average,
                           read_csv, write_csv)


def make_series(values, dt=0.1, names=None, labels=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    names = names or [f"c{i}" for i in range(values.shape[1])]
    return TimeSeries(names, dt, values, labels)


class TestTimeSeries:
    def test_basic_invariants(self):
        ts = make_series([[1.0, 2.0], [3.0, 4.0]], names=["u", "x"])
        assert len(ts) == 2
        assert ts.channel("x").tolist() == [2.0, 4.0]

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            make_series([[1.0], [np.nan]])

    def test_rejects_bad_sample_period(self):
        with pytest.raises(ValueError):
            make_series([[1.0], [2.0]], dt=0.0)

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError):
            make_series([[1.0], [2.0]], labels=[True])

    def test_rejects_channel_count_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeries(["a", "b"], 0.1, np.zeros((3, 1)))

    def test_with_channel_leaves_original_untouched(self):
        ts = make_series([[1.0], [2.0]], names=["x"])
        out = ts.with_channel("x", [5.0, 6.0])
        assert ts.channel("x").tolist() == [1.0, 2.0]
        assert out.channel("x").tolist() == [5.0, 6.0]

    def test_times_grid(self, tmp_path):
        # the implicit time grid, index times sample period from zero, is
        # the t column of the CSV schema
        ts = make_series([1.0, 2.0, 3.0], dt=0.5)
        write_csv(ts, tmp_path / "grid.csv")
        t = np.loadtxt(tmp_path / "grid.csv", delimiter=",", skiprows=1)[:, 0]
        assert np.allclose(t, [0.0, 0.5, 1.0])


class TestSmooth:
    def test_constant_channel_unchanged(self):
        ts = make_series([5.0, 5.0, 5.0, 5.0], names=["x"])
        assert moving_average(ts.channel("x"), 3).tolist() == [5.0] * 4

    def test_window_one_is_identity(self):
        ts = make_series([1.0, 4.0, 2.0, 8.0], names=["x"])
        assert moving_average(ts.channel("x"), 1).tolist() == [1.0, 4.0, 2.0, 8.0]

    def test_center_of_three_point_window(self):
        ts = make_series([0.0, 3.0, 0.0], names=["x"])
        assert moving_average(ts.channel("x"), 3)[1] == pytest.approx(1.0)

    def test_other_channels_untouched(self):
        ts = make_series([[0.0, 9.0], [3.0, 9.0], [0.0, 9.0]], names=["x", "y"])
        out = ts.with_channel("x", moving_average(ts.channel("x"), 3))
        assert out.channel("y").tolist() == [9.0, 9.0, 9.0]

    def test_even_or_oversized_window_rejected(self):
        ts = make_series([1.0, 2.0, 3.0], names=["x"])
        with pytest.raises(ValueError):
            moving_average(ts.channel("x"), 2)
        with pytest.raises(ValueError):
            moving_average(ts.channel("x"), 5)

    def test_never_extends_range(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=200)
        out = moving_average(y, 7)
        assert out.min() >= y.min() - 1e-12
        assert out.max() <= y.max() + 1e-12

    def test_idempotent_on_constants(self):
        y = np.full(50, 3.25)
        assert np.array_equal(moving_average(moving_average(y, 5), 5), y)


class TestNumericalDerivative:
    def test_linear_channel_exact_everywhere(self):
        dt = 0.1
        ts = make_series(2.0 * np.arange(20) * dt, dt=dt, names=["x"])
        d = derivative(ts.channel("x"), ts.sample_period, 1)
        assert np.allclose(d, 2.0, atol=1e-12)

    def test_quadratic_exact_at_interior(self):
        dt = 0.05
        t = np.arange(30) * dt
        ts = make_series(t**2, dt=dt, names=["x"])
        d = derivative(ts.channel("x"), ts.sample_period, 1)
        assert np.allclose(d[1:-1], 2.0 * t[1:-1], atol=1e-10)

    def test_sine_against_cosine_oracle(self):
        dt = 0.001
        t = np.arange(0.0, 2.0 * np.pi, dt)
        ts = make_series(np.sin(t), dt=dt, names=["x"])
        d = derivative(ts.channel("x"), ts.sample_period, 1)
        assert np.max(np.abs(d - np.cos(t))) < 1e-5

    def test_second_order_of_quadratic(self):
        dt = 0.05
        t = np.arange(30) * dt
        ts = make_series(t**2, dt=dt, names=["x"])
        d2 = derivative(ts.channel("x"), ts.sample_period, 2)
        assert np.allclose(d2[2:-2], 2.0, atol=1e-9)

    def test_too_short_rejected(self):
        ts = make_series([1.0, 2.0], names=["x"])
        with pytest.raises(ValueError, match="short"):
            derivative(ts.channel("x"), ts.sample_period, 1)


def _oracle_curvature(y, dt, max_order):
    """Independent re-derivation with explicit loops."""
    def diff(v):
        out = np.zeros_like(v)
        for i in range(1, len(v) - 1):
            out[i] = (v[i + 1] - v[i - 1]) / (2 * dt)
        out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * dt)
        out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * dt)
        return out

    score = np.zeros_like(y)
    d = np.asarray(y, dtype=float)
    for _ in range(max_order):
        d = diff(d)
        s = float(np.std(d))
        if s <= 1e-12 * max(1.0, float(np.max(np.abs(d)))):
            s = 1.0
        score += np.abs(d) / s
    return score


class TestCurvatureScore:
    def test_constant_channel_scores_zero(self):
        ts = make_series(np.full(12, 4.0), names=["x"])
        assert np.allclose(curvature(ts.channel("x"), ts.sample_period, 3), 0.0)

    def test_linear_channel_uniform_interior(self):
        dt = 0.1
        ts = make_series(3.0 * np.arange(20) * dt, dt=dt, names=["x"])
        score = curvature(ts.channel("x"), ts.sample_period, 3)
        assert np.allclose(score[1:-1], score[1], atol=1e-9)

    def test_step_signal_peaks_at_edge(self):
        y = np.array([0.0] * 5 + [1.0] * 5)
        ts = make_series(y, dt=1.0, names=["x"])
        score = curvature(ts.channel("x"), ts.sample_period, 3)
        oracle = _oracle_curvature(y, 1.0, 3)
        assert np.allclose(score, oracle, atol=1e-12)
        assert np.argmax(score) in (4, 5)

    def test_offset_invariance(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=40)
        ts_a = make_series(y, names=["x"])
        ts_b = make_series(y + 100.0, names=["x"])
        assert np.allclose(
            curvature(ts_a.channel("x"), ts_a.sample_period, 3),
            curvature(ts_b.channel("x"), ts_b.sample_period, 3), atol=1e-7
        )


class TestCsvRoundTrip:
    def test_write_is_deterministic(self, tmp_path):
        ts = make_series(np.linspace(0, 1, 9), names=["x"])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(ts, a)
        write_csv(ts, b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_nonuniform_step_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x\n0.0,1\n0.1,2\n0.3,3\n")
        with pytest.raises(CsvFormatError) as err:
            read_csv(path)
        assert ":4:" in str(err.value)

    def test_rejects_nan_time_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x\n0.0,1\n0.1,2\nnan,3\n0.3,4\n")
        with pytest.raises(CsvFormatError, match="non-finite t") as err:
            read_csv(path)
        assert err.value.line == 4

    def test_rejects_bad_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x,label\n0.0,1,0\n0.1,2,2\n")
        with pytest.raises(CsvFormatError, match="label"):
            read_csv(path)

    def test_rejects_missing_time_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(CsvFormatError, match="'t'"):
            read_csv(path)

    @pytest.mark.parametrize("text, line, match", [
        ("", 1, "empty file"),
        ("t\n0.0\n0.1\n", 1, "no data channels"),
        ("t,label\n0.0,0\n0.1,1\n", 1, "no data channels"),
        ("t,x\n0.0,1\n0.1,abc\n", 3, "non-numeric"),
        ("t,x\n", 2, "at least two"),
        ("t,x\n0.0,1\n", 2, "at least two"),
        ("t,x\n0.1,1\n0.0,2\n", 3, "strictly increasing"),
        ("t,x\n0.0,1\n0.0,2\n", 3, "strictly increasing"),
        ("t,x,y\n0.0,1,2\n0.1,3,4\n0.2,5,inf\n", 4, "non-finite value"),
        ("t,x\n0.0,nan\n0.1,2\n", 2, "non-finite value"),
    ])
    def test_schema_errors_report_their_line(self, tmp_path, text, line, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=match) as err:
            read_csv(path)
        assert err.value.line == line
        assert f":{line}:" in str(err.value)

    def test_rejects_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x\n0.0,1\n0.1\n")
        with pytest.raises(CsvFormatError) as err:
            read_csv(path)
        assert err.value.line == 3
