import numpy as np
import pytest
from scipy.signal import savgol_filter, welch

from bladesense import psd
from bladesense.errors import ValidationError
from bladesense.spectral import DEFAULT_SMOOTH


def _trapezoid(y, x):
    # explicit sum: np.trapezoid needs NumPy >= 2.0
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


class TestPsd:
    def test_pure_tone_peaks_at_one(self):
        f_s, n = 50.0, 4000
        f_1p = 0.5
        t = np.arange(n) / f_s
        f_hat, power = psd(np.sin(2 * np.pi * f_1p * t), f_s, f_1p)
        bin_width = f_hat[1] - f_hat[0]
        assert abs(f_hat[np.argmax(power)] - 1.0) <= bin_width

    def test_axis_spans_normalized_nyquist(self):
        f_s, f_1p = 40.0, 0.25
        f_hat, _ = psd(np.random.default_rng(0).standard_normal(512),
                       f_s, f_1p)
        assert f_hat[0] == 0.0
        assert f_hat[-1] == pytest.approx(f_s / (2 * f_1p))

    def test_constant_signal_has_no_power_beyond_dc(self):
        f_hat, power = psd(np.full(1024, 3.7), 20.0, 0.2)
        assert np.all(power[1:] <= 1e-20)

    def test_power_non_negative_with_smoothing(self):
        rng = np.random.default_rng(1)
        _, power = psd(rng.standard_normal(2048), 20.0, 0.2,
                       smooth=DEFAULT_SMOOTH)
        assert np.all(power >= 0.0)

    def test_smoothing_preserves_total_power(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(8192)  # broadband
        f_hat, raw = psd(x, 20.0, 0.2)
        _, smoothed = psd(x, 20.0, 0.2, smooth=DEFAULT_SMOOTH)
        assert _trapezoid(smoothed, f_hat) == pytest.approx(
            _trapezoid(raw, f_hat), rel=0.05)

    def test_even_window_rejected(self):
        with pytest.raises(ValidationError, match="odd"):
            psd(np.zeros(100), 10.0, 1.0, smooth=(32, 3))

    def test_window_below_polyorder_rejected(self):
        with pytest.raises(ValidationError):
            psd(np.zeros(100), 10.0, 1.0, smooth=(3, 3))

    def test_short_signal_rejected(self):
        with pytest.raises(ValidationError, match="shorter"):
            psd(np.zeros(16), 10.0, 1.0, smooth=(33, 3))

    def test_spectrum_shorter_than_window_rejected(self):
        # 40 samples give 21 bins, fewer than the 33-point window
        with pytest.raises(ValidationError, match="spectrum"):
            psd(np.zeros(40), 10.0, 1.0, smooth=DEFAULT_SMOOTH)


class TestPsdOracle:
    """The numpy periodogram and Savitzky-Golay against scipy.signal."""

    @pytest.mark.parametrize("n", [4000, 4001])  # even and odd length
    def test_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + np.sin(0.3 * np.arange(n)) + 2.0
        f_s, f_1p = 160.0, 0.2
        # scipy's one-segment Welch is the full-record periodogram
        f_ref, p_ref = welch(x, fs=f_s, nperseg=n)
        f_hat, power = psd(x, f_s, f_1p)
        assert np.allclose(f_hat, f_ref / f_1p, rtol=1e-15, atol=0.0)
        assert np.max(np.abs(power - p_ref)) <= 1e-12 * np.max(p_ref)

        s_ref = np.clip(savgol_filter(p_ref, *DEFAULT_SMOOTH), 0.0, None)
        _, smoothed = psd(x, f_s, f_1p, smooth=DEFAULT_SMOOTH)
        assert np.max(np.abs(smoothed - s_ref)) <= 1e-12 * np.max(s_ref)
