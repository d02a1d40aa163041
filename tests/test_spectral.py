import re

import numpy as np
import pytest
from scipy.signal import savgol_filter, welch

from bladesense import psd
from bladesense.errors import ValidationError
from bladesense.spectral import SAVGOL_WINDOW


def _trapezoid(y, x):
    # explicit sum: np.trapezoid needs NumPy >= 2.0
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


class TestPsd:
    def test_pure_tone_peaks_at_one(self):
        f_s, n = 50.0, 4000
        f_1p = 0.5
        t = np.arange(n) / f_s
        f_hat, power, _ = psd(np.sin(2 * np.pi * f_1p * t), f_s, f_1p)
        bin_width = f_hat[1] - f_hat[0]
        assert abs(f_hat[np.argmax(power)] - 1.0) <= bin_width

    def test_axis_spans_normalized_nyquist(self):
        f_s, f_1p = 40.0, 0.25
        f_hat, _, _ = psd(np.random.default_rng(0).standard_normal(512),
                          f_s, f_1p)
        assert f_hat[0] == 0.0
        assert f_hat[-1] == pytest.approx(f_s / (2 * f_1p))

    def test_constant_signal_has_no_power_beyond_dc(self):
        f_hat, power, _ = psd(np.full(1024, 3.7), 20.0, 0.2)
        assert np.all(power[1:] <= 1e-20)

    def test_power_non_negative_with_smoothing(self):
        rng = np.random.default_rng(1)
        _, _, smoothed = psd(rng.standard_normal(2048), 20.0, 0.2)
        assert np.all(smoothed >= 0.0)

    def test_smoothing_preserves_total_power(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(8192)  # broadband
        f_hat, raw, smoothed = psd(x, 20.0, 0.2)
        assert _trapezoid(smoothed, f_hat) == pytest.approx(
            _trapezoid(raw, f_hat), rel=0.05)

    @pytest.mark.parametrize("n, smoothed", [(62, False), (63, False),
                                             (64, True)])
    def test_spectrum_shorter_than_the_window_is_not_smoothed(self, n,
                                                              smoothed):
        # n samples give n // 2 + 1 bins: 32 for 62 and 63, 33 for 64
        x = np.random.default_rng(n).standard_normal(n)
        _, raw, smooth = psd(x, 10.0, 1.0)
        assert raw.size == n // 2 + 1
        assert np.array_equal(smooth, raw) is not smoothed

    def test_one_fft_per_call(self, monkeypatch):
        calls = []

        def counting(a, *args, _rfft=np.fft.rfft, **kwargs):
            calls.append(np.shape(a))
            return _rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting)
        x = np.random.default_rng(3).standard_normal(256)
        _, raw, smoothed = psd(x, 10.0, 1.0)
        assert calls == [(256,)]
        assert not np.array_equal(smoothed, raw)

    @pytest.mark.parametrize("signal, f_s, f_1p", [
        (np.zeros((2, 8)), 10.0, 1.0), (np.zeros(1), 10.0, 1.0),
        (np.zeros(8), 0.0, 1.0), (np.zeros(8), 10.0, -1.0)])
    def test_bad_input_rejected(self, signal, f_s, f_1p):
        with pytest.raises(ValidationError):
            psd(signal, f_s, f_1p)

    @pytest.mark.parametrize("signal", [np.zeros(1), np.zeros((2, 8))])
    def test_short_or_2d_signal_message_gives_its_shape(self, signal):
        message = f"at least 2 samples, got shape {signal.shape}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            psd(signal, 10.0, 1.0)


class TestPsdOracle:
    """The numpy periodogram and Savitzky-Golay against scipy.signal."""

    @pytest.mark.parametrize("n", [4000, 4001])  # even and odd length
    def test_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + np.sin(0.3 * np.arange(n)) + 2.0
        f_s, f_1p = 160.0, 0.2
        # scipy's one-segment Welch is the full-record periodogram
        f_ref, p_ref = welch(x, fs=f_s, nperseg=n)
        f_hat, power, smoothed = psd(x, f_s, f_1p)
        assert np.allclose(f_hat, f_ref / f_1p, rtol=1e-15, atol=0.0)
        assert np.max(np.abs(power - p_ref)) <= 1e-12 * np.max(p_ref)

        s_ref = np.clip(savgol_filter(p_ref, *SAVGOL_WINDOW), 0.0, None)
        assert np.max(np.abs(smoothed - s_ref)) <= 1e-12 * np.max(s_ref)

    def test_matches_scipy_when_the_window_spans_the_spectrum(self):
        # 64 samples give 33 bins: each edge fit covers the whole spectrum
        x = np.random.default_rng(64).standard_normal(64)
        _, p_ref = welch(x, fs=10.0, nperseg=64)
        _, power, smoothed = psd(x, 10.0, 1.0)
        assert smoothed.size == SAVGOL_WINDOW[0]
        assert np.max(np.abs(power - p_ref)) <= 1e-12 * np.max(p_ref)
        s_ref = np.clip(savgol_filter(p_ref, *SAVGOL_WINDOW), 0.0, None)
        assert np.max(np.abs(smoothed - s_ref)) <= 1e-12 * np.max(s_ref)
