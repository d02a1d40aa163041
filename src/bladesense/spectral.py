"""Spectral density reporting with rotor-normalized frequencies: one FFT
gives the raw periodogram and its Savitzky-Golay smoothed copy."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

#: Savitzky-Golay (window, polyorder) of the smoothed spectrum.
SAVGOL_WINDOW = (33, 3)


def psd(signal, f_s: float,
        f_1p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided periodogram of the whole record on a rotor-normalized
    frequency axis: periodic Hann window, mean removed, one segment.

    Parameters
    ----------
    signal : 1-D time series
    f_s : sampling frequency, Hz
    f_1p : once-per-revolution frequency, Hz

    Returns
    -------
    f_hat : the axis f/f_1p, spanning [0, f_s / (2 f_1p)]
    raw : the power spectral density
    smoothed : ``raw`` smoothed by the :data:`SAVGOL_WINDOW` Savitzky-Golay
        filter and clipped at zero to keep the non-negativity contract;
        ``raw`` itself when the spectrum (n // 2 + 1 bins for n samples)
        is shorter than the window
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("signal must be a 1-D series of at least 2 "
                              f"samples, got shape {x.shape}")
    if not (f_s > 0 and f_1p > 0):
        raise ValidationError("f_s and f_1p must be positive")

    n = x.size
    # periodic Hann: the first n points of a symmetric window of n + 1
    win = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]
    spec = np.fft.rfft(win * (x - x.mean()))
    power = (spec.conj() * spec).real / (f_s * (win * win).sum())
    # fold the negative frequencies in; DC and an even-length Nyquist bin
    # have no mirror
    power[1:None if n % 2 else -1] *= 2
    smoothed = power
    if power.size >= SAVGOL_WINDOW[0]:
        smoothed = np.clip(_savgol(power, *SAVGOL_WINDOW), 0.0, None)
    return np.fft.rfftfreq(n, 1.0 / f_s) / f_1p, power, smoothed


def _savgol(y: np.ndarray, window: int, polyorder: int) -> np.ndarray:
    """Savitzky-Golay smoothing; each half-window at the edges takes the
    value of a polynomial fitted to the first or last full window."""
    half = window // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    # least-squares weights of the centre value: row 0 of the pseudoinverse
    # of the Vandermonde matrix (symmetric, so convolution = correlation)
    coeffs = np.linalg.pinv(offsets[:, None] ** np.arange(polyorder + 1))[0]
    out = np.convolve(y, coeffs, mode="same")
    idx = np.arange(window, dtype=float)
    out[:half] = np.polyval(np.polyfit(idx, y[:window], polyorder), idx[:half])
    out[-half:] = np.polyval(np.polyfit(idx, y[-window:], polyorder),
                             idx[-half:])
    return out
