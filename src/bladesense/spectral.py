"""Spectral density reporting with rotor-normalized frequencies."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

#: Savitzky-Golay (window, polyorder) used when smoothing is requested.
DEFAULT_SMOOTH = (33, 3)


def psd(signal, f_s: float, f_1p: float,
        smooth=None) -> tuple[np.ndarray, np.ndarray]:
    """One-sided periodogram of the whole record on a rotor-normalized
    frequency axis: periodic Hann window, mean removed, one segment.

    Parameters
    ----------
    signal : 1-D time series
    f_s : sampling frequency, Hz
    f_1p : once-per-revolution frequency, Hz; the returned axis is f/f_1p
        and spans [0, f_s / (2 f_1p)]
    smooth : None or (window, polyorder)
        Optional Savitzky-Golay smoothing of the raw spectrum; the window
        must be odd, at least polyorder + 2 and at most the spectrum's
        length (n // 2 + 1 bins for n samples). Smoothed power is clipped
        at zero to keep the non-negativity contract.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("signal must be a 1-D series")
    if not (f_s > 0 and f_1p > 0):
        raise ValidationError("f_s and f_1p must be positive")
    if smooth is not None:
        window, polyorder = int(smooth[0]), int(smooth[1])
        if window % 2 == 0 or window < polyorder + 2:
            raise ValidationError(
                f"smoothing window must be odd and >= polyorder+2, "
                f"got window={window}, polyorder={polyorder}"
            )

    n = x.size
    # periodic Hann: the first n points of a symmetric window of n + 1
    win = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]
    spec = np.fft.rfft(win * (x - x.mean()))
    power = (spec.conj() * spec).real / (f_s * (win * win).sum())
    # fold the negative frequencies in; DC and an even-length Nyquist bin
    # have no mirror
    power[1:None if n % 2 else -1] *= 2
    if smooth is not None:
        if power.size < window:
            raise ValidationError(
                f"spectrum ({power.size} bins) shorter than the smoothing "
                f"window ({window})"
            )
        power = np.clip(_savgol(power, window, polyorder), 0.0, None)
    return np.fft.rfftfreq(n, 1.0 / f_s) / f_1p, power


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
