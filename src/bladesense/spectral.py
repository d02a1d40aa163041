"""Spectral density reporting with rotor-normalized frequencies."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

#: Savitzky-Golay (window, polyorder) used when smoothing is requested.
DEFAULT_SMOOTH = (33, 3)


def psd(signal, f_s: float, f_1p: float, smooth=None,
        nperseg: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Welch periodogram on a rotor-normalized frequency axis.

    Parameters
    ----------
    signal : 1-D time series
    f_s : sampling frequency, Hz
    f_1p : once-per-revolution frequency, Hz; the returned axis is f/f_1p
        and spans [0, f_s / (2 f_1p)]
    smooth : None or (window, polyorder)
        Optional Savitzky-Golay smoothing of the raw spectrum; the window
        must be odd and at least polyorder + 2. Smoothed power is clipped
        at zero to keep the non-negativity contract.
    nperseg : segment length for Welch averaging; defaults to the full
        record (a single-segment periodogram).
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
        if x.size < window:
            raise ValidationError("signal shorter than the smoothing window")
    # imported on use: scipy.signal takes about a second to import, and
    # most commands never reach this line
    from scipy.signal import savgol_filter, welch

    seg = x.size if nperseg is None else min(int(nperseg), x.size)
    freq, power = welch(x, fs=f_s, nperseg=seg)
    if smooth is not None:
        power = np.clip(savgol_filter(power, window, polyorder), 0.0, None)
    return freq / f_1p, power
