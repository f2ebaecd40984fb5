"""Shared discrete Fourier convention.

Everything in this package uses the physics kernel exp(-i*omega*t) with a
1/(2*pi) factor per axis,

    F(t) = (1/2pi) * integral f(omega) * exp(-i*omega*t) domega,

discretised on the centred grids of FrequencyGrid.  For even n the centred
index shuffle is exact, so the fftshift recipe below reproduces the kernel
with no residual phase factors.  The transform runs in place on the
shifted copy (numpy >= 2.0 `out=`) and is scaled before the output shift
(the same products, in other positions), so a transform holds at most two
arrays of its output size at once.
"""

import numpy as np


def to_time_1d(values, grid):
    """Transform along the last axis: each row of a 2D array is one signal."""
    field = np.fft.ifftshift(np.asarray(values, dtype=np.complex128), axes=-1)
    np.fft.fft(field, out=field)
    field *= grid.domega / (2.0 * np.pi)
    return np.fft.fftshift(field, axes=-1)


def to_time_2d(values, grid):
    field = np.fft.ifftshift(np.asarray(values, dtype=np.complex128))
    np.fft.fft2(field, out=field)
    field *= (grid.domega / (2.0 * np.pi)) ** 2
    return np.fft.fftshift(field)
