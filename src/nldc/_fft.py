"""Shared discrete Fourier convention.

Everything in this package uses the physics kernel exp(-i*omega*t) with a
1/(2*pi) factor per axis,

    F(t) = (1/2pi) * integral f(omega) * exp(-i*omega*t) domega,

discretised on the centred grids of FrequencyGrid.  For even n the centred
index shuffle is exact, so the fftshift recipe below reproduces the kernel
with no residual phase factors.  The transform runs in place on the
shifted copy (numpy >= 2.0 `out=`) and is scaled before the output shift
(the same products, in other positions).  The 2D transform also shifts its
output in place, so it holds one array of its output size; the 1D one,
applied to blocks of rows, holds two.
"""

import numpy as np

_SWAP_BLOCK_CELLS = 1 << 16  # cells per row block of the in-place 2D output shift


def to_time_1d(values, grid):
    """Transform along the last axis: each row of a 2D array is one signal."""
    field = np.fft.ifftshift(np.asarray(values, dtype=np.complex128), axes=-1)
    np.fft.fft(field, out=field)
    field *= grid.domega / (2.0 * np.pi)
    return np.fft.fftshift(field, axes=-1)


def _fftshift_2d_in_place(field):
    """np.fft.fftshift of a 2D array with even sides, in place.

    The shift swaps diagonally opposite quadrants.  It goes a block of rows
    of the top half at a time, through one buffer of that block's size; the
    top and bottom blocks never overlap, so numpy copies each part once.
    """
    n0, n1 = field.shape
    h0, h1 = n0 // 2, n1 // 2
    rows = min(h0, max(1, _SWAP_BLOCK_CELLS // n1))
    buffer = np.empty((rows, n1), dtype=field.dtype)
    for r0 in range(0, h0, rows):
        top = field[r0 : min(r0 + rows, h0)]
        bottom = field[h0 + r0 : h0 + r0 + len(top)]
        held = buffer[: len(top)]
        np.copyto(held, top)
        top[:, :h1] = bottom[:, h1:]
        top[:, h1:] = bottom[:, :h1]
        bottom[:, :h1] = held[:, h1:]
        bottom[:, h1:] = held[:, :h1]
    return field


def to_time_2d(values, grid):
    field = np.fft.ifftshift(np.asarray(values, dtype=np.complex128))
    np.fft.fft2(field, out=field)
    field *= (grid.domega / (2.0 * np.pi)) ** 2
    return _fftshift_2d_in_place(field)
