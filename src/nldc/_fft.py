"""Shared discrete Fourier convention.

Everything in this package uses the physics kernel exp(-i*omega*t) with a
1/(2*pi) factor per axis,

    F(t) = (1/2pi) * integral f(omega) * exp(-i*omega*t) domega,

discretised on the centred grids of FrequencyGrid.  For even n the centred
index shuffle is exact, so the fftshift recipe below reproduces the kernel
with no residual phase factors.  The transform runs in place on the
shifted copy (numpy >= 2.0 `out=`) and is scaled before the output shift
(the same products, in other positions).  The 2D transform goes by fixed
row and column blocks (`_blocks`) and shifts its output in place, so it
holds one array of its output size; the 1D one works in two arrays of its
input size, which the line route of `biphoton` owns and reuses.
"""

import numpy as np

from ._blocks import _for_blocks


def _to_time_rows(values, grid, work, out):
    """to_time_1d of values into out, through work; both have values' shape.

    out may be values itself, and is returned.
    """
    h = values.shape[-1] // 2
    work[..., :h] = values[..., h:]
    work[..., h:] = values[..., :h]
    np.fft.fft(work, out=work)
    work *= grid.domega / (2.0 * np.pi)
    out[..., :h] = work[..., h:]
    out[..., h:] = work[..., :h]
    return out


def to_time_1d(values, grid):
    """Transform along the last axis: each row of a 2D array is one signal."""
    field = np.asarray(values, dtype=np.complex128)
    return _to_time_rows(field, grid, np.empty_like(field), np.empty_like(field))


def _fftshift_2d_in_place(field):
    """np.fft.fftshift of a 2D array with even sides, in place.

    The shift swaps diagonally opposite quadrants.  It goes a block of rows
    of the top half at a time, through one buffer of a block's size per
    worker; the top and bottom blocks never overlap, so numpy copies each
    part once.
    """
    n0, n1 = field.shape
    h0, h1 = n0 // 2, n1 // 2

    def swap(r0, r1, buffer):
        top, bottom, held = field[r0:r1], field[h0 + r0 : h0 + r1], buffer[: r1 - r0]
        np.copyto(held, top)
        top[:, :h1] = bottom[:, h1:]
        top[:, h1:] = bottom[:, :h1]
        bottom[:, :h1] = held[:, h1:]
        bottom[:, h1:] = held[:, :h1]

    _for_blocks(h0, n1, swap, lambda rows: np.empty((rows, n1), dtype=field.dtype))
    return field


def to_time_2d(values, grid):
    """The 2D transform of an n x n array (n even), as np.fft.fft2 between the shifts.

    Row blocks take their ifftshifted rows and transform them; then column
    blocks transform and scale their columns.  Each row and column is one
    1D transform either way, so the bits are those of fft2.
    """
    values = np.asarray(values, dtype=np.complex128)
    n = len(values)
    h = n // 2
    field = np.empty((n, n), dtype=np.complex128)
    scale = (grid.domega / (2.0 * np.pi)) ** 2

    def rows(r0, r1, _):
        # Output row r takes input row (r + h) % n: the top rows from below h, the rest from above.
        for a, b, source in ((r0, min(r1, h), h), (max(r0, h), r1, -h)):
            if a < b:
                held = values[a + source : b + source]
                field[a:b, :h] = held[:, h:]
                field[a:b, h:] = held[:, :h]
        np.fft.fft(field[r0:r1], out=field[r0:r1])

    def columns(c0, c1, _):
        block = field[:, c0:c1]
        np.fft.fft(block, axis=0, out=block)
        block *= scale

    _for_blocks(n, n, rows)
    _for_blocks(n, n, columns)
    return _fftshift_2d_in_place(field)
