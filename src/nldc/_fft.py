"""Shared discrete Fourier convention.

Everything in this package uses the physics kernel exp(-i*omega*t) with a
1/(2*pi) factor per axis,

    F(t) = (1/2pi) * integral f(omega) * exp(-i*omega*t) domega,

discretised on the centred grids of FrequencyGrid.  For even n the centred
index shuffle is exact, so the fftshift recipe below reproduces the kernel
with no residual phase factors.  The transform runs in place on the
shifted copy (numpy >= 2.0 `out=`) and is scaled before the output shift
(the same products, in other positions).  The 2D transform works in its
input, a writable n x n array: it shifts it in place, transforms its rows
and then its columns by fixed blocks (`_blocks`), and shifts it back, so
it allocates no array of its size.  The 1D one works in two arrays of its
input size, which the line route of `biphoton` owns and reuses.  Each
public function takes its array first, as `values`.
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
    """The 2D transform of an n x n array (n even), as np.fft.fft2 between the shifts, in place.

    values is a writable complex n x n array; it is shifted in place, then
    row blocks transform its rows, and column blocks transform and scale
    its columns, and it is returned.  Each row and column is one 1D
    transform either way, so the bits are those of fft2.
    """
    n = len(values)
    scale = (grid.domega / (2.0 * np.pi)) ** 2

    def rows(r0, r1, _):
        np.fft.fft(values[r0:r1], out=values[r0:r1])

    def columns(c0, c1, _):
        block = values[:, c0:c1]
        np.fft.fft(block, axis=0, out=block)
        block *= scale

    _fftshift_2d_in_place(values)  # the ifftshift, as n is even
    _for_blocks(n, n, rows)
    _for_blocks(n, n, columns)
    return _fftshift_2d_in_place(values)
