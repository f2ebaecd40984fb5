"""Shared discrete Fourier convention.

Everything in this package uses the physics kernel exp(-i*omega*t) with a
1/(2*pi) factor per axis,

    F(t) = (1/2pi) * integral f(omega) * exp(-i*omega*t) domega,

discretised on the centred grids of FrequencyGrid.  Every caller squares
the transform (the witness reads detection statistics, never a temporal
phase), so it is centred by a sign flip and no cell moves.  For even n,
rolling the input by n/2 cells only multiplies output cell k by (-1)^k,
and negating the input cells of odd index ((-1)^(i+j) in 2D) rolls the
output by n/2 into centred order.  Both are exact, so each transform is
the centred one up to the sign of each cell, and its |F|^2 has the bits
of the recipe that rolls both.  The transforms run in place (numpy >= 2.0
`out=`) and scale before squaring; the 2D one works in its input by fixed
blocks (`_blocks`).  Each public function takes its array first, as
`values`.
"""

import numpy as np

from ._blocks import _for_blocks


def _centre(rows, r0=0):
    """Negate the cells (r, j) of rows with r0 + r + j odd, in place, one row at a time.

    A row is a 1D view, which numpy negates in place without a copy.
    Negating a whole row negates its transform, so any r0 centres each row.
    """
    for r, row in enumerate(np.atleast_2d(rows), r0):
        cells = row[(r + 1) % 2 :: 2]
        np.negative(cells, out=cells)


def _to_time_rows(values, grid, out):
    """The transform of each row of values into out, up to the sign of each cell; out is returned.

    values is C-contiguous with rows of even length, so its odd columns
    are the odd cells of its storage, negated through one view; it is
    consumed.  out has its shape and may be values itself.
    """
    _centre(values.reshape(-1))
    np.fft.fft(values, out=out)
    out *= grid.domega / (2.0 * np.pi)
    return out


def to_time_1d(values, grid):
    """|transform|^2 along the last axis, a new float array: each row of a 2D array is one signal."""
    field = np.array(values, dtype=np.complex128)
    power = np.abs(_to_time_rows(field, grid, field))
    power **= 2
    return power


def to_time_2d(values, grid):
    """|2D transform|^2 of an n x n array (n even), as that of np.fft.fft2 between the shifts.

    values is a writable complex n x n array, consumed: row blocks negate
    its odd-sum cells and transform its rows, and column blocks transform
    and scale its columns, in place; then row blocks square it into the
    new float array returned.  Each row and column is one 1D transform
    either way, so the bits are those of fft2.
    """
    n = len(values)
    scale = (grid.domega / (2.0 * np.pi)) ** 2
    power = np.empty((n, n))

    def rows(r0, r1):
        block = values[r0:r1]
        _centre(block, r0)
        np.fft.fft(block, out=block)

    def columns(c0, c1):
        block = values[:, c0:c1]
        np.fft.fft(block, axis=0, out=block)
        block *= scale

    def square(r0, r1):
        block = power[r0:r1]
        np.abs(values[r0:r1], out=block)
        block **= 2

    _for_blocks(n, n, rows)
    _for_blocks(n, n, columns)
    _for_blocks(n, n, square)
    return power
