"""Stationary-beam spectra and cross-spectrum admissibility bounds.

Two beams of a zero-mean Gaussian stationary state are characterised by
dimensionless flux spectral densities S1(omega), S2(omega) on a common
detuning grid and by a complex cross-spectrum x(omega), the amplitude for
a correlated pair at detunings (omega, -omega).  Quantum mechanics bounds
the cross-spectrum by

    |x(omega)|^2 <= (1 + S1(omega)) * S2(-omega)

while classical (commuting) fields obey the tighter

    |x(omega)|^2 <= S1(omega) * S2(-omega).

The gap between the two, the spontaneous "+1", is what lets quantum light
carry pair correlations above any classical background; both checks are
exposed, together with the construction saturating the classical one.

Bounds are evaluated pointwise on the grid with a relative saturation
tolerance of 1e-9 so that extremal models pass their own check.  The grid
is symmetric about zero with omega_k = (k - n/2)*domega; reflection
omega -> -omega is an index permutation, with the lone endpoint
-n/2*domega mapping to itself (its positive partner is off the grid, so
the bound is checked one-sidedly there).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._blocks import _for_blocks, _write_in_groups
from .errors import GridMismatchError, GridTooCoarseError, GridTooNarrowError
from .moments import _require_finite

SATURATION_RTOL = 1e-9
EDGE_MASS_LIMIT = 1e-6


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class _Owned:
    """An array handed to a constructor, or a state handed to a kernel, which takes it instead of copying it.

    Package code wraps only an array it has just allocated and holds no
    other reference to.  The constructor still runs every check on it
    (`_own_or_copy`) and makes it read-only.  A kernel handed a state works
    in the state's own storage (`_take`), and those arrays of the state can
    no longer be read.  Anything passed unwrapped is copied, so a caller's
    array or state never aliases another object.
    """

    __slots__ = ("held",)

    def __init__(self, held):
        self.held = held


def _own_or_copy(values, dtype, what, shape=None, nonnegative=False) -> np.ndarray:
    """values as a read-only dtype array, kept if `_Owned` and copied if not: the intake of every held array.

    ValueError "<what> must have shape <shape>, got <shape>", "<what> must be
    finite" or (if nonnegative) "<what> must be >= 0", checked in that order,
    the last two in fixed `_for_blocks` blocks of its storage.
    """
    owned = isinstance(values, _Owned)
    arr = np.array(values.held if owned else values, dtype=dtype, copy=None if owned else True)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if arr.size:
        cells = np.atleast_2d(arr.T if arr.flags.f_contiguous else arr)  # a transposed view goes by its columns
        cells = cells.reshape(-1, cells.shape[-1])  # a 1D array is one row, so one block: no thread hand-off

        def faults(r0, r1):
            block = cells[r0:r1]
            return not np.isfinite(block).all(), nonnegative and bool((block < 0.0).any())

        for fault, condition in zip(np.any(_for_blocks(*cells.shape, faults), axis=0), ("finite", ">= 0")):
            if fault:
                raise ValueError(f"{what} must be {condition}")
    return _readonly(arr)


def _take(state, *names) -> tuple:
    """(state, then its arrays `names`, writable for a kernel to work in).

    `_Owned(state)` gives its own storage, which the state no longer holds after; a plain one gives C-contiguous copies.
    """
    if not isinstance(state, _Owned):
        return (state, *(np.array(getattr(state, name), order="C") for name in names))
    arrays = [getattr(state.held, name) for name in names]
    for name, arr in zip(names, arrays):
        arr.setflags(write=True)
        object.__delattr__(state.held, name)
    return (state.held, *arrays)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform detuning grid omega_k = (k - n/2)*domega, k = 0..n-1.

    n must be a power of two (>= 8) so FFT sign-flip centring is exact; domega
    is the spacing in rad/ps.  The conjugate time grid has spacing
    dt = 2*pi/(n*domega) and is centred the same way.
    """

    n: int
    domega: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 8 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 8, got {self.n!r}")
        _require_finite("domega", self.domega, above=0)
        span = self.n * self.domega  # each omega, and each sum or difference of two, squares below this
        _require_finite("the squared frequency span (n*domega)^2", span * span)

    @cached_property
    def omegas(self) -> np.ndarray:
        return _readonly((np.arange(self.n) - self.n // 2) * self.domega)

    @property
    def dt(self) -> float:
        return 2.0 * math.pi / (self.n * self.domega)

    @cached_property
    def times(self) -> np.ndarray:
        return _readonly((np.arange(self.n) - self.n // 2) * self.dt)


def _require_unwrapped(mass: np.ndarray, what: str) -> None:
    """Reject a tau profile that reaches the edge of the centred time grid.

    mass holds each cell's share of the profile (summing to 1).  Mass in the
    two outermost cells at either end means the profile wraps the periodic
    grid, so it must stay below EDGE_MASS_LIMIT.
    """
    edge = float(mass[0] + mass[1] + mass[-2] + mass[-1])
    if edge >= EDGE_MASS_LIMIT:
        raise GridTooCoarseError(
            f"{what} wraps the time grid: edge mass {edge} >= {EDGE_MASS_LIMIT}",
            ratio=edge / EDGE_MASS_LIMIT,
            limit=EDGE_MASS_LIMIT,
        )


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """A non-negative flux spectral density sampled on a FrequencyGrid."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        values = _own_or_copy(self.values, np.float64, "spectrum values", (self.grid.n,), nonnegative=True)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class CrossSpectrum:
    """A complex cross-spectrum x(omega) sampled on a FrequencyGrid."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        values = _own_or_copy(self.values, np.complex128, "cross-spectrum values", (self.grid.n,))
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class AdmissibilityReport:
    """ok flag plus the worst ratio |x|^2/bound and where it occurs.

    The ratio is 0 where both sides vanish and +inf where the bound is zero
    but the cross-spectrum is not.
    """

    ok: bool
    worst_ratio: float
    worst_omega: float


def require_same_grid(*objs) -> FrequencyGrid:
    grid = objs[0].grid
    for other in objs[1:]:
        if other.grid != grid:
            raise GridMismatchError(
                f"grids differ: {grid} vs {other.grid}; resample to a shared grid first"
            )
    return grid


def reflected(values: np.ndarray) -> np.ndarray:
    """values evaluated at -omega; the -n/2*domega endpoint maps to itself."""
    n = len(values)
    return values[(-np.arange(n)) % n]


def gaussian_spectrum(
    grid: FrequencyGrid, peak: float, sigma: float, center: float = 0.0
) -> SpectralModel:
    """peak * exp(-(omega - center)^2 / (2*sigma^2)) on the grid.

    GridTooNarrowError, with ratio = (|center| + 3*sigma) / (n*domega/2) and
    the half span as limit, unless center +- 3*sigma lies inside the grid,
    as build_pdc_amplitude requires of its widths.  A Gaussian that rounds
    to one value on every cell passes: it is a flat spectrum (the zero one
    included), which the grid holds by definition.
    """
    _require_finite("peak", peak, at_least=0)
    two_var = _gaussian_divisor("sigma", _require_finite("sigma", sigma, above=0), 2.0)
    _require_finite("center", center)
    with np.errstate(over="ignore"):  # an exponent past the float range is -inf, which exp makes an exact 0
        exponent = -((grid.omegas - center) ** 2)
        exponent /= two_var
    values = peak * np.exp(exponent)
    half_span = grid.n * grid.domega / 2.0
    reach = abs(center) + 3.0 * sigma
    if reach >= half_span and values.min() < values.max():
        raise GridTooNarrowError(
            f"grid half-span {half_span} rad/ps does not cover |center| + 3*sigma = {reach}",
            ratio=reach / half_span,
            limit=half_span,
        )
    return SpectralModel(grid, values)


def _gaussian_divisor(name: str, width: float, factor: float) -> float:
    """factor * width ** 2, a Gaussian exponent's divisor; ValueError naming the width if width^2 overflows or it is 0.

    A tiny divisor is kept: the exponent's -inf off the centre is the delta limit.
    """
    square = width ** 2 if math.isfinite(width * width) else math.inf  # a float power raises on overflow
    if not 0.0 < square < math.inf:
        raise ValueError(f"{name} = {width!r} rad/ps is out of range: {name}^2 rounds to {square!r}")
    return factor * square


def flat_spectrum(grid: FrequencyGrid, value: float) -> SpectralModel:
    return SpectralModel(grid, np.full(grid.n, _require_finite("value", value, at_least=0)))


def gaussian_cross(
    grid: FrequencyGrid, peak: float, sigma: float, center: float = 0.0
) -> CrossSpectrum:
    """A real Gaussian cross-spectrum magnitude (no spectral phase)."""
    mag = gaussian_spectrum(grid, peak, sigma, center).values
    return CrossSpectrum(grid, mag.astype(np.complex128))


def flat_cross(grid: FrequencyGrid, value: float) -> CrossSpectrum:
    """A flat real cross-spectrum (no spectral phase)."""
    return CrossSpectrum(grid, flat_spectrum(grid, value).values.astype(np.complex128))


def intensity(s: SpectralModel) -> float:
    """Photon flux (photons/ps): (1/2pi) * sum(values) * domega; inf if the sum passes the float range."""
    with np.errstate(over="ignore"):
        return float(s.values.sum() * s.grid.domega / (2.0 * math.pi))


def _admissibility(x: CrossSpectrum, bound: np.ndarray, grid: FrequencyGrid) -> AdmissibilityReport:
    mag2 = np.abs(x.values) ** 2
    ratio = np.zeros(grid.n)
    nz = bound > 0.0
    ratio[nz] = mag2[nz] / bound[nz]
    ratio[~nz & (mag2 > 0.0)] = np.inf
    worst = int(np.argmax(np.where(np.isnan(ratio), -np.inf, ratio)))  # a defined ratio, unless none is
    # A cell whose |x|^2 or bound is past the float range fails, even at inf <= inf.
    ok = bool(np.all(np.isfinite(mag2) & np.isfinite(bound) & (mag2 <= bound * (1.0 + SATURATION_RTOL))))
    return AdmissibilityReport(
        ok=ok, worst_ratio=float(ratio[worst]), worst_omega=float(grid.omegas[worst])
    )


def quantum_admissible(
    s1: SpectralModel, s2: SpectralModel, x: CrossSpectrum
) -> AdmissibilityReport:
    """Check |x(omega)|^2 <= (1 + S1(omega)) * S2(-omega) pointwise."""
    grid = require_same_grid(s1, s2, x)
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range a bound or |x|^2 is inf, inf/inf nan
        return _admissibility(x, (1.0 + s1.values) * reflected(s2.values), grid)


def classical_admissible(
    s1: SpectralModel, s2: SpectralModel, x: CrossSpectrum
) -> AdmissibilityReport:
    """Check the classical ceiling |x(omega)|^2 <= S1(omega) * S2(-omega)."""
    grid = require_same_grid(s1, s2, x)
    with np.errstate(over="ignore", invalid="ignore"):  # as in quantum_admissible
        return _admissibility(x, s1.values * reflected(s2.values), grid)


def max_classical_cross(s1: SpectralModel, s2: SpectralModel) -> CrossSpectrum:
    """The non-negative cross-spectrum saturating the classical bound pointwise."""
    grid = require_same_grid(s1, s2)
    with np.errstate(over="ignore"):  # a product past the float range is inf, which CrossSpectrum rejects
        mag = np.sqrt(s1.values * reflected(s2.values))
    return CrossSpectrum(grid, mag.astype(np.complex128))


# ---------------------------------------------------------------------------
# CSV interchange.  Columns hold (omega, value) or (omega, re, im); an exact
# grid descriptor rides in a comment line so round trips are bit-faithful.

# Rows formatted per `%`.  Bounds what one `%` holds, the chunk's value
# tuple and its text (about 0.6 MB of text for two 17-digit columns),
# whatever the length of the table, in each process that formats a part.
_CHUNK_ROWS = 1 << 14


def _write_formatted_rows(fh, row_template, cols) -> None:
    """Write row_template % row for every row of the equal-length columns.

    Each chunk is one `%` of the template repeated per row on the chunk's
    values in row-major order, which formats every value exactly as a
    per-row `%` would, so the bytes equal those of a row loop.  Groups of
    chunks are formatted in parallel processes (`_blocks._write_in_groups`).
    """
    n = len(cols[0])

    def write(out, c0, c1):
        for start in range(c0 * _CHUNK_ROWS, min(c1 * _CHUNK_ROWS, n), _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, n)
            block = np.column_stack([c[start:stop] for c in cols])
            out.write(row_template * (stop - start) % tuple(block.ravel().tolist()))

    _write_in_groups(fh, -(-n // _CHUNK_ROWS), write)


def _write_table(path, lines, cols) -> None:
    """The head lines, then the equal-length columns at 17 significant digits, one row per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))
        _write_formatted_rows(fh, ",".join(["%.17g"] * len(cols)) + "\n", cols)


def _grid_line(grid: FrequencyGrid) -> str:
    """The first line of a grid CSV: an exact grid descriptor (`_read_rows`)."""
    return f"# n={grid.n} domega_rad_ps={grid.domega:.17g}"


def _read_body(fh, path, header: str) -> np.ndarray:
    """The rows of an open CSV whose first line the caller has read: header line, then its columns."""
    line = fh.readline().strip()
    if line != header:
        raise ValueError(f"{path}: the second line must read {header!r}, got {line!r}")
    with warnings.catch_warnings():
        # An empty body is rejected below, by its shape, without a numpy warning on stderr.
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != header.count(",") + 1:
        raise ValueError(f"{path}: the body must have the columns {header}, found shape {data.shape}")
    return data


def _read_rows(path, header):
    with open(path, "r", encoding="utf-8") as fh:
        comment = fh.readline().strip()
        try:
            if not comment.startswith("# n="):
                raise ValueError
            parts = dict(p.split("=", 1) for p in comment[2:].split())
            n, domega = int(parts["n"]), float(parts["domega_rad_ps"])
        except (KeyError, ValueError):
            raise ValueError(
                f"{path}: the first line must read '# n=<int> domega_rad_ps=<float>', got {comment!r}"
            ) from None
        grid = FrequencyGrid(n=n, domega=domega)
        data = _read_body(fh, path, header)
    if len(data) != grid.n:
        raise ValueError(f"{path}: expected {grid.n} rows, got {len(data)}")
    if not np.allclose(data[:, 0], grid.omegas, rtol=0.0, atol=1e-9 * grid.domega):
        raise ValueError(f"{path}: omega column does not match the declared grid")
    return grid, data


def spectrum_to_csv(s: SpectralModel, path) -> None:
    _write_table(path, (_grid_line(s.grid), "omega_rad_ps,value"), (s.grid.omegas, s.values))


def spectrum_from_csv(path) -> SpectralModel:
    grid, data = _read_rows(path, "omega_rad_ps,value")
    return SpectralModel(grid, data[:, 1])


def cross_to_csv(x: CrossSpectrum, path) -> None:
    _write_table(path, (_grid_line(x.grid), "omega_rad_ps,re,im"), (x.grid.omegas, x.values.real, x.values.imag))


def cross_from_csv(path) -> CrossSpectrum:
    grid, data = _read_rows(path, "omega_rad_ps,re,im")
    return CrossSpectrum(grid, data[:, 1] + 1j * data[:, 2])
