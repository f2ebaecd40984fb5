"""Two-photon spectral amplitudes on a 2D detuning grid.

This module is the numerical ground truth that the closed-form covariance
algebra in `moments` is checked against.  It holds the parametric pair
amplitude

    psi(omega1, omega2) ~ exp(-(omega1+omega2)^2 / (4 a^2))
                        * exp(-(omega1-omega2)^2 / (4 b^2))

(a = pump bandwidth, b = phase-matching bandwidth, both rad/ps), applies
dispersive propagation as the pure spectral phase

    exp(i * (beta_L*omega1^2 - beta_L*omega2^2
             + delay_1*omega1 + delay_2*omega2))

and maps to the joint detection-time density with the shared exp(-i*omega*t)
kernel (1/2pi per axis).  Closed-form moments of the continuum state:
Var(Omega) = a^2, Var(tau) = 1/b^2, cov(tau, Omega) = 0.

Grid discipline: amplitudes whose widths the grid cannot represent are hard
errors, never silent aliasing.  One deliberate exception is the
monochromatic-pump limit.  A width at or below domega/10 confines the
amplitude to a single row of grid cells (the off-cells underflow to exactly
zero), which is the exact delta-ridge limit of the continuum state; it is
accepted, and the discrete state then has zero variance along that
direction.  Widths between domega/10 and domega/3 are genuinely
misresolved and are rejected.

The t1 + t2 direction of a near-monochromatic pair state is uniform and
wraps the periodic time grid benignly, exactly like the continuous-wave
limit it represents.  Only the tau = t1 - t2 marginal feeds statistics, so
the wrap check guards that marginal alone.

Moments are read line by line in the sum frequency, with no 2D transform.
On the cyclic anti-diagonal psi[i, (s - i) % n] the sum Omega = omega1 +
omega2 is fixed, and the tau marginal is the sum over lines of |1D
transform along omega1|^2 (the t1 + t2 direction drops out by Parseval).
Dispersion beta_L*(omega1^2 - omega2^2) = beta_L*Omega*(omega1 - omega2) is
a linear phase along each line, so it shifts that line's tau profile
rigidly by 2*beta_L*Omega: the chronocyclic shear behind nonlocal
dispersion cancellation (Franson, Phys. Rev. A 45, 3126 (1992)).
cov(tau, Omega) is therefore the covariance of the line mean taus with the
line frequencies, computed exactly.  A cyclic line also holds cells of a
second true sum, Omega -+ n*domega; that branch, |omega1 + omega2| >=
n*domega/2, must stay empty, or the moments are rejected.  The exchanged
amplitude psi[j, i] (a run's minus arm) has the same lines, each reversed
in i, so its line profiles are the plus ones at tau -> -tau on the cyclic
grid, where cell 0 (tau = -n*dt/2) maps to itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._blocks import _for_blocks
from ._fft import _to_time_rows, to_time_2d
from .errors import GridTooCoarseError, GridTooNarrowError, ParsevalError
from .moments import DispersionKit, TemporalCovariance, _require_finite
from .spectral import FrequencyGrid, _gaussian_divisor, _own_or_copy, _Owned, _require_unwrapped, _take

NORM_RTOL = 1e-9
SECOND_BRANCH_LIMIT = 1e-9
DENSITY_MAGIC = 20044002.0


@dataclass(frozen=True, eq=False)
class BiphotonAmplitude:
    """Complex n x n amplitude with sum |psi|^2 * domega^2 = 1 (within 1e-9).

    Axis 0 is omega1, axis 1 is omega2, both running over grid.omegas.
    values is taken in by `spectral._own_or_copy` (copied, unless package
    code hands over a fresh array as `_Owned(array)`), and its norm is kept
    as `_norm`.  A kernel handed the amplitude as `_Owned(psi)` takes its
    values (`spectral._take`); its repr names its grid alone.
    """

    grid: FrequencyGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.grid.n
        arr = _own_or_copy(self.values, np.complex128, "amplitude", (n, n))
        norm = _sum_of_squares(arr) * self.grid.domega ** 2
        if abs(norm - 1.0) > NORM_RTOL:
            raise ValueError(f"amplitude norm is {norm}, must be 1 within {NORM_RTOL}")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_norm", norm)  # for the Parseval check of to_time_domain


@dataclass(frozen=True, eq=False)
class JointTemporalDensity:
    """Joint detection-time density p(t1, t2) on the conjugate time grid.

    Spacing dt = 2*pi/(n*domega); sum p * dt^2 = 1 within 1e-9.  values is
    taken in as for BiphotonAmplitude, and checked >= 0 as well.
    """

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        arr = _own_or_copy(self.values, np.float64, "density", (self.grid.n,) * 2, nonnegative=True)
        mass = float(arr.sum()) * self.dt ** 2  # summed in storage order, also for a transposed view
        if abs(mass - 1.0) > NORM_RTOL:
            raise ValueError(f"density mass is {mass}, must be 1 within {NORM_RTOL}")
        object.__setattr__(self, "values", arr)

    @property
    def dt(self) -> float:
        return self.grid.dt


def _sum_of_squares(values: np.ndarray) -> float:
    """sum |values|^2 of an n x n complex array.

    Each block of rows of its storage sums its own squares with no BLAS
    call (a threaded BLAS keeps spinning on the cores the row blocks need),
    and the block sums are added in one fixed order, so the value is the
    same on any machine, and the same for an array and its transpose.
    """
    # each row's real and imaginary parts, interleaved; a transposed view's storage goes by its columns
    cells = values.ravel(order="K").view(np.float64).reshape(len(values), -1)

    def block_sum(r0, r1):
        return np.einsum("ij,ij->", cells[r0:r1], cells[r0:r1])

    return float(np.sum(_for_blocks(len(values), len(values), block_sum)))


def build_pdc_amplitude(grid: FrequencyGrid, pump_sigma: float, pm_sigma: float) -> BiphotonAmplitude:
    """Normalized Gaussian pair amplitude with pump width a and phase-matching width b.

    Grid validity is enforced per width: either at least 3 samples per sigma
    (domega < width/3) or the exact sub-cell delta-ridge limit
    (width <= domega/10); the band in between aliases and raises
    GridTooCoarseError.  Both widths need +-3 sigma inside the grid span or
    GridTooNarrowError is raised.  Errors carry ratio = measured / limit and
    the limit.
    """
    a = _require_finite("pump_sigma", pump_sigma, above=0)
    b = _require_finite("pm_sigma", pm_sigma, above=0)
    half_span = grid.n * grid.domega / 2.0
    widest = max(a, b)
    if 3.0 * widest >= half_span:
        raise GridTooNarrowError(
            f"grid half-span {half_span} rad/ps does not cover 3*max(a, b) = {3.0 * widest}",
            ratio=3.0 * widest / half_span,
            limit=half_span,
        )
    for name, width in (("pump_sigma", a), ("pm_sigma", b)):
        if grid.domega < width / 3.0 or width <= grid.domega / 10.0:
            continue
        raise GridTooCoarseError(
            f"domega = {grid.domega} cannot resolve {name} = {width}: "
            "need domega < width/3 (resolved) or width <= domega/10 (delta ridge)",
            ratio=3.0 * grid.domega / width,
            limit=width / 3.0,
        )
    # exp(-(wsum^2)/(4a^2) - (wdiff^2)/(4b^2)), normalized, with the same
    # operations in the same order as the plain numpy expression, but in two
    # n x n buffers: the exponent and the complex result.  The result's
    # storage first holds the wdiff term and then the squares that give the
    # norm (its leading n^2 floats, laid out as one contiguous n x n array,
    # so the sum is that of a fresh array).  Each row block writes only its
    # own rows of both; the norm is summed over all of them at once.
    n = grid.n
    w = grid.omegas
    four_a2, four_b2 = _gaussian_divisor("pump_sigma", a, 4.0), _gaussian_divisor("pm_sigma", b, 4.0)
    out = np.empty((n, n), dtype=np.complex128)
    scratch = out.reshape(-1).view(np.float64)[: n * n].reshape(n, n)
    raw = np.empty((n, n))

    def exponent(r0, r1):
        e, s = raw[r0:r1], scratch[r0:r1]
        np.add.outer(w[r0:r1], w, out=e)
        np.square(e, out=e)
        np.negative(e, out=e)
        np.subtract.outer(w[r0:r1], w, out=s)
        np.square(s, out=s)
        with np.errstate(over="ignore"):  # per thread: a delta ridge's -inf term, exp's exact 0
            e /= four_a2
            s /= four_b2
            e -= s
        np.exp(e, out=e)
        np.multiply(e, e, out=s)

    _for_blocks(n, n, exponent)
    norm = math.sqrt(float(scratch.sum()) * grid.domega ** 2)

    # A complex divided by a real is a multiply by its reciprocal in numpy,
    # so this is the division of the plain expression, bit for bit.
    def scale(r0, r1):
        np.multiply(raw[r0:r1], 1.0 / norm, out=out.real[r0:r1])
        out.imag[r0:r1] = 0.0

    _for_blocks(n, n, scale)
    return BiphotonAmplitude(grid, _Owned(out))


def apply_dispersion_phase(psi: BiphotonAmplitude, kit: DispersionKit) -> BiphotonAmplitude:
    """Multiply by the opposite-sign quadratic spectral phase plus linear delays.

    Group delay bookkeeping: t1 gains delay_1 + 2*beta_L*omega1, t2 gains
    delay_2 - 2*beta_L*omega2.  The modulus is untouched, so frequency
    marginals and the norm are preserved.  psi is dispersed in its own
    storage if handed over as `_Owned(psi)`, and consumed; otherwise in
    one copy of it (`_take`), with the same bits.
    """
    psi, values = _take(psi, "values")
    w = psi.grid.omegas
    w_max = float(np.abs(w).max())
    peak = abs(kit.beta_L) * w_max * w_max + (abs(kit.delay_1) + abs(kit.delay_2)) * w_max
    if not math.isfinite(peak):
        raise ValueError(
            f"dispersion phase overflows on |omega| <= {w_max} rad/ps: beta_L = {kit.beta_L!r} ps^2, "
            f"delay_1 = {kit.delay_1!r} ps, delay_2 = {kit.delay_2!r} ps"
        )
    # Each row's phase is formed in the imaginary part of a one-row buffer
    # of its block, over a real part of zero, by 1-D ufuncs: broadcast ones
    # would buffer a block of cells of their own.
    n = w.size
    bw2 = kit.beta_L * w ** 2
    dw2 = kit.delay_2 * w

    def rows(r0, r1):
        factor = np.empty(n, dtype=np.complex128)
        phase = factor.imag
        for r in range(r0, r1):
            factor.real = 0.0
            np.subtract(bw2[r], bw2, out=phase)
            phase += kit.delay_1 * w[r]
            phase += dw2
            np.exp(factor, out=factor)
            np.multiply(values[r], factor, out=values[r])

    _for_blocks(n, n, rows)
    return BiphotonAmplitude(psi.grid, _Owned(values))


def to_time_domain(psi: BiphotonAmplitude) -> JointTemporalDensity:
    """|2D transform|^2 (`to_time_2d`), renormalized to unit mass on the time grid.

    The discrete transform is unitary up to the 1/(2pi)^2 bookkeeping, so
    the pre-normalization mass must equal norm/(2pi)^2; a mismatch beyond
    1e-9 means the kernel itself is broken and raises ParsevalError.  psi
    is transformed in its own storage if handed over as `_Owned(psi)`, and
    consumed, so the density, which the transform squares into and this
    normalizes in place, is the only array this adds; otherwise in one
    copy of it (`_take`), with the same bits.
    """
    psi, values = _take(psi, "values")
    n = psi.grid.n
    p = to_time_2d(values, psi.grid)
    del values
    dt = psi.grid.dt
    mass = float(p.sum()) * dt * dt
    expected = psi._norm / (2.0 * math.pi) ** 2
    _require_parseval("time mass", mass, expected)

    def normalize(r0, r1):
        block = p[r0:r1]
        block /= mass

    _for_blocks(n, n, normalize)
    return JointTemporalDensity(psi.grid, _Owned(p))


def _require_parseval(what: str, mass: float, expected: float) -> None:
    """ParsevalError (limit NORM_RTOL) unless mass / expected is 1 within NORM_RTOL; a NaN mass fails."""
    miss = abs(mass / expected - 1.0)
    if not miss <= NORM_RTOL:
        raise ParsevalError(
            f"Parseval identity violated: {what} {mass}, expected {expected}",
            ratio=miss / NORM_RTOL,
            limit=NORM_RTOL,
        )


def _exchanged(density: JointTemporalDensity) -> JointTemporalDensity:
    """The density with t1 and t2 exchanged, the minus arm's: a transposed view, checked like any density."""
    return JointTemporalDensity(density.grid, _Owned(density.values.T))


def _gather_lines(flat: np.ndarray, s0: int, out: np.ndarray) -> None:
    """Copy the cyclic lines s0 .. s0 + m - 1 (m = len(out), s0 + m <= n) into out.

    out[r, i] = psi[i, (s0 + r - i) % n], from flat, psi row-major: line s
    holds flat[s + i*(n - 1)] up to i = s and flat[s + n + i*(n - 1)] past
    its wrap, each one strided view inside flat.  Line r wraps after
    i = s0 + r, so in columns s0 + 1 .. s0 + m - 1 the cells past the wrap
    are copied over through a triangular mask (from lines 0 .. m - 2 alone).
    """
    m, n = out.shape
    step = flat.strides[0]

    def cells(base, i0, i1, rows=m):
        return as_strided(flat[base + i0 * (n - 1) :], shape=(rows, i1 - i0), strides=(step, (n - 1) * step))

    out[:, : s0 + m] = cells(s0, 0, s0 + m)
    out[:, s0 + m :] = cells(s0 + n, s0 + m, n)
    c = np.arange(m - 1)
    np.copyto(out[:-1, s0 + 1 : s0 + m], cells(s0 + n, s0 + 1, s0 + m, m - 1), where=c >= c[:, None])


def _sum_frequency_lines(psi: BiphotonAmplitude) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Tau marginal and per-line tau moments, one cyclic sum-frequency line at a time.

    Line k gathers psi[i, (k - n/2 - i) % n] over i; its centred sum index
    is k - n/2, so its frequency is grid.omegas[k].  Lines are gathered in
    fixed blocks of `_blocks.BLOCK_CELLS` cells (`_gather_lines`, into a
    buffer of the block) from psi's row-major storage, a view of it or one
    copy of any other layout, and each block is transformed along i in
    place, up to the sign of each cell, by one batched `_to_time_rows`; an
    all-zero line transforms to zeros and is skipped.  Per-block sums are
    added in block order, so the result is that of one thread, bit for
    bit.  With p = |transform|^2 on the tau grid grid.times, returns

        marginal[d] = sum_k p[k, d]        (the cyclic tau marginal)
        weight[k]   = sum_d p[k, d]        (the weight of line k)
        first[k]    = sum_d tau[d] p[k, d] (its unnormalized tau moment)
        edge[k]     = p[k, 0]              (its mass at tau[0] = -n*dt/2)

    and the share of sum |psi|^2 on the second branch.  sum p must equal
    n * (domega/2pi)^2 * sum |psi|^2 within NORM_RTOL, or ParsevalError.
    """
    grid = psi.grid
    n = grid.n
    half = n // 2
    i = np.arange(n)
    tau = grid.times
    flat = psi.values.ravel()
    weight = np.zeros(n)
    first = np.zeros(n)
    edge = np.zeros(n)

    def line_block(k0, k1):
        """The block's marginal, sum |psi|^2 and second-branch sum (every block is full: n is a power of two)."""
        rows = k1 - k0
        centred = np.arange(k0, k1) - half
        s = centred % n
        lines = np.empty((rows, n), dtype=np.complex128)
        unwrapped = min(rows, n - int(s[0]))  # s runs through n - 1 to 0 on a one-block grid alone
        _gather_lines(flat, int(s[0]), lines[:unwrapped])
        if unwrapped < rows:
            _gather_lines(flat, 0, lines[unwrapped:])
        cells = lines.real ** 2 + lines.imag ** 2
        # Before its wrap (i <= s) a cell's true sum index is s - n, past it s.
        # The first branch is the one equal to the centred index, and line
        # -n/2 is all second branch.
        off_branch = (i <= s[:, None]) != (centred < 0)[:, None]
        off_branch[centred == -half] = True
        second = cells.sum(where=off_branch)
        line_norm = cells.sum(axis=1)
        live = np.flatnonzero(line_norm)
        m = live.size
        if m == 0:
            return 0.0, line_norm.sum(), second
        g = _to_time_rows(lines if m == rows else lines[live], grid, lines[:m])
        del cells, off_branch  # so that the squares below take their room
        p = g.real ** 2 + g.imag ** 2
        weight[k0 + live] = p.sum(axis=1)
        first[k0 + live] = (p * tau).sum(axis=1)
        edge[k0 + live] = p[:, 0]
        return p.sum(axis=0), line_norm.sum(), second

    marginal = np.zeros(n)
    norm = second = 0.0
    for block_marginal, block_norm, block_second in _for_blocks(n, n, line_block):
        marginal += block_marginal  # in block order, as one thread would
        norm += float(block_norm)
        second += float(block_second)
    expected = n * (grid.domega / (2.0 * math.pi)) ** 2 * norm
    total = float(marginal.sum())
    _require_parseval("line transform mass", total, expected)
    return marginal, weight, first, edge, second / norm


def amplitude_moments(psi: BiphotonAmplitude) -> TemporalCovariance:
    """Extract the (tau, Omega) covariance of an amplitude by the line route.

    Every moment comes from one pass over the cyclic sum-frequency lines
    (`_sum_frequency_lines`): line k has weight W_k, mean tau m_k and
    frequency Omega_k = grid.omegas[k].  The tau moments come from the
    cyclic tau marginal, Var(Omega) from W_k and Omega_k, and

        cov(tau, Omega) = sum_k W_k (m_k - m)(Omega_k - Omega_bar) / sum_k W_k
                        = sum_k W_k m_k (Omega_k - Omega_bar) / sum_k W_k

    exactly (the m term drops, as sum_k W_k (Omega_k - Omega_bar) = 0):
    dispersion shifts each line's taus rigidly by 2*beta_L*Omega_k, which is
    the coupling this covariance measures.  A state confined to one
    line (the monochromatic-pump ridge) has Var(Omega) = cov = 0 exactly.

    Raises GridTooNarrowError when the second branch of the lines,
    |omega1 + omega2| >= n*domega/2, holds SECOND_BRANCH_LIMIT of the norm
    or more, and GridTooCoarseError when the tau marginal, or that of psi
    exchanged, wraps the grid.  That check reads four edge cells: lines a
    cell or two wide that dispersion wraps into a comb of spikes between
    them pass it, aliased, which `nldc run` catches by the moment algebra.
    """
    return _arm_moments(psi)[0]


def _arm_moments(psi: BiphotonAmplitude) -> tuple[TemporalCovariance, TemporalCovariance]:
    """amplitude_moments of psi and of psi exchanged (psi[j, i]), from one line pass.

    The exchanged lines are the plus lines reversed (module docstring): the
    same weights, so shared Omega moments, the marginal at -d % n, and
    the first moments 2*tau[0]*edge - first.  Each arm's marginal is checked.
    """
    marginal, weight, first, edge, second = _sum_frequency_lines(psi)
    if second >= SECOND_BRANCH_LIMIT:
        raise GridTooNarrowError(
            f"amplitude reaches |omega1 + omega2| >= n*domega/2 with mass share {second} "
            f">= {SECOND_BRANCH_LIMIT}; the sum frequency aliases on this grid",
            ratio=second / SECOND_BRANCH_LIMIT,
            limit=SECOND_BRANCH_LIMIT,
        )
    grid = psi.grid
    tau = grid.times
    lines_total = float(weight.sum())
    mean_omega = float((grid.omegas * weight).sum() / lines_total)
    d_omega = grid.omegas - mean_omega
    var_omega = float(((d_omega ** 2) * weight).sum() / lines_total)

    def arm(marginal, first):
        total = float(marginal.sum())
        _require_unwrapped(marginal / total, "tau marginal")
        mean_tau = float((tau * marginal).sum() / total)
        var_tau = float((((tau - mean_tau) ** 2) * marginal).sum() / total)
        cov = float((first * d_omega).sum() / lines_total)
        return TemporalCovariance(var_tau, var_omega, cov, mean_tau, mean_omega)

    return arm(marginal, first), arm(marginal[-np.arange(grid.n)], 2.0 * tau[0] * edge - first)


# ---------------------------------------------------------------------------
# Interchange format: the joint time density as a binary dump.

def density_to_binary(density: JointTemporalDensity, path) -> None:
    """Header (DENSITY_MAGIC, n, domega, dt, 0, 0, 0, 0), then the densities row-major; all little-endian float64."""
    grid = density.grid
    header = np.array([DENSITY_MAGIC, float(grid.n), grid.domega, grid.dt, 0.0, 0.0, 0.0, 0.0], dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(np.ascontiguousarray(density.values, dtype="<f8").tobytes())

