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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fft import to_time_2d
from .errors import GridTooCoarseError, GridTooNarrowError, ParsevalError
from .moments import DispersionKit, TemporalCovariance
from .spectral import FrequencyGrid, _readonly

NORM_RTOL = 1e-9
EDGE_MASS_LIMIT = 1e-6
AMPLITUDE_MAGIC = 20044001.0
DENSITY_MAGIC = 20044002.0


@dataclass(frozen=True, eq=False)
class BiphotonAmplitude:
    """Complex n x n amplitude with sum |psi|^2 * domega^2 = 1 (within 1e-9).

    Axis 0 is omega1, axis 1 is omega2, both running over grid.omegas.
    """

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        arr = np.array(self.values, dtype=np.complex128, copy=True)
        if arr.shape != (n, n):
            raise ValueError(f"amplitude must have shape ({n}, {n}), got {arr.shape}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("amplitude must be finite")
        norm = float((np.abs(arr) ** 2).sum()) * self.grid.domega ** 2
        if abs(norm - 1.0) > NORM_RTOL:
            raise ValueError(f"amplitude norm is {norm}, must be 1 within {NORM_RTOL}")
        object.__setattr__(self, "values", _readonly(arr))

    @classmethod
    def from_values(cls, grid: FrequencyGrid, values) -> "BiphotonAmplitude":
        """Normalize arbitrary finite values and construct."""
        arr = np.asarray(values, dtype=np.complex128)
        norm = math.sqrt(float((np.abs(arr) ** 2).sum()) * grid.domega ** 2)
        if norm == 0.0:
            raise ValueError("cannot normalize an all-zero amplitude")
        return cls(grid, arr / norm)


@dataclass(frozen=True, eq=False)
class JointTemporalDensity:
    """Joint detection-time density p(t1, t2) on the conjugate time grid.

    Spacing dt = 2*pi/(n*domega); sum p * dt^2 = 1 within 1e-9.
    """

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.shape != (n, n):
            raise ValueError(f"density must have shape ({n}, {n}), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("density must be finite")
        if np.any(arr < 0.0):
            raise ValueError("density must be >= 0")
        mass = float(arr.sum()) * self.dt ** 2
        if abs(mass - 1.0) > NORM_RTOL:
            raise ValueError(f"density mass is {mass}, must be 1 within {NORM_RTOL}")
        object.__setattr__(self, "values", _readonly(arr))

    @property
    def dt(self) -> float:
        return self.grid.dt


def build_pdc_amplitude(grid: FrequencyGrid, pump_sigma: float, pm_sigma: float) -> BiphotonAmplitude:
    """Normalized Gaussian pair amplitude with pump width a and phase-matching width b.

    Grid validity is enforced per width: either at least 3 samples per sigma
    (domega < width/3) or the exact sub-cell delta-ridge limit
    (width <= domega/10); the band in between aliases and raises
    GridTooCoarseError.  Both widths need +-3 sigma inside the grid span or
    GridTooNarrowError is raised.  Errors carry the violated ratio.
    """
    a, b = pump_sigma, pm_sigma
    for name, width in (("pump_sigma", a), ("pm_sigma", b)):
        if not math.isfinite(width) or width <= 0.0:
            raise ValueError(f"{name} must be finite and > 0, got {width!r}")
    half_span = grid.n * grid.domega / 2.0
    widest = max(a, b)
    if 3.0 * widest >= half_span:
        raise GridTooNarrowError(
            f"grid half-span {half_span} rad/ps does not cover 3*max(a, b) = {3.0 * widest}",
            ratio=3.0 * widest / half_span,
        )
    for name, width in (("pump_sigma", a), ("pm_sigma", b)):
        if grid.domega < width / 3.0 or width <= grid.domega / 10.0:
            continue
        raise GridTooCoarseError(
            f"domega = {grid.domega} cannot resolve {name} = {width}: "
            "need domega < width/3 (resolved) or width <= domega/10 (delta ridge)",
            ratio=3.0 * grid.domega / width,
        )
    w = grid.omegas
    wsum = w[:, None] + w[None, :]
    wdiff = w[:, None] - w[None, :]
    raw = np.exp(-(wsum ** 2) / (4.0 * a ** 2) - (wdiff ** 2) / (4.0 * b ** 2))
    return BiphotonAmplitude.from_values(grid, raw)


def apply_dispersion_phase(psi: BiphotonAmplitude, kit: DispersionKit) -> BiphotonAmplitude:
    """Multiply by the opposite-sign quadratic spectral phase plus linear delays.

    Group delay bookkeeping: t1 gains delay_1 + 2*beta_L*omega1, t2 gains
    delay_2 - 2*beta_L*omega2.  The modulus is untouched, so frequency
    marginals and the norm are preserved.
    """
    w = psi.grid.omegas
    w2 = w ** 2
    phase = (
        kit.beta_L * w2[:, None]
        - kit.beta_L * w2[None, :]
        + kit.delay_1 * w[:, None]
        + kit.delay_2 * w[None, :]
    )
    return BiphotonAmplitude(psi.grid, psi.values * np.exp(1j * phase))


def to_time_domain(psi: BiphotonAmplitude) -> JointTemporalDensity:
    """|2D transform|^2, renormalized to unit mass on the time grid.

    The discrete transform is unitary up to the 1/(2pi)^2 bookkeeping, so
    the pre-normalization mass must equal norm/(2pi)^2; a mismatch beyond
    1e-9 means the kernel itself is broken and raises ParsevalError.
    """
    field = to_time_2d(psi.values, psi.grid)
    p = np.abs(field) ** 2
    dt = psi.grid.dt
    mass = float(p.sum()) * dt * dt
    norm = float((np.abs(psi.values) ** 2).sum()) * psi.grid.domega ** 2
    expected = norm / (2.0 * math.pi) ** 2
    if abs(mass / expected - 1.0) > NORM_RTOL:
        raise ParsevalError(
            f"Parseval identity violated: time mass {mass}, expected {expected}"
        )
    return JointTemporalDensity(psi.grid, p / mass)


def tau_marginal(density: JointTemporalDensity) -> tuple[np.ndarray, np.ndarray]:
    """Marginal density of tau = t1 - t2, reduced cyclically to the centred grid.

    Returns (tau values, density q) with sum q * dt = 1.  The cyclic
    reduction is exact for periodic grids; whether the marginal actually
    fits the grid is the caller's wrap check.

    Index difference d collects the cyclic diagonal p[(m + d) % n, m] over
    t2 index m.  Stacking the density twice along t1 makes every such
    diagonal a straight strided line: with row stride n and element stride
    n + 1 (in items), diag[d, m] = stacked[m + d, m].  The lines are copied
    contiguous before summing each over m, so the sums are those of a
    row-by-row gather, bit for bit.
    """
    n = density.grid.n
    dt = density.dt
    stacked = np.concatenate((density.values, density.values))
    step = stacked.itemsize
    diag = np.lib.stride_tricks.as_strided(
        stacked, shape=(n, n), strides=(n * step, (n + 1) * step), writeable=False
    )
    mass_by_diff = np.ascontiguousarray(diag).sum(axis=1) * dt * dt
    centred = mass_by_diff[(np.arange(n) - n // 2) % n]
    tau = density.grid.times
    return tau, centred / dt


def _tau_moments(density: JointTemporalDensity) -> tuple[float, float]:
    tau, q = tau_marginal(density)
    dt = density.dt
    edge_mass = float((q[0] + q[1] + q[-2] + q[-1]) * dt)
    if edge_mass >= EDGE_MASS_LIMIT:
        raise GridTooCoarseError(
            f"tau marginal wraps the time grid: edge mass {edge_mass} >= {EDGE_MASS_LIMIT}",
            ratio=edge_mass / EDGE_MASS_LIMIT,
        )
    weights = q * dt
    total = float(weights.sum())
    mean = float((tau * weights).sum() / total)
    var = float((((tau - mean) ** 2) * weights).sum() / total)
    return mean, var


def amplitude_moments(
    psi: BiphotonAmplitude, density: JointTemporalDensity | None = None
) -> TemporalCovariance:
    """Extract the (tau, Omega) covariance of an amplitude.

    Omega moments come from |psi|^2 on the frequency grid; tau moments from
    the tau marginal of the temporal density, which a caller that already
    holds `to_time_domain(psi)` passes in to save the transform.  The mixed
    covariance is not directly readable from either density, so it is
    probed through two small dispersion kicks +-eps: the exact shear identity
    Var_tau(betaL) = Var_tau + 4*betaL*cov + 4*betaL^2*Var_Omega makes the
    antisymmetric difference pick out the coupling alone,

        cov = (Var_tau(+eps) - Var_tau(-eps)) / (8*eps),
        eps = 1e-3 * sqrt(Var(tau)/Var(Omega)).

    When Var(Omega) is confined below a millionth of a grid cell the state
    carries no resolvable tau-Omega coupling and cov is exactly 0 by the
    Cauchy-Schwarz bound.
    """
    masses = (np.abs(psi.values) ** 2) * psi.grid.domega ** 2
    w = psi.grid.omegas
    wsum = w[:, None] + w[None, :]
    total = float(masses.sum())
    mean_omega = float((wsum * masses).sum() / total)
    var_omega = float((((wsum - mean_omega) ** 2) * masses).sum() / total)
    mean_tau, var_tau = _tau_moments(density if density is not None else to_time_domain(psi))
    if var_omega <= 1e-12 * psi.grid.domega ** 2 or var_tau <= 0.0:
        cov = 0.0
    else:
        eps = 1e-3 * math.sqrt(var_tau / var_omega)
        var_plus = _tau_moments(to_time_domain(apply_dispersion_phase(psi, DispersionKit(eps))))[1]
        var_minus = _tau_moments(to_time_domain(apply_dispersion_phase(psi, DispersionKit(-eps))))[1]
        cov = (var_plus - var_minus) / (8.0 * eps)
    return TemporalCovariance(
        var_tau=var_tau,
        var_omega=var_omega,
        cov_tau_omega=cov,
        mean_tau=mean_tau,
        mean_omega=mean_omega,
    )


# ---------------------------------------------------------------------------
# Interchange formats.

def amplitude_to_csv(psi: BiphotonAmplitude, path) -> None:
    """Row-major (omega1, omega2, re, im) rows, 17 significant digits."""
    w = psi.grid.omegas
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# n={psi.grid.n} domega_rad_ps={psi.grid.domega:.17g}\n")
        fh.write("omega1_rad_ps,omega2_rad_ps,re,im\n")
        for i in range(psi.grid.n):
            for j in range(psi.grid.n):
                v = psi.values[i, j]
                fh.write(f"{w[i]:.17g},{w[j]:.17g},{v.real:.17g},{v.imag:.17g}\n")


def density_to_csv(density: JointTemporalDensity, path) -> None:
    t = density.grid.times
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# n={density.grid.n} domega_rad_ps={density.grid.domega:.17g}\n")
        fh.write("t1_ps,t2_ps,p\n")
        for i in range(density.grid.n):
            for j in range(density.grid.n):
                fh.write(f"{t[i]:.17g},{t[j]:.17g},{density.values[i, j]:.17g}\n")


def _binary_header(magic: float, grid: FrequencyGrid) -> bytes:
    header = np.array(
        [magic, float(grid.n), grid.domega, grid.dt, 0.0, 0.0, 0.0, 0.0], dtype="<f8"
    )
    return header.tobytes()


def _read_binary_header(raw: bytes, magic: float, path) -> FrequencyGrid:
    header = np.frombuffer(raw[:64], dtype="<f8")
    if len(header) != 8 or header[0] != magic:
        raise ValueError(f"{path}: bad magic, not a recognised binary dump")
    grid = FrequencyGrid(n=int(header[1]), domega=float(header[2]))
    if abs(header[3] - grid.dt) > 1e-9 * grid.dt:
        raise ValueError(f"{path}: header dt inconsistent with n and domega")
    return grid


def amplitude_to_binary(psi: BiphotonAmplitude, path) -> None:
    """8-float64 header then row-major little-endian (re, im) float64 pairs."""
    with open(path, "wb") as fh:
        fh.write(_binary_header(AMPLITUDE_MAGIC, psi.grid))
        fh.write(np.ascontiguousarray(psi.values, dtype="<c16").tobytes())


def amplitude_from_binary(path) -> BiphotonAmplitude:
    with open(path, "rb") as fh:
        raw = fh.read()
    grid = _read_binary_header(raw, AMPLITUDE_MAGIC, path)
    data = np.frombuffer(raw[64:], dtype="<c16")
    return BiphotonAmplitude(grid, data.reshape(grid.n, grid.n))


def density_to_binary(density: JointTemporalDensity, path) -> None:
    """8-float64 header then row-major little-endian float64 densities."""
    with open(path, "wb") as fh:
        fh.write(_binary_header(DENSITY_MAGIC, density.grid))
        fh.write(np.ascontiguousarray(density.values, dtype="<f8").tobytes())


def density_from_binary(path) -> JointTemporalDensity:
    with open(path, "rb") as fh:
        raw = fh.read()
    grid = _read_binary_header(raw, DENSITY_MAGIC, path)
    data = np.frombuffer(raw[64:], dtype="<f8")
    return JointTemporalDensity(grid, data.reshape(grid.n, grid.n))
