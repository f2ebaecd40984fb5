"""Coincidence statistics of windowed stationary two-beam Gaussian models.

For a zero-mean stationary Gaussian state the frequency-integrated
coincidence density in the detection times splits into a constant
accidental floor plus a correlated ridge,

    G(t1, t2) = B + |g(t1 - t2)|^2,       B = I1 * I2,

where g(tau) = (1/2pi) * integral x(omega) exp(-i*omega*tau) domega is the
transform of the cross-spectrum and I_j the beam fluxes.  Restricting
emission to a shutter window [0, T] turns the floor into the triangular
time-difference law with variance T^2/6, growing without bound in T, while
the correlated ridge keeps its fixed width.  The windowed mixture variance
and the background/signal weighting

    W_b = B * T^2,   W_s = T * integral |g|^2 dtau

are what an experiment actually estimates, so they are the quantities
exposed here and fed to the covariance pipeline.

The correlated ridge of a stationary state carries Omega = omega1 + omega2
= 0 exactly (pairs are born frequency-anticorrelated), so opposite-sign
dispersion leaves it untouched while the accidental floor inherits the
full spectral Omega spread.  windowed_covariance encodes exactly that
mixture; finite-window broadening of the Omega = 0 line is neglected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._fft import to_time_1d
from .errors import AdmissibilityError, DegenerateStateError, WindowTooSmallError
from .moments import TemporalCovariance, _require_finite
from .spectral import (
    SATURATION_RTOL,
    CrossSpectrum,
    FrequencyGrid,
    SpectralModel,
    _grid_line,
    _own_or_copy,
    _Owned,
    _require_unwrapped,
    _write_table,
    classical_admissible,
    intensity,
    quantum_admissible,
    require_same_grid,
)


@dataclass(frozen=True, eq=False)
class StationaryPairModel:
    """Two stationary beams, their cross-spectrum and a shutter window T (ps).

    regime is worked out at construction: "classical" within the classical
    ceiling, else "quantum" within the quantum bound (checked only then),
    else AdmissibilityError, so an inadmissible model never exists.
    """

    s1: SpectralModel
    s2: SpectralModel
    cross: CrossSpectrum
    window: float
    regime: str = field(init=False)

    def __post_init__(self):
        require_same_grid(self.s1, self.s2, self.cross)
        _require_finite("window", self.window, above=0)
        regime, report = "classical", classical_admissible(self.s1, self.s2, self.cross)
        if not report.ok:
            regime, report = "quantum", quantum_admissible(self.s1, self.s2, self.cross)
        if not report.ok:
            note = ": |x|^2 and its bound pass the float range in every cell" if math.isnan(report.worst_ratio) else ""
            raise AdmissibilityError(
                "cross-spectrum violates the quantum bound: worst ratio "
                f"{report.worst_ratio} at omega = {report.worst_omega} rad/ps{note}",
                ratio=report.worst_ratio / (1.0 + SATURATION_RTOL),
                limit=1.0 + SATURATION_RTOL,
                worst_omega=report.worst_omega,
            )
        object.__setattr__(self, "regime", regime)

    @property
    def grid(self) -> FrequencyGrid:
        return self.s1.grid

    @cached_property
    def profile(self) -> TauDensity:
        """B = I1*I2 and |g(tau)|^2 from the transform of the cross-spectrum, once per model."""
        with np.errstate(over="ignore", invalid="ignore"):  # past the float range, TauDensity rejects the signal
            signal = to_time_1d(self.cross.values, self.grid)
        return TauDensity(
            grid=self.grid,
            signal=_Owned(signal),
            background=intensity(self.s1) * intensity(self.s2),
            window=self.window,
        )


@dataclass(frozen=True, eq=False)
class TauDensity:
    """Coincidence profile: signal |g(tau)|^2 on the conjugate time grid,
    a flat background level B = I1*I2 (photons^2/ps^2) and the window T (ps).
    signal is copied unless package code hands it over as `_Owned(array)`."""

    grid: FrequencyGrid
    signal: np.ndarray
    background: float
    window: float

    def __post_init__(self):
        signal = _own_or_copy(self.signal, np.float64, "signal", (self.grid.n,), nonnegative=True)
        object.__setattr__(self, "signal", signal)
        _require_finite("background", self.background, at_least=0)
        _require_finite("window", self.window, above=0)

    @cached_property
    def _signal_moments(self) -> tuple[float, float, float]:
        """(mean, variance, integrated weight) of the signal profile.

        Raises GridTooCoarseError when signal mass reaches the tau grid edge
        (the profile would wrap) and WindowTooSmallError when the window does
        not cover 6x the RMS width sqrt(E[tau^2]) of the profile.
        """
        with np.errstate(over="ignore"):  # a sum past the float range is inf, rejected below
            total = float(self.signal.sum()) * self.grid.dt
        if total == 0.0:
            return 0.0, 0.0, 0.0
        _require_finite("the integrated signal", total)
        span = self.grid.n * self.grid.dt  # each tau, and its deviation from the mean, squares below this
        _require_finite("the squared time span (n*dt)^2", span * span)
        weights = self.signal * self.grid.dt / total
        _require_unwrapped(weights, "signal profile")
        tau = self.grid.times
        mean = float((tau * weights).sum())
        var = float((((tau - mean) ** 2) * weights).sum())
        rms = math.sqrt(var + mean * mean)
        WindowTooSmallError._unless_at_most(
            f"window T = {self.window} ps must cover 6x the signal RMS width {rms} ps", 6.0 * rms, self.window
        )
        return mean, var, total

    @cached_property
    def windowed(self) -> WindowedTauStats:
        """Variance of tau over the windowed background/signal mixture.

        Background events follow the triangular difference law (variance
        T^2/6, mean 0); signal events follow the normalized profile.  The
        mixture adds the usual cross-mean term, which vanishes for symmetric
        profiles.
        """
        mean_s, var_s, total = self._signal_moments
        T = self.window
        w_background = self.background * T * T
        w_signal = T * total
        if w_background + w_signal == 0.0:
            raise DegenerateStateError("model has neither background nor signal weight")
        f_s = w_signal / (w_background + w_signal)
        f_b = 1.0 - f_s
        variance = f_b * (T * T / 6.0) + f_s * var_s + f_s * f_b * mean_s ** 2
        return WindowedTauStats(variance=variance, signal_fraction=f_s)


@dataclass(frozen=True)
class WindowedTauStats:
    variance: float
    signal_fraction: float


def _spectral_moments(s: SpectralModel) -> tuple[float, float]:
    total = float(s.values.sum())
    if total == 0.0:
        return 0.0, 0.0
    w = s.grid.omegas
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range, TemporalCovariance rejects them
        mean = float((w * s.values).sum() / total)
        var = float((((w - mean) ** 2) * s.values).sum() / total)
    return mean, var


def windowed_covariance(m: StationaryPairModel) -> TemporalCovariance:
    """Covariance of (tau, Omega) for the windowed mixture.

    The background carries the convolved spectral Omega spread with tau and
    Omega independent; the signal ridge carries Omega = 0 exactly.  This is
    the moments-route entry point for stationary models.  Both neglect the
    window's frequency spread: WindowTooSmallError unless T >= 6/sqrt(v1 + v2)
    for beam frequency variances v1, v2, so pure background has product >= 6.
    """
    d = m.profile
    stats = d.windowed
    f_s = stats.signal_fraction
    f_b = 1.0 - f_s
    mean_s, _, _ = d._signal_moments
    m1, v1 = _spectral_moments(m.s1)
    m2, v2 = _spectral_moments(m.s2)
    mean_omega_b = m1 + m2
    var_omega = f_b * (v1 + v2) + f_b * f_s * mean_omega_b ** 2
    mean_tau = f_s * mean_s
    mean_omega = f_b * mean_omega_b
    covariance = TemporalCovariance(
        var_tau=stats.variance,
        var_omega=var_omega,
        cov_tau_omega=-mean_tau * mean_omega,  # E[tau*Omega] = 0 in both mixture components
        mean_tau=mean_tau,
        mean_omega=mean_omega,
    )
    coherence = 1.0 / math.sqrt(v1 + v2) if v1 + v2 > 0.0 else math.inf  # v1 + v2 is finite once covariance is
    message = f"window T = {m.window} ps must cover 6x the beams' coherence time 1/sqrt(v1 + v2) = {coherence} ps"
    WindowTooSmallError._unless_at_most(message, 6.0 * coherence, m.window)
    return covariance


def tau_density_to_csv(d: TauDensity, path) -> None:
    """Plot-ready rows (tau_ps, signal, background, window_ps)."""
    n = d.grid.n
    cols = (d.grid.times, d.signal, np.full(n, d.background), np.full(n, d.window))
    _write_table(path, (_grid_line(d.grid), "tau_ps,signal,background,window_ps"), cols)
