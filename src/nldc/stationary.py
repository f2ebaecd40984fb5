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
from dataclasses import dataclass
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
    _own_or_copy,
    _Owned,
    _readonly,
    _require_unwrapped,
    _write_rows,
    classical_admissible,
    intensity,
    quantum_admissible,
    require_same_grid,
)

REGIMES = ("quantum", "classical")


@dataclass(frozen=True, eq=False)
class StationaryPairModel:
    """Two stationary beams, their cross-spectrum and a shutter window T (ps).

    The declared regime's admissibility bound is checked at construction;
    an inadmissible model never exists.
    """

    s1: SpectralModel
    s2: SpectralModel
    cross: CrossSpectrum
    window: float
    regime: str

    def __post_init__(self):
        require_same_grid(self.s1, self.s2, self.cross)
        _require_finite("window", self.window, above=0)
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        check = classical_admissible if self.regime == "classical" else quantum_admissible
        report = check(self.s1, self.s2, self.cross)
        if not report.ok:
            raise AdmissibilityError(
                f"cross-spectrum violates the {self.regime} bound: worst ratio "
                f"{report.worst_ratio} at omega = {report.worst_omega} rad/ps",
                ratio=report.worst_ratio / (1.0 + SATURATION_RTOL),
                limit=1.0 + SATURATION_RTOL,
            )

    @property
    def grid(self) -> FrequencyGrid:
        return self.s1.grid

    @cached_property
    def profile(self) -> TauDensity:
        """B = I1*I2 and |g(tau)|^2 from the transform of the cross-spectrum, once per model."""
        g = to_time_1d(self.cross.values, self.grid)
        return TauDensity(
            grid=self.grid,
            signal=_Owned(np.abs(g) ** 2),
            background=intensity(self.s1) * intensity(self.s2),
            window=self.window,
        )


def make_pair_model(
    s1: SpectralModel, s2: SpectralModel, cross: CrossSpectrum, window: float
) -> StationaryPairModel:
    """Construct a model, classifying the regime from the admissibility checks.

    A cross-spectrum inside the classical ceiling is recorded as classical;
    one that needs the spontaneous term is quantum; anything above the
    quantum bound is rejected.
    """
    try:
        return StationaryPairModel(s1, s2, cross, window, "classical")
    except AdmissibilityError:
        return StationaryPairModel(s1, s2, cross, window, "quantum")


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
        arr = _own_or_copy(self.signal, np.float64, (self.grid.n,), "signal")
        if not np.isfinite(arr).all():
            raise ValueError("signal must be finite")
        if np.any(arr < 0.0):
            raise ValueError("signal must be >= 0")
        _require_finite("background", self.background, at_least=0)
        _require_finite("window", self.window, above=0)
        object.__setattr__(self, "signal", _readonly(arr))

    @property
    def taus(self) -> np.ndarray:
        return self.grid.times

    @property
    def dt(self) -> float:
        return self.grid.dt

    @cached_property
    def _signal_moments(self) -> tuple[float, float, float]:
        """(mean, variance, integrated weight) of the signal profile.

        Raises GridTooCoarseError when signal mass reaches the tau grid edge
        (the profile would wrap) and WindowTooSmallError when the window does
        not cover 6x the RMS width sqrt(E[tau^2]) of the profile.
        """
        total = float(self.signal.sum()) * self.dt
        if total == 0.0:
            return 0.0, 0.0, 0.0
        weights = self.signal * self.dt / total
        _require_unwrapped(weights, "signal profile")
        tau = self.taus
        mean = float((tau * weights).sum())
        var = float((((tau - mean) ** 2) * weights).sum())
        rms = math.sqrt(var + mean * mean)
        if self.window < 6.0 * rms:
            raise WindowTooSmallError(
                f"window T = {self.window} ps must cover 6x the signal RMS width {rms} ps",
                ratio=6.0 * rms / self.window,
                limit=self.window,
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
    mean = float((w * s.values).sum() / total)
    var = float((((w - mean) ** 2) * s.values).sum() / total)
    return mean, var


def windowed_covariance(m: StationaryPairModel) -> TemporalCovariance:
    """Covariance of (tau, Omega) for the windowed mixture.

    The background carries the convolved spectral Omega spread with tau and
    Omega independent; the signal ridge carries Omega = 0 exactly.  This is
    the moments-route entry point for stationary models.
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
    cov = -mean_tau * mean_omega  # E[tau*Omega] = 0 in both mixture components
    return TemporalCovariance(
        var_tau=stats.variance,
        var_omega=var_omega,
        cov_tau_omega=cov,
        mean_tau=mean_tau,
        mean_omega=mean_omega,
    )


def tau_density_to_csv(d: TauDensity, path) -> None:
    """Plot-ready rows (tau_ps, signal, background, window_ps)."""
    n = d.grid.n
    cols = (d.taus, d.signal, np.full(n, d.background), np.full(n, d.window))
    _write_rows(path, d.grid, "tau_ps,signal,background,window_ps", cols)
