"""Temporal correlations of twin light beams under opposite dispersion.

The package models the time difference between two detectors fed by a
common source, applies group-velocity dispersion of opposite sign to the
two arms, and evaluates a separability witness on the resulting second
moments.  Three source descriptions are supported: a Gaussian two-photon
amplitude on a frequency grid, a stationary pair of beams given by their
spectra and a cross-spectral density, and a bare covariance table.

Units everywhere: time in ps, angular frequency in rad/ps, dispersion as
beta*L in ps^2.  With hbar = 1 the variance product Var(tau)*Var(Omega)
is dimensionless and separable states obey product >= 1.
"""

from . import errors
from .biphoton import (
    BiphotonAmplitude,
    JointTemporalDensity,
    amplitude_moments,
    apply_dispersion_phase,
    build_pdc_amplitude,
    density_from_binary,
    density_to_binary,
    to_time_domain,
)
from .moments import (
    DispersionKit,
    JitterFeasibility,
    SeparabilityCheck,
    TemporalCovariance,
    WitnessReport,
    apply_jitter,
    evaluate_witness,
    jitter_feasibility,
    separability_check,
    shear_covariance,
    symmetrized_variance,
)
from .sampler import (
    EmpiricalWitnessReport,
    EventBatch,
    TauStats,
    derive_seed,
    empirical_witness,
    estimate_tau_stats,
    events_from_csv,
    events_to_csv,
    sample_biphoton,
    sample_stationary_sheared,
    sample_tau_density,
)
from .spectral import (
    AdmissibilityReport,
    CrossSpectrum,
    FrequencyGrid,
    SpectralModel,
    classical_admissible,
    cross_from_csv,
    cross_to_csv,
    flat_cross,
    flat_spectrum,
    gaussian_cross,
    gaussian_spectrum,
    intensity,
    max_classical_cross,
    quantum_admissible,
    reflected,
    require_same_grid,
    spectrum_from_csv,
    spectrum_to_csv,
)
from .stationary import (
    StationaryPairModel,
    TauDensity,
    WindowedTauStats,
    make_pair_model,
    tau_density_to_csv,
    windowed_covariance,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "__version__",
    # moments
    "TemporalCovariance", "DispersionKit", "SeparabilityCheck", "WitnessReport",
    "JitterFeasibility", "shear_covariance", "symmetrized_variance",
    "separability_check", "evaluate_witness", "apply_jitter", "jitter_feasibility",
    # spectral
    "FrequencyGrid", "SpectralModel", "CrossSpectrum", "AdmissibilityReport",
    "require_same_grid", "reflected", "gaussian_spectrum", "flat_spectrum",
    "gaussian_cross", "flat_cross", "intensity", "quantum_admissible",
    "classical_admissible", "max_classical_cross", "spectrum_to_csv",
    "spectrum_from_csv", "cross_to_csv", "cross_from_csv",
    # biphoton
    "BiphotonAmplitude", "JointTemporalDensity", "build_pdc_amplitude",
    "apply_dispersion_phase", "to_time_domain", "amplitude_moments",
    "density_to_binary", "density_from_binary",
    # stationary
    "StationaryPairModel", "TauDensity", "WindowedTauStats", "make_pair_model",
    "windowed_covariance", "tau_density_to_csv",
    # sampler
    "EventBatch", "TauStats", "EmpiricalWitnessReport", "derive_seed",
    "sample_biphoton", "sample_tau_density", "sample_stationary_sheared",
    "estimate_tau_stats", "empirical_witness",
    "events_to_csv", "events_from_csv",
]
