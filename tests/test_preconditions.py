"""One message per precondition, on every public entry that checks one.

Every scalar precondition reads "<name> must be finite[ and > 0 | and >= 0],
got <value>" whatever the value that failed it, and every container that
takes an array reads "<what> must have shape <shape>, got <shape>".  The
texts are written out here in full, so a site that words its own check
differently fails.
"""

import math

import numpy as np
import pytest

from nldc.biphoton import BiphotonAmplitude, JointTemporalDensity, build_pdc_amplitude
from nldc.moments import DispersionKit, TemporalCovariance, apply_jitter, jitter_feasibility
from nldc.sampler import EventBatch, estimate_tau_stats
from nldc.spectral import CrossSpectrum, FrequencyGrid, SpectralModel, flat_cross, flat_spectrum, gaussian_spectrum
from nldc.stationary import StationaryPairModel, TauDensity

GRID = FrequencyGrid(n=64, domega=0.5)
COV = TemporalCovariance(var_tau=1.0, var_omega=4.0)
KIT = DispersionKit(beta_L=0.5)
BATCH = EventBatch(t1=np.arange(4.0), t2=np.zeros(4), seed=0, source="fixed")
SIGNAL = np.exp(-GRID.times ** 2)


def _pair_model(window):
    beam = flat_spectrum(GRID, 1.0)
    return StationaryPairModel(beam, beam, flat_cross(GRID, 1.0), window, "quantum")


# (name, bound, call): bound is "" (finite), "> 0" or ">= 0", and call(v)
# passes v as the named value of one public entry.
ENTRIES = [
    ("domega", "> 0", lambda v: FrequencyGrid(n=64, domega=v)),
    ("peak", ">= 0", lambda v: gaussian_spectrum(GRID, v, 1.0)),
    ("sigma", "> 0", lambda v: gaussian_spectrum(GRID, 1.0, v)),
    ("center", "", lambda v: gaussian_spectrum(GRID, 1.0, 1.0, v)),
    ("value", ">= 0", lambda v: flat_spectrum(GRID, v)),
    ("pump_sigma", "> 0", lambda v: build_pdc_amplitude(GRID, v, 1.0)),
    ("pm_sigma", "> 0", lambda v: build_pdc_amplitude(GRID, 1.0, v)),
    ("window", "> 0", _pair_model),
    ("background", ">= 0", lambda v: TauDensity(GRID, SIGNAL, v, 10.0)),
    ("window", "> 0", lambda v: TauDensity(GRID, SIGNAL, 1.0, v)),
    ("jitter_var", ">= 0", lambda v: apply_jitter(COV, v)),
    ("jitter_var", "> 0", lambda v: jitter_feasibility(COV, KIT, v)),
    ("jitter_sigma", ">= 0", lambda v: estimate_tau_stats(BATCH, v, 0)),
    ("var_tau", ">= 0", lambda v: TemporalCovariance(var_tau=v, var_omega=1.0)),
    ("var_omega", ">= 0", lambda v: TemporalCovariance(var_tau=1.0, var_omega=v)),
    ("cov_tau_omega", "", lambda v: TemporalCovariance(1.0, 1.0, cov_tau_omega=v)),
    ("mean_tau", "", lambda v: TemporalCovariance(1.0, 1.0, mean_tau=v)),
    ("mean_omega", "", lambda v: TemporalCovariance(1.0, 1.0, mean_omega=v)),
    ("beta_L", "", lambda v: DispersionKit(beta_L=v)),
    ("delay_1", "", lambda v: DispersionKit(0.5, delay_1=v)),
    ("delay_2", "", lambda v: DispersionKit(0.5, delay_2=v)),
]

# The smallest failing value of each bound: 0 fails "> 0", the negative
# subnormal -5e-324 fails ">= 0".
BOUNDARY = {"> 0": 0.0, ">= 0": -5e-324}


def _cases():
    for index, (name, bound, call) in enumerate(ENTRIES):
        values = [math.nan, math.inf, -math.inf] + ([BOUNDARY[bound]] if bound else [])
        for value in values:
            yield pytest.param(name, bound, call, value, id=f"{index}-{name}-{value!r}")


@pytest.mark.parametrize("name, bound, call, value", list(_cases()))
def test_every_scalar_precondition_has_one_message(name, bound, call, value):
    with pytest.raises(ValueError) as err:
        call(value)
    condition = f"finite and {bound}" if bound else "finite"
    assert str(err.value) == f"{name} must be {condition}, got {value!r}"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BiphotonAmplitude(GRID, np.zeros((8, 8), dtype=np.complex128)),
         "amplitude must have shape (64, 64), got (8, 8)"),
        (lambda: JointTemporalDensity(GRID, np.zeros(64)), "density must have shape (64, 64), got (64,)"),
        (lambda: SpectralModel(GRID, np.ones(63)), "spectrum values must have shape (64,), got (63,)"),
        (lambda: CrossSpectrum(GRID, np.ones((2, 64))), "cross-spectrum values must have shape (64,), got (2, 64)"),
        (lambda: TauDensity(GRID, 1.0, 1.0, 10.0), "signal must have shape (64,), got ()"),
    ],
    ids=["amplitude", "density", "spectrum", "cross", "signal"],
)
def test_every_container_has_one_shape_message(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message
