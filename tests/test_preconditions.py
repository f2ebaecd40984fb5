"""One message per precondition, on every public entry that checks one.

Every scalar precondition reads "<name> must be finite[ and > 0 | and >= 0],
got <value>" whatever the value that failed it, and every container that
takes an array reads "<what> must have shape <shape>, got <shape>", then
"<what> must be finite" and, for the non-negative ones, "<what> must be
>= 0", whether the array is copied or handed over.  The texts are written
out here in full, so a site that words its own check differently fails.
A quantity checked against a limit goes through one of two checks, pinned
at the limit itself.
"""

import math

import numpy as np
import pytest

from nldc.biphoton import BiphotonAmplitude, JointTemporalDensity, build_pdc_amplitude
from nldc.errors import GridTooCoarseError
from nldc.moments import DispersionKit, TemporalCovariance, apply_jitter, jitter_feasibility
from nldc.sampler import EventBatch, estimate_tau_stats
from nldc.spectral import (
    CrossSpectrum,
    FrequencyGrid,
    SpectralModel,
    _Owned,
    _take,
    flat_cross,
    flat_spectrum,
    gaussian_spectrum,
)
from nldc.stationary import StationaryPairModel, TauDensity

GRID = FrequencyGrid(n=64, domega=0.5)
COV = TemporalCovariance(var_tau=1.0, var_omega=4.0)
KIT = DispersionKit(beta_L=0.5)
BATCH = EventBatch(t1=np.arange(4.0), t2=np.zeros(4), seed=0, source="fixed")
SIGNAL = np.exp(-GRID.times ** 2)


def _pair_model(window):
    beam = flat_spectrum(GRID, 1.0)
    return StationaryPairModel(beam, beam, flat_cross(GRID, 1.0), window)


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


def _holders():
    """(what, bound, make): make(values, wrap) builds the holder from valid values with wrap applied to its array."""
    unit = np.zeros((64, 64), dtype=np.complex128)
    unit[0, 0] = 1.0 / GRID.domega
    point = np.zeros((64, 64))
    point[0, 0] = 1.0 / GRID.dt ** 2
    return [
        ("amplitude", "", unit, lambda v, wrap: BiphotonAmplitude(GRID, wrap(v))),
        ("density", ">= 0", point, lambda v, wrap: JointTemporalDensity(GRID, wrap(v))),
        ("spectrum values", ">= 0", np.ones(64), lambda v, wrap: SpectralModel(GRID, wrap(v))),
        ("cross-spectrum values", "", np.ones(64, dtype=np.complex128), lambda v, wrap: CrossSpectrum(GRID, wrap(v))),
        ("signal", ">= 0", SIGNAL, lambda v, wrap: TauDensity(GRID, wrap(v), 1.0, 10.0)),
        ("detection times", "", np.arange(4.0), lambda v, wrap: EventBatch(t1=wrap(v), t2=np.zeros(4), seed=0, source="x")),
    ]


def _holder_cases():
    for what, bound, valid, make in _holders():
        for value in [math.nan, math.inf, -math.inf] + ([BOUNDARY[bound]] if bound else []):
            for wrapped in ("plain", "owned"):
                yield pytest.param(what, valid, make, value, wrapped, id=f"{what}-{value!r}-{wrapped}")


@pytest.mark.parametrize("what, valid, make, value, wrapped", list(_holder_cases()))
def test_every_array_holder_has_one_finite_and_sign_message(what, valid, make, value, wrapped):
    # One bad cell, past the first row, in an otherwise valid array: plain
    # arrays are copied and `_Owned` ones kept, and both get the same check.
    values = valid.copy()
    values.flat[values.size - 2] = value
    with pytest.raises(ValueError) as err:
        make(values, _Owned if wrapped == "owned" else (lambda v: v))
    condition = ">= 0" if value == BOUNDARY[">= 0"] else "finite"
    assert str(err.value) == f"{what} must be {condition}"


def test_take_copies_a_plain_state_and_leaves_it_readable():
    density = JointTemporalDensity(GRID, np.full((64, 64), 1.0 / (64 * 64 * GRID.dt ** 2)))
    exchanged = JointTemporalDensity(GRID, _Owned(density.values.T))  # column-major storage
    for state, names in ((BATCH, ("t1", "t2")), (exchanged, ("values",))):
        kept = [getattr(state, name).copy() for name in names]
        held, *arrays = _take(state, *names)
        assert held is state
        for name, array, before in zip(names, arrays, kept):
            assert array.flags.writeable and array.flags.c_contiguous
            assert np.array_equal(array, before) and not np.shares_memory(array, getattr(state, name))
            array[...] = -1.0
            assert np.array_equal(getattr(state, name), before) and not getattr(state, name).flags.writeable


# (method, measured, raised) against a limit of 2: the strict check fails
# at the limit, the inclusive one passes it and fails a NaN.
LIMIT_CASES = [
    ("_unless_below", np.nextafter(2.0, 0.0), False),
    ("_unless_below", 2.0, True),
    ("_unless_below", 3.0, True),
    ("_unless_below", math.nan, False),
    ("_unless_at_most", 2.0, False),
    ("_unless_at_most", np.nextafter(2.0, 3.0), True),
    ("_unless_at_most", 3.0, True),
    ("_unless_at_most", math.nan, True),
]


@pytest.mark.parametrize("method, measured, raised", LIMIT_CASES)
def test_limit_checks_raise_on_their_boundary_with_ratio_and_limit(method, measured, raised):
    check = getattr(GridTooCoarseError, method)
    if not raised:
        assert check("never shown", measured, 2.0) is None
        return
    with pytest.raises(GridTooCoarseError) as err:
        check("too far", measured, 2.0)
    assert str(err.value) == "too far" and err.value.limit == 2.0
    if math.isnan(measured):
        assert math.isnan(err.value.ratio)
    else:
        assert err.value.ratio == measured / 2.0 and err.value.ratio >= 1.0
