"""Windowed coincidence statistics of stationary two-beam models.

Closed-form targets used throughout, for a Gaussian cross-spectrum
x(omega) = p * exp(-omega^2 / (2*sx^2)):

    g(tau)             = p*sx/sqrt(2*pi) * exp(-sx^2 tau^2 / 2)
    |g(0)|^2           = p^2 sx^2 / (2*pi)
    Var of |g|^2 in tau = 1 / (2*sx^2)
    integral |g|^2 dtau = p^2 sx / (2*sqrt(pi))

and for a Gaussian beam spectrum with unit peak and width s the flux is
s / sqrt(2*pi), so two such beams give an accidental floor
B = s1*s2 / (2*pi).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldc.errors import (
    AdmissibilityError,
    DegenerateStateError,
    GridTooCoarseError,
    GridTooNarrowError,
    WindowTooSmallError,
)
from nldc import stationary
from nldc.moments import separability_check
from nldc.spectral import (
    CrossSpectrum,
    FrequencyGrid,
    SpectralModel,
    flat_cross,
    flat_spectrum,
    gaussian_cross,
    gaussian_spectrum,
    max_classical_cross,
    quantum_admissible,
)
from nldc.stationary import (
    StationaryPairModel,
    TauDensity,
    tau_density_to_csv,
    windowed_covariance,
)

GRID = FrequencyGrid(512, 0.25)


def _unit_gauss_pair(grid, sigma=1.0):
    s = gaussian_spectrum(grid, 1.0, sigma)
    return s, s


def test_zero_cross_gives_pure_triangular_background():
    s1, s2 = _unit_gauss_pair(GRID, sigma=2.0)
    m = StationaryPairModel(s1, s2, flat_cross(GRID, 0.0), window=12.0)
    assert m.regime == "classical"
    d = m.profile
    assert np.all(d.signal == 0.0)
    assert d.background == pytest.approx(2.0 / math.pi, rel=1e-12)
    stats = d.windowed
    assert stats.signal_fraction == 0.0
    assert stats.variance == 12.0 ** 2 / 6.0


def test_gaussian_cross_profile_matches_closed_forms():
    s1, s2 = _unit_gauss_pair(GRID, sigma=2.0)
    p, sx = 0.8, 1.0
    m = StationaryPairModel(s1, s2, gaussian_cross(GRID, p, sx), window=20.0)
    d = m.profile
    centre = GRID.n // 2
    assert d.grid.times[centre] == 0.0
    assert d.signal[centre] == pytest.approx(p * p * sx * sx / (2.0 * math.pi), rel=1e-9)
    total = float(d.signal.sum()) * d.grid.dt
    assert total == pytest.approx(p * p * sx / (2.0 * math.sqrt(math.pi)), rel=1e-9)
    assert d.background == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_profile_peak_agrees_with_trapezoid_quadrature():
    # Independent route to |g(0)|^2: quadrature of the cross-spectrum.
    s1, s2 = _unit_gauss_pair(GRID)
    x = gaussian_cross(GRID, 0.6, 0.9)
    d = StationaryPairModel(s1, s2, x, window=20.0).profile
    g0 = np.trapezoid(x.values.real, GRID.omegas) / (2.0 * math.pi)
    assert d.signal[GRID.n // 2] == pytest.approx(g0 * g0, rel=1e-12)


def test_pure_signal_variance_matches_gaussian_width():
    s1, s2 = _unit_gauss_pair(GRID, sigma=2.0)
    sx = 1.0
    d = StationaryPairModel(s1, s2, gaussian_cross(GRID, 0.8, sx), window=10.0).profile
    # Distil the ridge alone: a density with no accidental floor.
    pure = TauDensity(grid=GRID, signal=d.signal, background=0.0, window=10.0)
    stats = pure.windowed
    assert stats.signal_fraction == 1.0
    assert stats.variance == pytest.approx(1.0 / (2.0 * sx * sx), rel=1e-9)


def test_flat_extremal_signal_peak_equals_background():
    grid = FrequencyGrid(64, 0.25)
    s = flat_spectrum(grid, 1.0)
    m = StationaryPairModel(s, s, max_classical_cross(s, s), window=8.0)
    assert m.regime == "classical"
    d = m.profile
    b = (grid.n * grid.domega / (2.0 * math.pi)) ** 2
    assert d.background == pytest.approx(b, rel=1e-12)
    centre = grid.n // 2
    assert d.signal[centre] == pytest.approx(b, rel=1e-12)
    off = np.delete(d.signal, centre)
    assert np.all(off < b * 1e-20)
    # Zero-width ridge: only the mixture weights matter.
    stats = d.windowed
    f_s = grid.dt / (8.0 + grid.dt)
    assert stats.signal_fraction == pytest.approx(f_s, rel=1e-12)
    assert stats.variance == pytest.approx((1.0 - f_s) * 8.0 ** 2 / 6.0, rel=1e-12)


def test_flat_quantum_cross_doubles_the_peak():
    grid = FrequencyGrid(64, 0.25)
    s = flat_spectrum(grid, 1.0)
    m = StationaryPairModel(s, s, flat_cross(grid, math.sqrt(2.0)), window=8.0)
    assert m.regime == "quantum"
    d = m.profile
    assert d.signal[grid.n // 2] == pytest.approx(2.0 * d.background, rel=1e-12)


def test_no_weight_at_all_is_degenerate():
    d = TauDensity(grid=GRID, signal=np.zeros(GRID.n), background=0.0, window=5.0)
    with pytest.raises(DegenerateStateError):
        d.windowed


def test_variance_grows_quadratically_with_window():
    s1, s2 = _unit_gauss_pair(GRID)
    x = max_classical_cross(s1, s2)
    var = {}
    for T in (200.0, 400.0):
        m = StationaryPairModel(s1, s2, x, T)
        var[T] = m.profile.windowed.variance
    ratio = var[400.0] / var[200.0]
    # The fixed-width ridge dilutes away, leaving the T^2/6 law.
    assert abs(ratio / 4.0 - 1.0) < 0.01
    assert var[400.0] < 400.0 ** 2 / 6.0


def test_mixture_variance_against_triangular_quadrature():
    """Exact windowed law weights tau by the overlap T - |tau|.

    The closed-form mixture drops that taper on the ridge (it keeps it,
    exactly, on the flat floor), so the two routes agree only up to a
    width/T correction.  At T about twenty ridge widths the gap sits
    near half a percent; the tolerance below pins it under one percent.
    """
    s1, s2 = _unit_gauss_pair(GRID)
    T = 14.0
    m = StationaryPairModel(s1, s2, max_classical_cross(s1, s2), window=T)
    d = m.profile
    stats = d.windowed
    taus = d.grid.times
    overlap = T - np.abs(taus)
    sig_w = float((overlap * d.signal).sum()) * d.grid.dt
    sig_t2 = float((overlap * taus ** 2 * d.signal).sum()) * d.grid.dt
    num = d.background * T ** 4 / 6.0 + sig_t2
    den = d.background * T ** 2 + sig_w
    assert stats.variance == pytest.approx(num / den, rel=1e-2)


def test_window_must_cover_six_rms_widths():
    grid = FrequencyGrid(512, 0.05)
    s1, s2 = _unit_gauss_pair(grid)
    # sx = 0.2 puts the ridge RMS width at 1/(0.2*sqrt(2)) ~ 3.54 ps.
    m = StationaryPairModel(s1, s2, gaussian_cross(grid, 0.5, 0.2), window=10.0)
    with pytest.raises(WindowTooSmallError):
        m.profile.windowed


def test_ridge_wrapping_off_the_tau_grid_is_rejected():
    grid = FrequencyGrid(256, 0.25)
    s1, s2 = _unit_gauss_pair(grid)
    # sx = 0.05 makes the ridge wider than the whole conjugate grid.
    m = StationaryPairModel(s1, s2, gaussian_cross(grid, 0.5, 0.05), window=200.0)
    with pytest.raises(GridTooCoarseError) as err:
        m.profile.windowed
    assert err.value.ratio is not None and err.value.ratio >= 1.0


def test_the_model_classifies_regimes():
    s1, s2 = _unit_gauss_pair(GRID)
    assert StationaryPairModel(s1, s2, gaussian_cross(GRID, 0.5, 1.0), 10.0).regime == "classical"
    assert StationaryPairModel(s1, s2, gaussian_cross(GRID, 1.2, 1.0), 10.0).regime == "quantum"
    with pytest.raises(AdmissibilityError):
        StationaryPairModel(s1, s2, gaussian_cross(GRID, 2.0, 1.0), 10.0)


@pytest.mark.parametrize(
    "peak, regime, classical_calls, quantum_calls",
    [(0.5, "classical", 1, 0), (1.2, "quantum", 1, 1), (2.0, None, 1, 1)],
)
def test_the_model_checks_each_regime_once(
    monkeypatch, peak, regime, classical_calls, quantum_calls
):
    calls = {"classical": 0, "quantum": 0}
    for name in calls:
        real = getattr(stationary, f"{name}_admissible")

        def counting(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(stationary, f"{name}_admissible", counting)
    s1, s2 = _unit_gauss_pair(GRID)
    cross = gaussian_cross(GRID, peak, 1.0)
    if regime is None:
        with pytest.raises(AdmissibilityError) as err:
            StationaryPairModel(s1, s2, cross, 10.0)
        report = quantum_admissible(s1, s2, cross)
        assert str(err.value) == (
            f"cross-spectrum violates the quantum bound: worst ratio {report.worst_ratio} "
            f"at omega = {report.worst_omega} rad/ps"
        )
    else:
        assert StationaryPairModel(s1, s2, cross, 10.0).regime == regime
    assert calls == {"classical": classical_calls, "quantum": quantum_calls}


def test_the_model_works_out_its_regime_at_construction():
    s1, s2 = _unit_gauss_pair(GRID)
    assert StationaryPairModel(s1, s2, gaussian_cross(GRID, 1.2, 1.0), 10.0).regime == "quantum"
    ok = gaussian_cross(GRID, 0.5, 1.0)
    assert StationaryPairModel(s1, s2, ok, 10.0).regime == "classical"
    with pytest.raises(AdmissibilityError):
        StationaryPairModel(s1, s2, gaussian_cross(GRID, 2.0, 1.0), 10.0)
    with pytest.raises(ValueError):
        StationaryPairModel(s1, s2, ok, 0.0)


def test_tau_density_validation():
    with pytest.raises(ValueError):
        TauDensity(grid=GRID, signal=np.zeros(GRID.n - 1), background=1.0, window=5.0)
    bad = np.zeros(GRID.n)
    bad[3] = -1.0
    with pytest.raises(ValueError):
        TauDensity(grid=GRID, signal=bad, background=1.0, window=5.0)
    with pytest.raises(ValueError):
        TauDensity(grid=GRID, signal=np.zeros(GRID.n), background=-0.5, window=5.0)
    with pytest.raises(ValueError):
        TauDensity(grid=GRID, signal=np.zeros(GRID.n), background=1.0, window=math.inf)


def test_windowed_covariance_composes_the_mixture_moments():
    grid = FrequencyGrid(256, 0.25)
    s1 = gaussian_spectrum(grid, 1.0, 1.0, center=1.5)
    s2 = gaussian_spectrum(grid, 1.0, 1.0, center=-0.5)
    x = CrossSpectrum(grid, 0.4 * max_classical_cross(s1, s2).values)
    m = StationaryPairModel(s1, s2, x, window=40.0)
    assert m.regime == "classical"
    cov = windowed_covariance(m)
    stats = m.profile.windowed
    f_s = stats.signal_fraction
    f_b = 1.0 - f_s

    def grid_moments(s):
        w = grid.omegas
        total = s.values.sum()
        mean = float((w * s.values).sum() / total)
        return mean, float((((w - mean) ** 2) * s.values).sum() / total)

    m1, v1 = grid_moments(s1)
    m2, v2 = grid_moments(s2)
    assert m1 == pytest.approx(1.5, rel=1e-9)
    assert m2 == pytest.approx(-0.5, rel=1e-9)
    assert cov.var_tau == stats.variance
    assert cov.var_omega == pytest.approx(
        f_b * (v1 + v2) + f_b * f_s * (m1 + m2) ** 2, rel=1e-12
    )
    assert cov.mean_omega == pytest.approx(f_b * (m1 + m2), rel=1e-12)
    # A frequency shift of the cross-spectrum only rotates the phase of
    # g(tau); the ridge profile stays even, so tau keeps zero mean.
    assert cov.mean_tau == pytest.approx(0.0, abs=1e-12)
    assert cov.cov_tau_omega == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    p1=st.floats(0.2, 3.0),
    p2=st.floats(0.2, 3.0),
    w1=st.floats(0.5, 2.0),
    w2=st.floats(0.5, 2.0),
    c1=st.floats(-2.0, 2.0),
    c2=st.floats(-2.0, 2.0),
)
def test_classical_extremal_peak_never_beats_the_floor(p1, p2, w1, w2, c1, c2):
    grid = FrequencyGrid(256, 0.25)
    s1 = gaussian_spectrum(grid, p1, w1, c1)
    s2 = gaussian_spectrum(grid, p2, w2, c2)
    d = StationaryPairModel(s1, s2, max_classical_cross(s1, s2), window=50.0).profile
    assert d.signal.max() <= d.background * (1.0 + 1e-9)


# The span gate of gaussian_spectrum, over grids n <= 1024.  Truncation at
# +-3 sigma alone leaves the grid variance 2.7% below sigma^2, so the
# variance property draws spectra held to +-6 sigma and resolved
# (sigma >= domega), where it is sigma^2 to about 1e-7.

_GRID_NS = st.sampled_from([8, 16, 32, 64, 128, 256, 512, 1024])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=_GRID_NS, domega=st.floats(1e-3, 10.0), data=st.data())
def test_a_gaussian_spectrum_is_refused_unless_three_sigma_lie_on_the_grid(n, domega, data):
    grid = FrequencyGrid(n, domega)
    sigma = domega * data.draw(st.floats(1.0, n / 2.0), label="sigma in cells")
    center = sigma * data.draw(st.floats(-12.0, 12.0), label="center in sigmas")
    half_span = n * domega / 2.0
    reach = abs(center) + 3.0 * sigma
    for build in (gaussian_spectrum, gaussian_cross):
        if reach < half_span:
            build(grid, 1.0, sigma, center)
            continue
        with pytest.raises(GridTooNarrowError) as err:
            build(grid, 1.0, sigma, center)
        assert (err.value.ratio, err.value.limit) == (reach / half_span, half_span)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=_GRID_NS.filter(lambda n: n >= 16), domega=st.floats(1e-3, 10.0), data=st.data())
def test_accepted_gaussian_spectra_keep_their_variance_on_the_grid(n, domega, data):
    grid = FrequencyGrid(n, domega)
    half_span = n * domega / 2.0
    sigmas = [domega * data.draw(st.floats(1.0, n / 12.0), label="sigma in cells") for _ in range(2)]
    centers = [(half_span - 6.0 * s) * data.draw(st.floats(-1.0, 1.0), label="center") for s in sigmas]
    s1, s2 = (gaussian_spectrum(grid, 1.0, s, c) for s, c in zip(sigmas, centers))
    m = StationaryPairModel(s1, s2, max_classical_cross(s1, s2), window=1.0)
    for spectrum, sigma, center in zip((m.s1, m.s2), sigmas, centers):
        mean, var = stationary._spectral_moments(spectrum)
        assert var == pytest.approx(sigma ** 2, rel=1e-3)
        assert abs(mean - center) <= 1e-3 * sigma


@st.composite
def _classical_models(draw):
    """(s1, s2, cross): flat, band, sparse random, single-cell or Gaussian beams, and a cross from zero up
    to the classical ceiling."""
    grid = FrequencyGrid(draw(st.sampled_from([8, 16, 64, 256])), draw(st.sampled_from([0.0625, 0.25, 1.0, 4.0])))
    n = grid.n
    beams = []
    for _ in range(2):
        kind = draw(st.sampled_from(["flat", "band", "sparse", "cell", "gaussian"]))
        values = np.zeros(n)
        if kind == "flat":
            values[:] = 1.0
        elif kind == "band":
            lo = draw(st.integers(0, n - 1))
            values[lo : draw(st.integers(lo + 1, n))] = 1.0
        elif kind == "sparse":
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            values = rng.random(n) * (rng.random(n) < draw(st.floats(0.05, 1.0)))
        elif kind == "cell":
            values[draw(st.integers(0, n - 1))] = 1.0
        else:
            sigma = grid.domega * draw(st.floats(0.5, n / 8.0))
            values = np.exp(-0.5 * ((grid.omegas - draw(st.floats(-0.25, 0.25)) * n * grid.domega) / sigma) ** 2)
        beams.append(SpectralModel(grid, values))
    scale = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    cross = CrossSpectrum(grid, scale * max_classical_cross(*beams).values)
    return (*beams, cross)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_classical_models())
def test_a_classical_model_whose_window_is_accepted_is_separable(model):
    # Windows from 1e-3 to 300 time cells.
    for window in model[0].grid.dt * np.geomspace(1e-3, 300.0, 12):
        try:
            m = StationaryPairModel(*model, window)
            cov = windowed_covariance(m)
        except (WindowTooSmallError, GridTooCoarseError, DegenerateStateError):
            continue
        assert m.regime == "classical"
        check = separability_check(cov)
        assert check.separable_consistent, (check.product, window, cov)


def test_profile_csv_rows(tmp_path):
    grid = FrequencyGrid(32, 0.5)
    s = flat_spectrum(grid, 1.0)
    d = StationaryPairModel(s, s, max_classical_cross(s, s), window=6.0).profile
    path = tmp_path / "profile.csv"
    tau_density_to_csv(d, path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# n=32 domega_rad_ps={grid.domega:.17g}"
    assert lines[1] == "tau_ps,signal,background,window_ps"
    assert len(lines) == 2 + grid.n
    first = lines[2].split(",")
    assert float(first[0]) == d.grid.times[0]
    assert float(first[1]) == d.signal[0]
    assert float(first[2]) == d.background
    assert float(first[3]) == 6.0


def test_profile_csv_matches_the_row_loop(tmp_path):
    grid = FrequencyGrid(256, 0.25)
    s1, s2 = _unit_gauss_pair(grid)
    d = StationaryPairModel(s1, s2, gaussian_cross(grid, 0.4, 0.7), window=20.0).profile
    lines = [f"# n={d.grid.n} domega_rad_ps={d.grid.domega:.17g}\n", "tau_ps,signal,background,window_ps\n"]
    for tau, s in zip(d.grid.times, d.signal):
        lines.append(f"{tau:.17g},{s:.17g},{d.background:.17g},{d.window:.17g}\n")
    path = tmp_path / "profile.csv"
    tau_density_to_csv(d, path)
    assert path.read_bytes() == "".join(lines).encode("utf-8")
