"""Two-photon amplitudes: construction, dispersion phase, FFT pipeline.

The closed-form anchors (Var(Omega) = a^2, Var(tau) = 1/b^2, Gaussian
Fourier pairs) are re-derived here by direct quadrature before being used
against the gridded pipeline, so the grid code is never checked against
itself.
"""

import math

import numpy as np
import pytest

from nldc.biphoton import (
    BiphotonAmplitude,
    JointTemporalDensity,
    amplitude_from_binary,
    amplitude_moments,
    amplitude_to_binary,
    amplitude_to_csv,
    apply_dispersion_phase,
    build_pdc_amplitude,
    density_from_binary,
    density_to_binary,
    density_to_csv,
    tau_marginal,
    to_time_domain,
)
from nldc.errors import GridTooCoarseError, GridTooNarrowError
from nldc.moments import DispersionKit, shear_covariance
from nldc.spectral import FrequencyGrid

# Acceptance-regime grid: resolves b = 10 rad/ps, carries a = 1e-4 rad/ps
# as an exact sub-cell ridge.
GRID_CW = FrequencyGrid(n=1024, domega=0.0625)


def _marginal_var(values, coords, weights_scale):
    w = values * weights_scale
    total = w.sum()
    mean = (coords * w).sum() / total
    return float(((coords - mean) ** 2 * w).sum() / total)


def test_fourier_pair_quadrature_oracle():
    # For phi(delta) = exp(-delta^2/(4 b^2)) the tau-profile of the pair is
    # |integral phi * exp(-i*delta*tau/2) d delta|^2, which should carry
    # variance 1/b^2.  Evaluate the transform by brute-force quadrature.
    b = 1.0
    delta = np.linspace(-10 * b, 10 * b, 4001)
    tau = np.linspace(-8 / b, 8 / b, 801)
    kernel = np.exp(-1j * np.outer(tau, delta) / 2.0)
    profile = np.abs(kernel @ np.exp(-(delta ** 2) / (4 * b * b))) ** 2
    var = _marginal_var(profile, tau, 1.0)
    assert var == pytest.approx(1.0 / b ** 2, rel=1e-6)


def test_build_requires_normalizable_grid():
    with pytest.raises(GridTooNarrowError) as err:
        build_pdc_amplitude(FrequencyGrid(n=16, domega=1.0), 1.0, 5.0)
    assert err.value.ratio == pytest.approx(15.0 / 8.0)
    with pytest.raises(GridTooCoarseError) as err:
        build_pdc_amplitude(FrequencyGrid(n=64, domega=1.0), 1.0, 1.0)
    assert err.value.ratio == pytest.approx(3.0)
    with pytest.raises(ValueError):
        build_pdc_amplitude(GRID_CW, -1.0, 1.0)


def test_build_accepts_subcell_pump_as_delta_ridge():
    psi = build_pdc_amplitude(GRID_CW, 1e-4, 10.0)
    mass = np.abs(psi.values) ** 2
    rows, cols = np.nonzero(mass)
    # all surviving cells sit on the omega1 + omega2 = 0 anti-diagonal
    assert np.all(rows + cols == GRID_CW.n)
    cov = amplitude_moments(psi)
    assert cov.var_omega == 0.0
    assert cov.cov_tau_omega == 0.0
    assert cov.var_tau == pytest.approx(0.01, rel=1e-5)


def test_monochromatic_pump_rejects_midband_width():
    # widths between domega/10 and 3*domega are genuinely unresolvable
    with pytest.raises(GridTooCoarseError):
        build_pdc_amplitude(GRID_CW, 0.01, 10.0)


def test_balanced_widths_sit_on_separability_boundary():
    grid = FrequencyGrid(n=256, domega=0.25)
    cov = amplitude_moments(build_pdc_amplitude(grid, 1.0, 1.0))
    assert cov.var_tau * cov.var_omega == pytest.approx(1.0, rel=1e-6)


def test_anticorrelation_reversed_gives_large_product():
    grid = FrequencyGrid(n=256, domega=0.15)
    cov = amplitude_moments(build_pdc_amplitude(grid, 2.0, 0.5))
    assert cov.var_omega == pytest.approx(4.0, rel=1e-6)
    assert cov.var_tau == pytest.approx(4.0, rel=1e-4)
    assert cov.var_tau * cov.var_omega == pytest.approx(16.0, rel=1e-4)


def test_dispersion_phase_is_identity_at_zero():
    psi = build_pdc_amplitude(FrequencyGrid(n=128, domega=0.25), 0.8, 1.4)
    out = apply_dispersion_phase(psi, DispersionKit(0.0))
    assert np.array_equal(out.values, psi.values)


def test_dispersion_preserves_norm_and_marginals():
    psi = build_pdc_amplitude(FrequencyGrid(n=128, domega=0.25), 0.8, 1.4)
    out = apply_dispersion_phase(psi, DispersionKit(beta_L=0.7, delay_1=3.0, delay_2=-1.0))
    norm = (np.abs(out.values) ** 2).sum() * out.grid.domega ** 2
    assert norm == pytest.approx(1.0, abs=1e-12)
    for axis in (0, 1):
        before = (np.abs(psi.values) ** 2).sum(axis=axis)
        after = (np.abs(out.values) ** 2).sum(axis=axis)
        assert np.allclose(after, before, rtol=1e-12, atol=1e-300)


def test_monochromatic_pump_cancellation_is_exact():
    psi = build_pdc_amplitude(GRID_CW, 1e-4, 10.0)
    sheared = apply_dispersion_phase(psi, DispersionKit(beta_L=32.0))
    # the quadratic phase beta_L*(w1^2 - w2^2) vanishes identically on the
    # anti-diagonal support, so the state does not change at all
    assert np.array_equal(sheared.values, psi.values)
    tau_b, q_b = tau_marginal(to_time_domain(psi))
    tau_a, q_a = tau_marginal(to_time_domain(sheared))
    assert np.array_equal(q_a, q_b) and np.array_equal(tau_a, tau_b)


def test_finite_pump_broadening_matches_shear_algebra():
    grid = FrequencyGrid(n=128, domega=0.25)
    psi = build_pdc_amplitude(grid, 0.8, 1.4)
    kit = DispersionKit(beta_L=0.25, delay_1=0.5, delay_2=-0.3)
    via_fft = amplitude_moments(apply_dispersion_phase(psi, kit))
    via_algebra = shear_covariance(amplitude_moments(psi), kit)
    assert via_fft.var_tau == pytest.approx(via_algebra.var_tau, rel=1e-3)
    assert via_fft.cov_tau_omega == pytest.approx(via_algebra.cov_tau_omega, rel=1e-3)
    assert via_fft.mean_tau == pytest.approx(via_algebra.mean_tau, rel=1e-6, abs=1e-9)
    assert via_fft.var_omega == pytest.approx(via_algebra.var_omega, rel=1e-9)


def test_dispersed_cov_equals_2betaL_var_omega():
    grid = FrequencyGrid(n=256, domega=0.25)
    psi = build_pdc_amplitude(grid, 1.0, 1.0)
    cov = amplitude_moments(apply_dispersion_phase(psi, DispersionKit(0.3)))
    assert cov.cov_tau_omega == pytest.approx(2.0 * 0.3 * 1.0, rel=1e-3)


def test_real_amplitude_has_zero_cov():
    grid = FrequencyGrid(n=128, domega=0.25)
    cov = amplitude_moments(build_pdc_amplitude(grid, 0.8, 1.4))
    assert abs(cov.cov_tau_omega) < 1e-9


def test_time_domain_gaussian_fourier_pair():
    # product-Gaussian amplitude -> product-Gaussian density with conjugate
    # widths: per-axis |psi|^2 width w gives time variance 1/(2 w^2)
    grid = FrequencyGrid(n=128, domega=0.35)
    w_width = 1.5
    ww = grid.omegas
    raw = np.exp(-(ww[:, None] ** 2 + ww[None, :] ** 2) / (2.0 * w_width ** 2))
    psi = BiphotonAmplitude.from_values(grid, raw)
    density = to_time_domain(psi)
    t1_var = _marginal_var(density.values.sum(axis=1), grid.times, density.dt ** 2)
    assert t1_var == pytest.approx(1.0 / (2.0 * w_width ** 2), rel=1e-9)
    tau, q = tau_marginal(density)
    tau_var = _marginal_var(q, tau, density.dt)
    assert tau_var == pytest.approx(1.0 / w_width ** 2, rel=1e-9)


def test_real_symmetric_amplitude_gives_symmetric_density():
    grid = FrequencyGrid(n=64, domega=0.25)
    density = to_time_domain(build_pdc_amplitude(grid, 1.2, 0.9))
    p = density.values
    floor = p.max() * 1e-20  # squared FFT rounding noise in the far tails
    assert np.allclose(p[1:, 1:], p[1:, 1:][::-1, ::-1], rtol=1e-9, atol=floor)


def test_delay_shifts_density_cyclically():
    grid = FrequencyGrid(n=64, domega=0.25)
    psi = build_pdc_amplitude(grid, 1.2, 0.9)
    shift_cells = 5
    kit = DispersionKit(beta_L=0.0, delay_1=shift_cells * grid.dt, delay_2=0.0)
    p0 = to_time_domain(psi).values
    p1 = to_time_domain(apply_dispersion_phase(psi, kit)).values
    floor = p0.max() * 1e-20  # squared FFT rounding noise in the far tails
    assert np.allclose(p1, np.roll(p0, shift_cells, axis=0), rtol=1e-9, atol=floor)


def test_wrapping_tau_marginal_is_rejected():
    # beta_L chosen off the discrete self-imaging resonances
    # (beta_L*domega^2 near a rational multiple of pi re-concentrates the
    # density instead of spreading it)
    grid = FrequencyGrid(n=64, domega=0.25)
    psi = build_pdc_amplitude(grid, 1.0, 1.0)
    sheared = apply_dispersion_phase(psi, DispersionKit(beta_L=13.0))
    with pytest.raises(GridTooCoarseError):
        amplitude_moments(sheared)


def test_amplitude_validation():
    grid = FrequencyGrid(n=16, domega=0.5)
    good = np.full((16, 16), 1.0 + 0j)
    with pytest.raises(ValueError):
        BiphotonAmplitude(grid, good)  # not normalized
    with pytest.raises(ValueError):
        BiphotonAmplitude.from_values(grid, np.zeros((16, 16)))
    with pytest.raises(ValueError):
        BiphotonAmplitude.from_values(grid, np.ones((8, 8)))
    psi = BiphotonAmplitude.from_values(grid, good)
    assert (np.abs(psi.values) ** 2).sum() * grid.domega ** 2 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        JointTemporalDensity(grid, -np.ones((16, 16)))


def test_binary_round_trips(tmp_path):
    grid = FrequencyGrid(n=32, domega=0.25)
    psi = apply_dispersion_phase(build_pdc_amplitude(grid, 1.0, 0.8), DispersionKit(0.2))
    apath = tmp_path / "amp.bin"
    amplitude_to_binary(psi, apath)
    back = amplitude_from_binary(apath)
    assert back.grid == psi.grid
    assert np.array_equal(back.values, psi.values)

    density = to_time_domain(psi)
    dpath = tmp_path / "dens.bin"
    density_to_binary(density, dpath)
    dback = density_from_binary(dpath)
    assert np.array_equal(dback.values, density.values)

    with pytest.raises(ValueError):
        amplitude_from_binary(dpath)  # wrong magic


def test_csv_exports_have_declared_shape(tmp_path):
    grid = FrequencyGrid(n=32, domega=0.25)
    psi = build_pdc_amplitude(grid, 1.0, 0.8)
    apath = tmp_path / "amp.csv"
    amplitude_to_csv(psi, apath)
    lines = apath.read_text().splitlines()
    assert lines[1] == "omega1_rad_ps,omega2_rad_ps,re,im"
    assert len(lines) == 2 + 32 * 32
    dpath = tmp_path / "dens.csv"
    density_to_csv(to_time_domain(psi), dpath)
    lines = dpath.read_text().splitlines()
    assert lines[1] == "t1_ps,t2_ps,p"
    assert len(lines) == 2 + 32 * 32


def _tau_marginal_oracle(density):
    """The n x n index gather that tau_marginal's strided diagonals replaced."""
    n = density.grid.n
    dt = density.dt
    cols = np.arange(n)
    rows = (cols[:, None] + cols[None, :]) % n  # rows[d, m] pairs t1 index (m+d) with t2 index m
    mass_by_diff = density.values[rows, cols[None, :]].sum(axis=1) * dt * dt
    return density.grid.times, mass_by_diff[(cols - n // 2) % n] / dt


@pytest.mark.parametrize("n", [8, 256])
def test_tau_marginal_matches_the_index_gather(n):
    grid = FrequencyGrid(n=n, domega=0.3)
    values = np.random.default_rng(n).random((n, n)) ** 3  # no symmetry to hide a transpose
    density = JointTemporalDensity(grid, values / (values.sum() * grid.dt ** 2))
    tau, q = tau_marginal(density)
    tau_ref, q_ref = _tau_marginal_oracle(density)
    assert np.array_equal(tau, tau_ref)
    assert np.array_equal(q, q_ref)

