"""Two-photon amplitudes: construction, dispersion phase, FFT pipeline.

The closed-form anchors (Var(Omega) = a^2, Var(tau) = 1/b^2, Gaussian
Fourier pairs) are re-derived here by direct quadrature before being used
against the gridded pipeline, so the grid code is never checked against
itself.
"""

import math
import warnings

import numpy as np
import pytest

from nldc.biphoton import (
    SECOND_BRANCH_LIMIT,
    BiphotonAmplitude,
    JointTemporalDensity,
    _sum_frequency_lines,
    amplitude_moments,
    apply_dispersion_phase,
    build_pdc_amplitude,
    density_to_binary,
    to_time_domain,
)
from nldc.errors import GridTooCoarseError, GridTooNarrowError
from nldc.moments import DispersionKit, TemporalCovariance, shear_covariance
from nldc.spectral import FrequencyGrid
from oracles import amplitude_from_values, density_from_binary, tau_marginal

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


@pytest.mark.parametrize(
    "n, domega, pm_widths",
    [(64, 0.5, (2.0, 3.0, 5.0)), (256, 0.125, (0.5, 2.0, 5.0)), (1024, 0.0625, (0.5, 2.5, 10.0))],
)
@pytest.mark.parametrize("pump", ["resolved", "delta_ridge"])
def test_pair_amplitude_is_its_own_transpose_bit_for_bit(n, domega, pm_widths, pump):
    # The minus arm of a run is the plus arm exchanged, which holds because
    # the pair amplitude is symmetric under omega1 <-> omega2 exactly:
    # omega1 + omega2 commutes, and omega1 - omega2 only changes sign before
    # it is squared.
    grid = FrequencyGrid(n=n, domega=domega)
    a = 4.0 * domega if pump == "resolved" else domega / 20.0
    for b in pm_widths:
        values = build_pdc_amplitude(grid, a, b).values
        assert np.array_equal(values, values.T), b


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


@pytest.mark.parametrize(
    "kit", [DispersionKit(beta_L=1e10), DispersionKit(beta_L=0.0, delay_2=1e160)]
)
def test_overflowing_dispersion_phase_is_rejected_before_any_array_work(kit):
    # |omega| reaches 4e150 on this grid, so beta_L*omega^2 or delay*omega
    # overflows although the kit itself is finite.  The check runs on the
    # scalar peak, before numpy could warn about inf or nan phases.
    psi = build_pdc_amplitude(FrequencyGrid(n=8, domega=1e150), 1e148, 1e148)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="dispersion phase overflows"):
            apply_dispersion_phase(psi, kit)


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
    psi = amplitude_from_values(grid, raw)
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
        amplitude_from_values(grid, np.zeros((16, 16)))
    with pytest.raises(ValueError):
        amplitude_from_values(grid, np.ones((8, 8)))
    psi = amplitude_from_values(grid, good)
    assert (np.abs(psi.values) ** 2).sum() * grid.domega ** 2 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        JointTemporalDensity(grid, -np.ones((16, 16)))


def test_binary_round_trips(tmp_path):
    grid = FrequencyGrid(n=32, domega=0.25)
    psi = apply_dispersion_phase(build_pdc_amplitude(grid, 1.0, 0.8), DispersionKit(0.2))
    density = to_time_domain(psi)
    dpath = tmp_path / "dens.bin"
    density_to_binary(density, dpath)
    dback = density_from_binary(dpath)
    assert dback.grid == density.grid
    assert np.array_equal(dback.values, density.values)

    raw = bytearray(dpath.read_bytes())
    raw[:8] = np.array([1.0], dtype="<f8").tobytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        density_from_binary(bad)  # wrong magic


# ---------------------------------------------------------------------------
# The sum-frequency line route against the former 2D-FFT route.

def _tau_moments_oracle(density):
    """Mean and variance of the tau marginal of a transformed density."""
    tau, q = tau_marginal(density)
    weights = q * density.dt
    total = weights.sum()
    mean = (tau * weights).sum() / total
    return mean, (((tau - mean) ** 2) * weights).sum() / total


def _probe_moments(psi):
    """The 2D-FFT route the line route replaced.

    Omega moments from |psi|^2 with the true sum omega1 + omega2, tau
    moments from the 2D transform, and cov from two dispersion kicks +-eps:
    Var_tau(beta) = Var_tau + 4*beta*cov + 4*beta^2*Var_Omega, so the
    antisymmetric difference picks out cov.
    """
    masses = np.abs(psi.values) ** 2
    w = psi.grid.omegas
    wsum = w[:, None] + w[None, :]
    mean_omega = (wsum * masses).sum() / masses.sum()
    var_omega = (((wsum - mean_omega) ** 2) * masses).sum() / masses.sum()
    mean_tau, var_tau = _tau_moments_oracle(to_time_domain(psi))
    eps = 1e-3 * math.sqrt(var_tau / var_omega)
    plus = _tau_moments_oracle(to_time_domain(apply_dispersion_phase(psi, DispersionKit(eps))))
    minus = _tau_moments_oracle(to_time_domain(apply_dispersion_phase(psi, DispersionKit(-eps))))
    return TemporalCovariance(
        var_tau=var_tau,
        var_omega=var_omega,
        cov_tau_omega=(plus[1] - minus[1]) / (8.0 * eps),
        mean_tau=mean_tau,
        mean_omega=mean_omega,
    )


@pytest.mark.parametrize("n", [256, 512, 1024])
def test_line_marginal_matches_the_2d_transform(n):
    grid = FrequencyGrid(n=n, domega=0.1)
    psi = apply_dispersion_phase(
        build_pdc_amplitude(grid, 0.6, 1.3), DispersionKit(beta_L=0.4, delay_1=0.8, delay_2=-0.5)
    )
    marginal, weight, first, _, second = _sum_frequency_lines(psi)
    _, q_ref = tau_marginal(to_time_domain(psi))
    q = marginal / (marginal.sum() * grid.dt)
    assert np.max(np.abs(q - q_ref)) <= 1e-14 * q_ref.max()
    # each line's weight is its share of |psi|^2 (Parseval along the line),
    # line k holding the true sum index k - n/2
    masses = np.abs(psi.values) ** 2
    index_sum = np.arange(n)[:, None] + np.arange(n)[None, :]  # true sum index + n
    by_sum = np.bincount(index_sum.ravel(), weights=masses.ravel())[n // 2 : n // 2 + n]
    assert np.allclose(weight / weight.sum(), by_sum / masses.sum(), rtol=0.0, atol=1e-15)
    assert second < 1e-30


def test_line_moments_match_the_probe_oracle():
    rng = np.random.default_rng(2010)
    for _ in range(5):
        a, b = rng.uniform(0.5, 2.0, size=2)
        grid = FrequencyGrid(512, min(min(a, b) / 3.5, 0.12))
        kit = DispersionKit(
            beta_L=rng.uniform(0.0, 0.5),
            delay_1=rng.uniform(-1.0, 1.0),
            delay_2=rng.uniform(-1.0, 1.0),
        )
        psi = apply_dispersion_phase(build_pdc_amplitude(grid, a, b), kit)
        line = amplitude_moments(psi)
        probe = _probe_moments(psi)
        assert line.var_tau == pytest.approx(probe.var_tau, rel=1e-12)
        assert line.var_omega == pytest.approx(probe.var_omega, rel=1e-12)
        assert line.mean_tau == pytest.approx(probe.mean_tau, rel=1e-12, abs=1e-12)
        assert line.mean_omega == pytest.approx(probe.mean_omega, abs=1e-12)
        # the probe is a central difference; the line route is exact
        assert line.cov_tau_omega == pytest.approx(probe.cov_tau_omega, rel=1e-11)
        assert line.cov_tau_omega == pytest.approx(2.0 * kit.beta_L * line.var_omega, rel=1e-13)


def test_second_sum_frequency_branch_is_rejected():
    # Var(Omega) = a^2 with a = 10.6 on a half span of 32 rad/ps: about
    # 0.3% of the mass sits at |omega1 + omega2| >= n*domega/2, where a
    # cyclic line would alias it onto the wrong sum frequency.
    grid = FrequencyGrid(n=64, domega=1.0)
    psi = build_pdc_amplitude(grid, 10.6, 4.0)
    masses = np.abs(psi.values) ** 2
    index_sum = np.arange(64)[:, None] + np.arange(64)[None, :] - 64
    share = masses[np.abs(index_sum) >= 32].sum() / masses.sum()
    assert share > 1e-3
    with pytest.raises(GridTooNarrowError) as err:
        amplitude_moments(psi)
    assert err.value.limit == SECOND_BRANCH_LIMIT
    assert err.value.ratio == pytest.approx(share / SECOND_BRANCH_LIMIT, rel=1e-9)
    # a narrower pump on the same grid leaves the second branch empty
    narrower = amplitude_moments(build_pdc_amplitude(grid, 5.0, 4.0))
    assert narrower.var_omega == pytest.approx(25.0, rel=1e-6)
