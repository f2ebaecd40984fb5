"""Covariance shear, separability product and witness arithmetic.

The shear numbers are checked against a per-event Monte Carlo oracle:
draw (tau, Omega) from a bivariate normal with the stated moments, map
tau' = tau + 2*beta_L*Omega event by event, and compare sample moments.
The affine identity makes the expected values exact for any distribution,
so the Gaussian choice is pure convenience.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldc.errors import DegenerateStateError
from nldc.moments import (
    DispersionKit,
    TemporalCovariance,
    apply_jitter,
    evaluate_witness,
    jitter_feasibility,
    separability_check,
    shear_covariance,
    symmetrized_variance,
)

KIT15 = DispersionKit(beta_L=1.5)  # 2*beta_L = 3 ps^2


def _mc_shear(var_tau, var_omega, cov, beta_l, n=2_000_000, seed=20260814):
    """Sample moments of the per-event map tau' = tau + 2*beta_L*Omega."""
    rng = np.random.default_rng(seed)
    omega = rng.normal(0.0, math.sqrt(var_omega), n)
    resid = var_tau - cov ** 2 / var_omega
    tau = (cov / var_omega) * omega + rng.normal(0.0, math.sqrt(resid), n)
    tau_p = tau + 2.0 * beta_l * omega
    var_p = tau_p.var(ddof=1)
    cov_p = np.cov(tau_p, omega, ddof=1)[0, 1]
    # standard errors: Gaussian fourth-moment formulas
    se_var = var_p * math.sqrt(2.0 / n)
    se_cov = math.sqrt((var_p * var_omega + cov_p ** 2) / n)
    return var_p, se_var, cov_p, se_cov


def test_shear_diag_example_against_mc_oracle():
    cov = TemporalCovariance(var_tau=1.0, var_omega=4.0)
    out = shear_covariance(cov, KIT15)
    assert out.var_tau == 37.0  # 1 + 9*4, exact in floats
    var_mc, se_var, _, _ = _mc_shear(1.0, 4.0, 0.0, 1.5)
    assert abs(var_mc - 37.0) < 3.0 * se_var


def test_shear_mixed_example_against_mc_oracle():
    cov = TemporalCovariance(var_tau=1.0, var_omega=4.0, cov_tau_omega=0.5)
    out = shear_covariance(cov, KIT15)
    assert out.var_tau == 40.0  # 1 + 6*0.5 + 36
    assert out.cov_tau_omega == 12.5  # 0.5 + 3*4
    var_mc, se_var, cov_mc, se_cov = _mc_shear(1.0, 4.0, 0.5, 1.5, seed=77)
    assert abs(var_mc - 40.0) < 3.0 * se_var
    assert abs(cov_mc - 12.5) < 3.0 * se_cov


def test_shear_zero_beta_is_identity():
    cov = TemporalCovariance(var_tau=2.0, var_omega=3.0, cov_tau_omega=1.0,
                             mean_tau=0.5, mean_omega=-2.0)
    assert shear_covariance(cov, DispersionKit(beta_L=0.0)) == cov


def test_shear_cancellation_at_zero_bandwidth():
    cov = TemporalCovariance(var_tau=0.25, var_omega=0.0)
    for beta_l in (0.1, 5.0, -40.0):
        assert shear_covariance(cov, DispersionKit(beta_l)).var_tau == 0.25


def test_shear_of_a_saturated_state_stays_valid_where_var_tau_cancels():
    # var_tau' = (1 - 2*beta_L)^2 cancels to about 1e-12, and its rounding
    # fell below the floor cov'^2/var_omega that the exact value keeps: the
    # sheared state failed Cauchy-Schwarz.  It is raised to the floor.
    cov = TemporalCovariance(var_tau=1.0, var_omega=1.0, cov_tau_omega=-1.0)
    out = shear_covariance(cov, DispersionKit(beta_L=0.4999995))
    assert out.var_tau == out.cov_tau_omega ** 2 / out.var_omega
    assert out.var_tau == pytest.approx(1e-12, rel=1e-4)
    assert shear_covariance(cov, DispersionKit(beta_L=0.5)).var_tau == 0.0


def test_shear_leaves_a_valid_result_as_computed():
    cov = TemporalCovariance(var_tau=0.25, var_omega=16.0, cov_tau_omega=0.3)
    assert shear_covariance(cov, KIT15).var_tau == 0.25 + 2.0 * 3.0 * 0.3 + 3.0 ** 2 * 16.0


def test_shear_moves_mean_by_delays_and_dispersion():
    cov = TemporalCovariance(var_tau=1.0, var_omega=1.0, mean_omega=2.0)
    out = shear_covariance(cov, DispersionKit(beta_L=1.0, delay_1=5.0, delay_2=3.0))
    assert out.mean_tau == 5.0 - 3.0 + 2.0 * 2.0
    assert out.mean_omega == 2.0


def test_swapped_kit_flips_sign_and_delays():
    kit = DispersionKit(beta_L=2.0, delay_1=1.0, delay_2=4.0)
    assert kit.swapped() == DispersionKit(beta_L=-2.0, delay_1=4.0, delay_2=1.0)


def test_symmetrized_variance_example():
    cov = TemporalCovariance(var_tau=1.0, var_omega=4.0, cov_tau_omega=0.5)
    assert shear_covariance(cov, KIT15).var_tau == 40.0
    assert shear_covariance(cov, KIT15.swapped()).var_tau == 34.0
    assert symmetrized_variance(cov, KIT15) == 37.0


def test_symmetrized_equals_single_run_when_cov_zero():
    cov = TemporalCovariance(var_tau=1.0, var_omega=4.0)
    assert symmetrized_variance(cov, KIT15) == shear_covariance(cov, KIT15).var_tau


def test_symmetrized_zero_bandwidth_is_flat_in_beta():
    cov = TemporalCovariance(var_tau=0.7, var_omega=0.0)
    for beta_l in (0.0, 1.0, 100.0):
        assert symmetrized_variance(cov, DispersionKit(beta_l)) == 0.7


def test_separability_examples():
    boundary = separability_check(TemporalCovariance(1.0, 1.0))
    assert boundary.product == 1.0 and boundary.separable_consistent
    entangled = separability_check(TemporalCovariance(0.01, 1e-4))
    assert entangled.product == pytest.approx(1e-6) and not entangled.separable_consistent
    broad = separability_check(TemporalCovariance(100.0, 1.0))
    assert broad.product == 100.0 and broad.separable_consistent


def test_separability_product_from_quadrature_oracle():
    # Gaussian pair state: |psi|^2 factorizes into exp(-W^2/(2a^2)) in the
    # frequency sum and a conjugate Gaussian of variance 1/b^2 in tau.
    # Evaluate both variances by brute-force quadrature instead of trusting
    # the closed forms.
    a, b = 0.01, 10.0
    w = np.linspace(-8 * a, 8 * a, 20001)
    pdf_w = np.exp(-(w ** 2) / (2 * a ** 2))
    var_omega = np.trapezoid(w ** 2 * pdf_w, w) / np.trapezoid(pdf_w, w)
    t = np.linspace(-8 / b, 8 / b, 20001)
    pdf_t = np.exp(-(t ** 2) * b ** 2 / 2)
    var_tau = np.trapezoid(t ** 2 * pdf_t, t) / np.trapezoid(pdf_t, t)
    assert var_omega == pytest.approx(a ** 2, rel=1e-6)
    assert var_tau == pytest.approx(1 / b ** 2, rel=1e-6)
    product = separability_check(TemporalCovariance(var_tau, var_omega)).product
    assert product == pytest.approx(1e-6, rel=1e-5)


def test_witness_violated_regime_example():
    cov = TemporalCovariance(var_tau=0.01, var_omega=1e-4)
    report = evaluate_witness(cov, DispersionKit(beta_L=32.0))  # 2*beta_L = 64 ps^2
    assert report.lhs == pytest.approx(0.01 + 64.0 ** 2 * 1e-4, rel=1e-12)
    assert report.rhs == pytest.approx(409600.01, rel=1e-12)
    assert report.violated and report.margin > 0.0
    assert report.product == pytest.approx(1e-6)


def test_witness_boundary_margin_exactly_zero():
    cov = TemporalCovariance(var_tau=1.0, var_omega=1.0)
    report = evaluate_witness(cov, KIT15)
    assert report.lhs == 10.0 and report.rhs == 10.0
    assert report.margin == 0.0 and not report.violated


def test_witness_separable_example_not_violated():
    cov = TemporalCovariance(var_tau=1.0, var_omega=4.0, cov_tau_omega=0.5)
    report = evaluate_witness(cov, KIT15)
    assert report.lhs == 37.0 and report.rhs == 10.0
    assert report.margin == -27.0 and not report.violated


def test_witness_zero_var_tau_is_degenerate():
    with pytest.raises(DegenerateStateError):
        evaluate_witness(TemporalCovariance(var_tau=0.0, var_omega=1.0), KIT15)


def test_apply_jitter_examples():
    assert apply_jitter(TemporalCovariance(0.01, 1e-4), 2500.0).var_tau == 2500.01
    cov = TemporalCovariance(1.0, 1.0, cov_tau_omega=0.3, mean_tau=2.0)
    assert apply_jitter(cov, 0.0) == cov
    jittered = apply_jitter(cov, 1.0)
    assert jittered.var_tau == 2.0
    assert jittered.var_omega == 1.0 and jittered.cov_tau_omega == 0.3
    with pytest.raises(ValueError):
        apply_jitter(cov, -0.5)


def test_jitter_feasibility_headline_regime():
    cov = TemporalCovariance(var_tau=0.01, var_omega=1e-4)
    feas = jitter_feasibility(cov, DispersionKit(beta_L=32.0), jitter_var=2500.0)
    assert feas.linewidth_ok and feas.linewidth_product == 0.25
    assert not feas.dispersion_ok
    assert feas.dispersion_ratio == pytest.approx(64.0 / 2500.01, rel=1e-12)


def test_jitter_feasibility_boundaries():
    # dispersion ratio boundary is inclusive
    cov = TemporalCovariance(var_tau=1.0, var_omega=0.5)
    feas = jitter_feasibility(cov, DispersionKit(beta_L=1.0), jitter_var=1.0)
    assert feas.dispersion_ratio == 1.0 and feas.dispersion_ok
    # linewidth boundary is exclusive
    feas2 = jitter_feasibility(TemporalCovariance(1.0, 0.5), DispersionKit(10.0), 2.0)
    assert feas2.linewidth_product == 1.0 and not feas2.linewidth_ok
    with pytest.raises(ValueError):
        jitter_feasibility(cov, KIT15, 0.0)


def test_covariance_validation():
    with pytest.raises(ValueError):
        TemporalCovariance(var_tau=-1.0, var_omega=1.0)
    with pytest.raises(ValueError):
        TemporalCovariance(var_tau=1.0, var_omega=-1e-9)
    with pytest.raises(ValueError):
        TemporalCovariance(var_tau=1.0, var_omega=1.0, cov_tau_omega=1.1)
    with pytest.raises(ValueError):
        TemporalCovariance(var_tau=math.nan, var_omega=1.0)
    with pytest.raises(ValueError):
        DispersionKit(beta_L=math.inf)
    # Squares past the float range are errors that name the field, not an
    # OverflowError from **.
    with pytest.raises(ValueError, match=r"cov_tau_omega\^2"):
        TemporalCovariance(var_tau=1e308, var_omega=1e308, cov_tau_omega=1e308)
    with pytest.raises(ValueError, match=r"var_tau\*var_omega"):
        TemporalCovariance(var_tau=1e308, var_omega=10.0)
    with pytest.raises(ValueError, match="beta_L"):
        DispersionKit(beta_L=-1e160)
    # exact Cauchy-Schwarz saturation must construct
    TemporalCovariance(var_tau=4.0, var_omega=1.0, cov_tau_omega=2.0)


# ---------------------------------------------------------------------------
# Randomized properties.

_vars = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
_betas = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
_corr = st.floats(min_value=-0.999, max_value=0.999, allow_nan=False)


def _make_cov(var_tau, var_omega, rho):
    return TemporalCovariance(
        var_tau=var_tau,
        var_omega=var_omega,
        cov_tau_omega=rho * math.sqrt(var_tau * var_omega),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_vars, _vars, _corr, _betas)
def test_symmetrization_is_independent_of_cross_term(var_tau, var_omega, rho, beta_l):
    kit = DispersionKit(beta_l)
    with_cov = _make_cov(var_tau, var_omega, rho)
    without = TemporalCovariance(var_tau=var_tau, var_omega=var_omega)
    lhs = symmetrized_variance(with_cov, kit)
    expected = var_tau + (2.0 * beta_l) ** 2 * var_omega
    assert lhs == pytest.approx(expected, rel=1e-12, abs=1e-300)
    assert symmetrized_variance(without, kit) == pytest.approx(lhs, rel=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_vars, _vars, _corr, _betas)
def test_shear_preserves_validity_and_frequency_moments(var_tau, var_omega, rho, beta_l):
    cov = _make_cov(var_tau, var_omega, rho)
    out = shear_covariance(cov, DispersionKit(beta_l))  # would raise if invalid
    assert out.var_omega == cov.var_omega
    assert out.mean_omega == cov.mean_omega


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_vars, _vars, st.sampled_from([-1.0, 1.0]), st.floats(min_value=-1e-5, max_value=1e-5))
def test_shear_of_saturated_states_keeps_cauchy_schwarz(var_tau, var_omega, sign, detune):
    # beta_L near the value 2*beta_L = -cov/var_omega that shears var_tau to 0
    cov = _make_cov(var_tau, var_omega, sign)
    beta_l = -0.5 * cov.cov_tau_omega / var_omega * (1.0 + detune)
    out = shear_covariance(cov, DispersionKit(beta_l))  # would raise if invalid
    assert out.var_tau >= 0.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_vars, st.floats(min_value=1.000001, max_value=1e4), _corr, _betas)
def test_witness_soundness_on_separable_consistent_states(var_tau, uplift, rho, beta_l):
    # var_omega chosen so the product is uplift >= 1 + 1e-6: never a violation
    var_omega = uplift / var_tau
    cov = _make_cov(var_tau, var_omega, rho)
    report = evaluate_witness(cov, DispersionKit(beta_l))
    assert report.product >= 1.0
    assert report.margin <= 0.0
    assert not report.violated


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_vars, _vars, _betas,
       st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=0.0, max_value=1e6))
def test_margin_is_non_increasing_in_jitter(var_tau, var_omega, beta_l, j1, j2):
    lo, hi = sorted((j1, j2))
    cov = TemporalCovariance(var_tau=var_tau, var_omega=var_omega)
    kit = DispersionKit(beta_l)
    m_lo = evaluate_witness(apply_jitter(cov, lo), kit).margin
    m_hi = evaluate_witness(apply_jitter(cov, hi), kit).margin
    assert m_hi <= m_lo + 1e-9 * max(1.0, abs(m_lo))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_vars, _vars, _corr, _betas)
def test_violation_implies_product_below_one(var_tau, var_omega, rho, beta_l):
    cov = _make_cov(var_tau, var_omega, rho)
    report = evaluate_witness(cov, DispersionKit(beta_l))
    if report.violated:
        assert report.product < 1.0


def test_boundary_state_is_not_certified_by_rounding():
    # Shrunk from test_violation_implies_product_below_one: the product is
    # exactly 1 and rounding alone left a margin of one ulp of lhs.
    cov = _make_cov(1e-6, 1e6, 0.014470336565770459)
    report = evaluate_witness(cov, DispersionKit(beta_L=9.0))
    assert report.product == 1.0
    assert 0.0 < report.margin <= 2.0 ** -52 * report.lhs
    assert not report.violated


def test_product_just_below_one_is_still_certified():
    cov = TemporalCovariance(var_tau=1e-6, var_omega=(1.0 - 1e-9) / 1e-6)
    report = evaluate_witness(cov, DispersionKit(beta_L=9.0))
    assert report.product == pytest.approx(1.0 - 1e-9, rel=1e-15)
    assert report.violated
