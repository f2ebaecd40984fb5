"""Covariance-level propagation of two-beam temporal correlations.

The pipeline state is the set of second moments of the detection-time
difference tau = t1 - t2 (ps) and the detuning sum Omega = omega1 + omega2
(rad/ps) of two light beams.  Propagation through dispersive media of equal
length L and opposite group velocity dispersion (+beta in arm 1, -beta in
arm 2) shears these variables,

    tau'   = tau + (delay_1 - delay_2) + 2*beta_L*Omega
    Omega' = Omega

so covariances transform by exact affine algebra and no distributional
assumption ever enters.  Dispersion appears only through the lumped product
beta_L = beta*L (ps^2).

With hbar = 1 and the time/detuning convention used throughout this
package, Var(tau)*Var(Omega) is dimensionless and every separable
(non-entangled) joint state satisfies

    Var(tau) * Var(Omega) >= 1.

Feeding that bound into the symmetrized shear yields the broadening
inequality obeyed by all separable light,

    <Var(tau')>_sym >= Var(tau) + (2*beta_L)^2 / Var(tau),

whose measured violation certifies entanglement.  The "1" in the
separability bound is tied to hbar = 1; callers working in other unit
systems must rescale before comparing products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DegenerateStateError

# Headroom on the Cauchy-Schwarz check so boundary-saturating inputs that
# went through a rounding step or two still construct.
_CS_SLACK = 1.0 + 1e-12

# A margin certifies a violation only above this multiple of lhs + rhs.  It
# bounds the rounding of the handful of float operations behind lhs, rhs and
# their difference (Cauchy-Schwarz keeps the cancelling cross terms below
# lhs), so a state on the separable boundary is never certified by rounding.
_MARGIN_ROUNDING = 8 * 2.0 ** -52


def _require_finite(name, value, above=None, at_least=None):
    """value, or ValueError "<name> must be finite[ and > above | and >= at_least], got <value>".

    The one check of every scalar precondition in the package.
    """
    if math.isfinite(value) and (above is None or value > above) and (at_least is None or value >= at_least):
        return value
    bound = f" and > {above}" if above is not None else "" if at_least is None else f" and >= {at_least}"
    raise ValueError(f"{name} must be finite{bound}, got {value!r}")


@dataclass(frozen=True)
class TemporalCovariance:
    """Second moments of (tau, Omega).

    var_tau is in ps^2, var_omega in rad^2/ps^2, cov_tau_omega is
    dimensionless, mean_tau in ps and mean_omega in rad/ps.
    """

    var_tau: float
    var_omega: float
    cov_tau_omega: float = 0.0
    mean_tau: float = 0.0
    mean_omega: float = 0.0

    def __post_init__(self):
        _require_finite("var_tau", self.var_tau, at_least=0)
        _require_finite("var_omega", self.var_omega, at_least=0)
        for name in ("cov_tau_omega", "mean_tau", "mean_omega"):
            _require_finite(name, getattr(self, name))
        # Products, not **, so that an overflow is an inf that the check names
        # instead of an OverflowError.
        cov_sq = self.cov_tau_omega * self.cov_tau_omega
        var_product = self.var_tau * self.var_omega
        _require_finite("cov_tau_omega^2", cov_sq)
        _require_finite("var_tau*var_omega", var_product)
        if cov_sq > var_product * _CS_SLACK:
            raise ValueError(
                "cov_tau_omega violates Cauchy-Schwarz: "
                f"cov^2 = {cov_sq} > var_tau*var_omega = {var_product}"
            )


@dataclass(frozen=True)
class DispersionKit:
    """One two-arm dispersive assignment: +beta_L in arm 1, -beta_L in arm 2.

    beta_L is in ps^2, the propagation delays delay_1 and delay_2 in ps.
    """

    beta_L: float
    delay_1: float = 0.0
    delay_2: float = 0.0

    def __post_init__(self):
        for name in ("beta_L", "delay_1", "delay_2"):
            _require_finite(name, getattr(self, name))
        two_bl = 2.0 * self.beta_L
        if not math.isfinite(two_bl * two_bl):
            raise ValueError(f"beta_L = {self.beta_L!r} ps^2 is too large: (2*beta_L)^2 overflows")

    def swapped(self) -> "DispersionKit":
        """The same hardware with the two media exchanged between the arms."""
        return DispersionKit(beta_L=-self.beta_L, delay_1=self.delay_2, delay_2=self.delay_1)


@dataclass(frozen=True)
class SeparabilityCheck:
    product: float
    separable_consistent: bool


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the broadening inequality test.

    lhs, rhs and margin = rhs - lhs are in ps^2; violated means the margin
    exceeds its rounding bound 8*eps*(lhs + rhs), i.e. the symmetrized
    broadened variance fell below the separable bound.
    product is the dimensionless Var(tau)*Var(Omega) of the input state.
    """

    lhs: float
    rhs: float
    margin: float
    violated: bool
    product: float


@dataclass(frozen=True)
class JitterFeasibility:
    """Hardware feasibility flags for a jittered measurement.

    linewidth_product = var_omega * jitter_var must stay below 1 for the
    observed product test to remain conclusive (boundary excluded).
    dispersion_ratio = 2*beta_L / (var_tau + jitter_var) must reach 1 for
    the broadening to stand out of the observed variance (boundary
    included).
    """

    linewidth_ok: bool
    dispersion_ok: bool
    linewidth_product: float
    dispersion_ratio: float


def shear_covariance(cov: TemporalCovariance, kit: DispersionKit) -> TemporalCovariance:
    """Propagate second moments through one dispersive assignment.

    Exact affine image of the map tau -> tau + (d1 - d2) + 2*beta_L*Omega:

        var_tau'   = var_tau + 4*beta_L*cov + (2*beta_L)^2*var_omega
        cov'       = cov + 2*beta_L*var_omega
        var_omega' = var_omega

    The map keeps var_tau*var_omega - cov^2 exactly, so a state that meets
    Cauchy-Schwarz still meets it after the shear.  Where var_tau' cancels
    nearly to zero its rounding can put it below the floor cov'^2/var_omega
    that the exact value keeps; var_tau' is then raised to that floor, which
    leaves every other state's value as computed.
    """
    two_bl = 2.0 * kit.beta_L
    var_tau = cov.var_tau + 2.0 * two_bl * cov.cov_tau_omega + two_bl ** 2 * cov.var_omega
    cov_to = cov.cov_tau_omega + two_bl * cov.var_omega
    if cov.var_omega > 0.0:
        var_tau = max(var_tau, cov_to * cov_to / cov.var_omega)
    mean_tau = cov.mean_tau + kit.delay_1 - kit.delay_2 + two_bl * cov.mean_omega
    return TemporalCovariance(
        var_tau=var_tau,
        var_omega=cov.var_omega,
        cov_tau_omega=cov_to,
        mean_tau=mean_tau,
        mean_omega=cov.mean_omega,
    )


def symmetrized_variance(cov: TemporalCovariance, kit: DispersionKit) -> float:
    """Mean of var_tau' over the kit and its swapped counterpart.

    The mixed covariance term enters the two assignments with opposite
    signs, so algebraically this equals var_tau + (2*beta_L)^2*var_omega
    independently of cov_tau_omega.
    """
    plus = shear_covariance(cov, kit).var_tau
    minus = shear_covariance(cov, kit.swapped()).var_tau
    return 0.5 * (plus + minus)


def separability_check(cov: TemporalCovariance) -> SeparabilityCheck:
    """Product test: product < 1 certifies entanglement (hbar = 1 units)."""
    product = cov.var_tau * cov.var_omega
    return SeparabilityCheck(product=product, separable_consistent=product >= 1.0)


def evaluate_witness(cov_before: TemporalCovariance, kit: DispersionKit) -> WitnessReport:
    """Compare the symmetrized broadened variance against the separable bound.

    lhs is the symmetrized post-propagation Var(tau'), rhs is the bound
    var_tau + (2*beta_L)^2/var_tau that separable states cannot go below.
    Raises DegenerateStateError when var_tau = 0: the bound would need
    infinite bandwidth and its failure is not a violation.
    """
    if cov_before.var_tau == 0.0:
        raise DegenerateStateError(
            "var_tau = 0 makes the broadening bound undefined; report as non-evaluable"
        )
    lhs = symmetrized_variance(cov_before, kit)
    two_bl = 2.0 * kit.beta_L
    rhs = cov_before.var_tau + two_bl ** 2 / cov_before.var_tau
    margin = rhs - lhs
    return WitnessReport(
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        violated=margin > _MARGIN_ROUNDING * (lhs + rhs),
        product=cov_before.var_tau * cov_before.var_omega,
    )


def apply_jitter(cov: TemporalCovariance, jitter_var: float) -> TemporalCovariance:
    """Add detector timing jitter: var_tau grows by jitter_var (ps^2), nothing else moves."""
    return replace(cov, var_tau=cov.var_tau + _require_finite("jitter_var", jitter_var, at_least=0))


def jitter_feasibility(
    cov: TemporalCovariance, kit: DispersionKit, jitter_var: float
) -> JitterFeasibility:
    """Check whether a jittered measurement can still resolve the witness.

    cov is the intrinsic (jitter-free) state; jitter_var > 0 is the added
    tau variance in ps^2.
    """
    _require_finite("jitter_var", jitter_var, above=0)
    linewidth_product = cov.var_omega * jitter_var
    dispersion_ratio = 2.0 * kit.beta_L / (cov.var_tau + jitter_var)
    return JitterFeasibility(
        linewidth_ok=linewidth_product < 1.0,
        dispersion_ok=dispersion_ratio >= 1.0,
        linewidth_product=linewidth_product,
        dispersion_ratio=dispersion_ratio,
    )
