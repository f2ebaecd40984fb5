"""Monte Carlo detection events and their time-difference statistics.

Event batches are pairs of detection times (t1, t2) in ps.  All randomness
flows through counter-based Philox generators keyed by a sha256 hash of
(seed, stream label), so every operation owns an independent substream and
batches reproduce bit for bit regardless of how callers interleave work.

Sampling from gridded densities uses inverse-CDF lookup on the flattened
grid plus a uniform offset inside the selected cell.  The offset makes the
samples continuous but adds the cell variance to tau: dt^2/6 for joint
2D draws (two independent offsets), dt^2/12 for direct tau draws.  Tests
comparing against density moments must include that term.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .biphoton import JointTemporalDensity
from .errors import BatchTooSmallError, DegenerateStateError
from .moments import DispersionKit
from .spectral import _own_or_copy, _Owned, _readonly, _write_formatted_rows
from .stationary import StationaryPairModel, TauDensity


def _seed_digest(seed: int, label: str) -> bytes:
    return hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()


def derive_seed(seed: int, label: str) -> int:
    """A stable 64-bit sub-seed for (seed, label)."""
    return int.from_bytes(_seed_digest(seed, label)[:8], "little")


def _generator(seed: int, label: str) -> np.random.Generator:
    key = int.from_bytes(_seed_digest(seed, label)[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class EventBatch:
    """Paired detection times plus the metadata needed to reproduce them.

    window is the (lo, hi) interval all times are guaranteed to lie in, or
    None for batches that are not window-bounded (dispersed stationary
    events walk out of the shutter interval).  t1 and t2 are copied unless
    package code hands over fresh arrays as `_Owned(array)`.
    """

    t1: np.ndarray
    t2: np.ndarray
    seed: int
    source: str
    window: tuple[float, float] | None = None

    def __post_init__(self):
        t1 = _own_or_copy(self.t1, np.float64)
        t2 = _own_or_copy(self.t2, np.float64)
        if t1.ndim != 1 or t1.shape != t2.shape or len(t1) == 0:
            raise ValueError("t1 and t2 must be equal-length non-empty 1D arrays")
        if not (np.all(np.isfinite(t1)) and np.all(np.isfinite(t2))):
            raise ValueError("detection times must be finite")
        if self.window is not None:
            lo, hi = self.window
            if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"window must be a finite (lo, hi) interval, got {self.window!r}")
            for name, t in (("t1", t1), ("t2", t2)):
                if t.min() < lo or t.max() > hi:
                    raise ValueError(f"{name} leaves the declared window {self.window}")
        object.__setattr__(self, "t1", _readonly(t1))
        object.__setattr__(self, "t2", _readonly(t2))

    @property
    def n(self) -> int:
        return len(self.t1)

    @property
    def tau(self) -> np.ndarray:
        return self.t1 - self.t2


@dataclass(frozen=True)
class TauStats:
    """Unbiased sample variance of tau, its standard error and the mean."""

    n: int
    var_tau: float
    stderr: float
    mean_tau: float


@dataclass(frozen=True)
class EmpiricalWitnessReport:
    """Broadening test on sampled batches.

    Unlike the moments-route WitnessReport there is no product field: the
    batches carry no frequency information, so Var(Omega) is simply not
    measured.  margin_stderr propagates the three variance estimators'
    standard errors; significance = margin / margin_stderr.
    """

    lhs: float
    rhs: float
    margin: float
    margin_stderr: float
    significance: float
    violated: bool


# Buckets of the guide table in _inverse_cdf_draw.  A power of two, so that
# u*K, its floor and the bucket edges k/K are exact in binary floating point.
_GUIDE_CELLS = 1 << 16


def _inverse_cdf_draw(rng, weights, count):
    """Indices distributed as weights (need not be normalized).

    The result is exactly searchsorted(cdf, u, side="right") on the
    normalized CDF, with u = rng.random(count); only the route differs.

    A CDF of at most K = _GUIDE_CELLS cells queried at least K times uses a
    guide table (Chen & Asau, AIIE Trans. 6, 1974).  Bucket k = floor(u*K)
    holds the u in [k/K, (k+1)/K), and guide[k] = searchsorted(cdf, k/K) is
    the answer for all of them unless a CDF value falls inside the bucket
    (guide[k] != guide[k+1]); only those queries are searched.  At most
    len(cdf) buckets are split and each takes 1/K of the queries, so a
    1024-cell CDF searches under 1.6% of them.  Any other CDF (the n^2-cell
    biphoton one) is searched in sorted query order, which keeps the lookups
    cache-friendly, and the results are scattered back.
    """
    cdf = np.cumsum(weights)
    if cdf[-1] <= 0.0:
        raise DegenerateStateError("cannot sample from an all-zero density")
    cdf /= cdf[-1]
    u = rng.random(count)
    idx = np.empty(count, dtype=np.intp)
    if len(cdf) <= _GUIDE_CELLS <= count:
        edges = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS
        guide = np.searchsorted(cdf, edges, side="right")
        split = guide[1:] != guide[:-1]
        bucket = np.empty(count, dtype=np.intp)
        np.multiply(u, _GUIDE_CELLS, out=bucket, casting="unsafe")  # truncation is the floor
        # bucket < K as u < 1; mode="clip" spares the buffered copy of out
        # that mode="raise" makes.
        np.take(guide, bucket, out=idx, mode="clip")
        redo = np.flatnonzero(split[bucket])
        del bucket
        idx[redo] = np.searchsorted(cdf, u[redo], side="right")
    else:
        order = np.argsort(u)
        idx[order] = np.searchsorted(cdf, u[order], side="right")
    return idx


def sample_biphoton(density: JointTemporalDensity, count: int, seed: int) -> EventBatch:
    """Draw (t1, t2) pairs from a joint temporal density.

    Inverse-CDF over the flattened grid, then a uniform jitter inside the
    selected cell on each axis.  The grid density is periodic, so a ridge
    near t1 - t2 = 0 also shows up in the far corners of the flat array
    (t1 - t2 close to the full period); those draws are folded back by
    shifting both times half a period toward each other, which keeps the
    mean time and the cyclic time difference intact.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = _generator(seed, "biphoton")
    n = density.grid.n
    dt = density.dt
    idx = _inverse_cdf_draw(rng, density.values.ravel(), count)
    i1, i2 = np.divmod(idx, n)
    times = density.grid.times
    t1 = times[i1] + (rng.random(count) - 0.5) * dt
    t2 = times[i2] + (rng.random(count) - 0.5) * dt
    period = n * dt
    shift = period * np.round((t1 - t2) / period)
    t1 -= 0.5 * shift
    t2 += 0.5 * shift
    window = (float(times[0] - 0.5 * dt), float(times[-1] + 0.5 * dt))
    source = f"biphoton(n={n},domega={density.grid.domega:.17g})"
    return EventBatch(t1=_Owned(t1), t2=_Owned(t2), seed=seed, source=source, window=window)


def _draw_signal_taus(rng, d: TauDensity, count):
    idx = _inverse_cdf_draw(rng, d.signal * d.dt, count)
    tau = d.taus[idx] + (rng.random(count) - 0.5) * d.dt
    # Profile mass beyond the window is negligible by the 6x RMS precondition;
    # clamp so the mean-time interval of _draw_mean_times is never empty.
    return np.clip(tau, -d.window, d.window)


def _draw_mean_times(rng, tau, T):
    """Uniform mean times conditioned on both detections landing in [0, T].

    Given tau (|tau| <= T), that law is tbar = (t1 + t2)/2 uniform on
    [|tau|/2, T - |tau|/2], drawn once per event.  t1, t2 >= 0 holds in
    floating point (tbar >= |tau|/2); the cap at T absorbs the last-ulp
    rounding of the sum.
    """
    abs_tau = np.abs(tau)
    tbar = 0.5 * abs_tau + rng.random(len(tau)) * (T - abs_tau)
    return np.minimum(tbar + 0.5 * tau, T), np.minimum(tbar - 0.5 * tau, T)


def _sample_tau_mixture(rng, d: TauDensity, count):
    """Shared signal/background split; returns (t1, t2, signal mask)."""
    f_s = d.windowed.signal_fraction
    T = d.window
    signal = rng.random(count) < f_s
    n_bg = int(count - signal.sum())
    n_sig = int(signal.sum())
    t1 = np.empty(count)
    t2 = np.empty(count)
    t1[~signal] = rng.random(n_bg) * T
    t2[~signal] = rng.random(n_bg) * T
    if n_sig:
        tau = _draw_signal_taus(rng, d, n_sig)
        t1[signal], t2[signal] = _draw_mean_times(rng, tau, T)
    return t1, t2, signal


def sample_tau_density(d: TauDensity, count: int, seed: int, source: str = "tau-density") -> EventBatch:
    """Events of the windowed background/signal mixture described by d."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = _generator(seed, "stationary")
    t1, t2, _ = _sample_tau_mixture(rng, d, count)
    return EventBatch(
        t1=_Owned(t1),
        t2=_Owned(t2),
        seed=seed,
        source=f"{source}(T={d.window:.17g})",
        window=(0.0, d.window),
    )


def sample_stationary(m: StationaryPairModel, count: int, seed: int) -> EventBatch:
    """Events of a windowed stationary model before any dispersion."""
    return sample_tau_density(m.profile, count, seed, source=f"stationary-{m.regime}")


def sample_stationary_sheared(
    m: StationaryPairModel, kit: DispersionKit, count: int, seed: int
) -> EventBatch:
    """Events of a windowed stationary model after dispersive propagation.

    Every event carries its own frequencies: background events draw
    (omega1, omega2) independently from the two spectra, signal events draw
    omega from |x|^2 with omega2 = -omega1 (the ridge is exactly
    anticorrelated).  Each detection time then shifts by its group delay,
    t1 += delay_1 + 2*beta_L*omega1 and t2 += delay_2 - 2*beta_L*omega2,
    which realises the covariance shear per event.  Times may leave the
    shutter window, so the batch is unwindowed.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = _generator(seed, "stationary-sheared")
    t1, t2, signal = _sample_tau_mixture(rng, m.profile, count)
    n_bg = int(count - signal.sum())
    n_sig = int(signal.sum())
    grid = m.grid

    def draw_omegas(weights, n_draw):
        idx = _inverse_cdf_draw(rng, weights, n_draw)
        return grid.omegas[idx] + (rng.random(n_draw) - 0.5) * grid.domega

    w1 = np.zeros(count)
    w2 = np.zeros(count)
    if n_bg:
        w1[~signal] = draw_omegas(m.s1.values, n_bg)
        w2[~signal] = draw_omegas(m.s2.values, n_bg)
    if n_sig:
        mag2 = np.abs(m.cross.values) ** 2
        if mag2.sum() > 0.0:
            w = draw_omegas(mag2, n_sig)
            w1[signal] = w
            w2[signal] = -w
    # t1 + delay_1 + 2*beta_L*w1 and t2 + delay_2 - 2*beta_L*w2, in the
    # storage of the fresh t and w arrays
    t1 += kit.delay_1
    w1 *= 2.0 * kit.beta_L
    t1 += w1
    t2 += kit.delay_2
    w2 *= 2.0 * kit.beta_L
    t2 -= w2
    source = f"stationary-{m.regime}-sheared(beta_L={kit.beta_L:.17g},T={m.window:.17g})"
    return EventBatch(t1=_Owned(t1), t2=_Owned(t2), seed=seed, source=source, window=None)


def estimate_tau_stats(batch: EventBatch, jitter_sigma: float, seed: int) -> TauStats:
    """Per-detector Gaussian timing jitter, then unbiased tau variance.

    Independent N(0, jitter_sigma^2) offsets are added to every t1 and t2,
    so tau gains variance 2*jitter_sigma^2.  The standard error of the
    variance comes from the fourth-moment formula
    Var(s^2) = (m4 - s^4*(n-3)/(n-1)) / n.
    """
    if batch.n < 2:
        raise BatchTooSmallError(f"need at least 2 events, got {batch.n}")
    if not math.isfinite(jitter_sigma) or jitter_sigma < 0.0:
        raise ValueError(f"jitter_sigma must be finite and >= 0, got {jitter_sigma!r}")
    t1 = batch.t1
    t2 = batch.t2
    if jitter_sigma > 0.0:
        rng = _generator(seed, "detector-jitter")
        t1 = t1 + rng.normal(0.0, jitter_sigma, batch.n)
        t2 = t2 + rng.normal(0.0, jitter_sigma, batch.n)
    d = t1 - t2  # tau; then its deviations, their squares and fourth powers, in place
    n = batch.n
    mean = float(d.mean())
    d -= mean
    d *= d  # m4 squares the squares again by a multiply, not a pow
    s2 = float(d.sum() / (n - 1))
    d *= d
    m4 = float(d.mean())
    var_of_var = (m4 - s2 * s2 * (n - 3) / (n - 1)) / n
    return TauStats(n=n, var_tau=s2, stderr=math.sqrt(max(var_of_var, 0.0)), mean_tau=mean)


def empirical_witness(
    before: TauStats, after_plus: TauStats, after_minus: TauStats, kit: DispersionKit
) -> EmpiricalWitnessReport:
    """Broadening test from three batch estimates.

    before must be the undispersed source, after_plus/after_minus the two
    swap configurations of the same source.  Raises DegenerateStateError
    when the before variance is consistent with zero at 3 sigma, where the
    bound rhs = v0 + (2*beta_L)^2/v0 cannot be evaluated meaningfully.
    """
    v0 = before.var_tau
    if v0 <= 3.0 * before.stderr:
        raise DegenerateStateError(
            f"before-batch var_tau = {v0} is consistent with 0 at 3 sigma ({before.stderr})"
        )
    two_bl = 2.0 * kit.beta_L
    lhs = 0.5 * (after_plus.var_tau + after_minus.var_tau)
    rhs = v0 + two_bl ** 2 / v0
    margin = rhs - lhs
    drhs_dv0 = 1.0 - two_bl ** 2 / (v0 * v0)
    margin_var = (
        0.25 * after_plus.stderr ** 2
        + 0.25 * after_minus.stderr ** 2
        + (drhs_dv0 * before.stderr) ** 2
    )
    margin_stderr = math.sqrt(margin_var)
    if margin_stderr > 0.0:
        significance = margin / margin_stderr
    else:
        significance = math.inf if margin > 0.0 else (-math.inf if margin < 0.0 else 0.0)
    return EmpiricalWitnessReport(
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        margin_stderr=margin_stderr,
        significance=significance,
        violated=margin > 0.0,
    )


# ---------------------------------------------------------------------------
# CSV interchange: bit-exact round trips via 17 significant digits.

def events_to_csv(batch: EventBatch, path) -> None:
    if batch.window is None:
        window = "none"
    else:
        window = f"{batch.window[0]:.17g},{batch.window[1]:.17g}"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# seed={batch.seed} window={window} source={batch.source}\n")
        fh.write("t1_ps,t2_ps\n")
        _write_formatted_rows(fh, "%.17g,%.17g\n", (batch.t1, batch.t2))


def events_from_csv(path) -> EventBatch:
    with open(path, "r", encoding="utf-8") as fh:
        comment = fh.readline().rstrip("\n")
        if not comment.startswith("# seed="):
            raise ValueError(f"{path}: missing events metadata comment")
        body = comment[2:]
        seed_part, rest = body.split(" window=", 1)
        window_part, source = rest.split(" source=", 1)
        seed = int(seed_part.split("=", 1)[1])
        if window_part == "none":
            window = None
        else:
            lo, hi = window_part.split(",")
            window = (float(lo), float(hi))
        header = fh.readline().strip()
        if header != "t1_ps,t2_ps":
            raise ValueError(f"{path}: unexpected header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return EventBatch(
        t1=_Owned(data[:, 0]), t2=_Owned(data[:, 1]), seed=seed, source=source, window=window
    )
