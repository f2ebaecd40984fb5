"""Monte Carlo detection events and their time-difference statistics.

Event batches are pairs of detection times (t1, t2) in ps.  All randomness
flows through PCG64 generators (O'Neill 2014) keyed by a sha256 hash of
(seed, stream label), so every operation owns an independent substream and
batches reproduce bit for bit regardless of how callers interleave work.

Sampling from gridded densities uses inverse-CDF lookup on the flattened
grid plus a uniform offset inside the selected cell.  The offset makes the
samples continuous but adds the cell variance to tau: dt^2/6 for joint
2D draws (two independent offsets), dt^2/12 for direct tau draws.  Tests
comparing against density moments must include that term.

A batch is filled in the fixed blocks of `_blocks._for_blocks`, which
depend on the event count alone, and each block draws everything it needs
from its own stream (`_block_stream`), so the bytes do not depend on the
number of workers.  A block draws in this order, for its events of which
ns are signal and nb background events, each kind in event order:

* "biphoton": cell uniforms, t1 jitters, t2 jitters;
* "stationary" (sample_tau_density): signal-mask uniforms, nb background
  t1, nb background t2, ns tau cells, ns tau jitters, ns mean times;
* "stationary-sheared": the "stationary" order, then nb s1 cells, nb s1
  jitters, nb s2 cells, nb s2 jitters, ns cross cells and ns cross
  jitters (no cross draws when |x|^2 is all zero).

The detector jitter of estimate_tau_stats is drawn in sequence: a normal
variate takes a variable number of stream values, so it has no position.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from ._blocks import BLOCK_CELLS, _for_blocks
from .biphoton import JointTemporalDensity
from .errors import BatchTooSmallError, DegenerateStateError
from .moments import DispersionKit, _require_finite
from .spectral import _own_or_copy, _Owned, _read_body, _take, _write_table
from .stationary import StationaryPairModel, TauDensity


def _seed_digest(seed: int, label: str) -> bytes:
    return hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()


def derive_seed(seed: int, label: str) -> int:
    """A stable 64-bit sub-seed for (seed, label)."""
    return int.from_bytes(_seed_digest(seed, label)[:8], "little")


def _stream_key(seed: int, label: str) -> int:
    """The PCG64 seed of the (seed, label) stream: 128 bits of its sha256 digest."""
    return int.from_bytes(_seed_digest(seed, label)[:16], "little")


def _generator(seed: int, label: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_stream_key(seed, label)))


@dataclass(frozen=True, eq=False)
class EventBatch:
    """Paired detection times plus the metadata needed to reproduce them.

    window is the (lo, hi) interval all times are guaranteed to lie in, or
    None for batches that are not window-bounded (dispersed stationary
    events walk out of the shutter interval).  t1 and t2 are taken in by
    `spectral._own_or_copy`, so copied unless package code hands over fresh
    arrays as `_Owned(array)`.  Once estimate_tau_stats has taken them
    (`spectral._take`), reading them raises AttributeError; the repr leaves them out.
    """

    t1: np.ndarray = field(repr=False)
    t2: np.ndarray = field(repr=False)
    seed: int
    source: str
    window: tuple[float, float] | None = None

    def __post_init__(self):
        for name in ("t1", "t2"):
            object.__setattr__(self, name, _own_or_copy(getattr(self, name), np.float64, "detection times"))
        t1, t2 = self.t1, self.t2
        if t1.ndim != 1 or t1.shape != t2.shape or len(t1) == 0:
            raise ValueError("t1 and t2 must be equal-length non-empty 1D arrays")
        if self.window is not None:
            lo, hi = self.window
            if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"window must be a finite (lo, hi) interval, got {self.window!r}")
            for name, t in (("t1", t1), ("t2", t2)):
                if t.min() < lo or t.max() > hi:
                    raise ValueError(f"{name} leaves the declared window {self.window}")

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


# Buckets of the guide table in _InverseCdf.  A power of two, so that u*K,
# cdf*K, their floor and ceiling, and the bucket edges k/K are exact.
_GUIDE_CELLS = 1 << 16

# The `_for_blocks` width of an event: the temporaries of its block take up
# to 64 bytes, four 16-byte complex cells of an n x n kernel.
_EVENT_CELLS = 4


def _block_stream(key: int, start: int) -> np.random.Generator:
    """The generator of the sampler block whose first event is start: the PCG64 stream of key, advanced start * 2^64 steps.

    Blocks are thus 2^64 outputs apart, and block 0 reads the stream from
    its start.  The linear congruential state advances in O(log) steps
    (F. Brown, Trans. Am. Nucl. Soc. 71, 1994).  start may be a numpy
    integer, whose shift by 64 would overflow.
    """
    return np.random.Generator(np.random.PCG64(key).advance(operator.index(start) << 64))


class _InverseCdf:
    """Inverse-CDF lookup in weights (need not be normalized), for `count` queries in all.

    draw(u) returns exactly searchsorted(cdf, u, side="right") on the
    normalized CDF; only the route differs.

    A CDF of at most K = _GUIDE_CELLS cells queried at least K times uses a
    guide table (Chen & Asau, AIIE Trans. 6, 1974).  Bucket k = floor(u*K)
    holds the u in [k/K, (k+1)/K), and guide[k] = searchsorted(cdf, k/K,
    side="right"), the count of CDF values <= k/K, is the answer for all of
    them unless a CDF value falls inside the bucket (guide[k] != guide[k+1]);
    only those queries are searched.  As cdf[j] <= k/K exactly when
    ceil(cdf[j]*K) <= k, the table counts.  At most len(cdf) buckets are
    split and each takes 1/K of the queries, so a 1024-cell CDF searches
    under 1.6% of them.  Any other CDF (the n^2-cell biphoton one) is
    searched in sorted query order, which keeps the lookups cache-friendly,
    and the results are scattered back.  The table is int32, as no count
    passes len(cdf) <= K, and built once; draw only reads it, so blocks of
    queries may run in parallel.
    """

    def __init__(self, weights: np.ndarray, count: int):
        cdf = np.array(weights, order="C").reshape(-1)  # flat, in row-major order, whatever the layout of weights
        with np.errstate(over="ignore"):  # a total past the float range is inf, rejected below
            np.cumsum(cdf, out=cdf)
        if cdf[-1] <= 0.0:
            raise DegenerateStateError("cannot sample from an all-zero density")
        _require_finite("the total weight of the density to sample from", float(cdf[-1]))
        cdf /= cdf[-1]
        self.cdf = cdf
        self.guide = self.split = None
        if len(cdf) <= _GUIDE_CELLS <= count:
            above = np.ceil(cdf * _GUIDE_CELLS).astype(np.intp)
            self.guide = np.cumsum(np.bincount(above, minlength=_GUIDE_CELLS + 1), dtype=np.int32)
            self.split = self.guide[1:] != self.guide[:-1]

    def draw(self, u: np.ndarray) -> np.ndarray:
        """The cell indices of the uniforms u."""
        if self.guide is None:
            order = np.argsort(u)
            idx = np.empty(len(u), dtype=np.intp)
            idx[order] = np.searchsorted(self.cdf, u[order], side="right")
            return idx
        bucket = (u * _GUIDE_CELLS).astype(np.intp)  # truncation is the floor
        idx = self.guide[bucket]
        redo = np.flatnonzero(self.split[bucket])
        idx[redo] = np.searchsorted(self.cdf, u[redo], side="right")
        return idx


def _draw_cells(gen, cdf, centers, width, n):
    """centers[i] + (jitter - 0.5) * width for n events: their cell uniforms from gen, then their jitters."""
    return centers[cdf.draw(gen.random(n))] + (gen.random(n) - 0.5) * width


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
    key = _stream_key(seed, "biphoton")
    n = density.grid.n
    dt = density.grid.dt
    # The events outlive the call, the n^2-cell CDF does not.  Allocated
    # first, they do not split the hole it leaves, where the next n x n
    # array of a run fits (peak RSS over biphoton run + render cycles at
    # n = 1024: 101.6 MB, against 109.5 MB with the CDF allocated first).
    # The CDF is summed in a row-major copy of the density, which is its one
    # n^2-cell buffer, also for an exchanged density (a transposed view).
    t1 = np.empty(count)
    t2 = np.empty(count)
    cdf = _InverseCdf(density.values, count)
    times = density.grid.times
    period = n * dt

    def block(start, stop):
        size = stop - start
        gen = _block_stream(key, start)
        i1, i2 = np.divmod(cdf.draw(gen.random(size)), n)
        a = times[i1] + (gen.random(size) - 0.5) * dt
        b = times[i2] + (gen.random(size) - 0.5) * dt
        # half the shift period * round((t1 - t2) / period), applied to both times
        half = np.round((a - b) / period) * period * 0.5
        t1[start:stop] = a - half
        t2[start:stop] = b + half

    _for_blocks(count, _EVENT_CELLS, block)
    window = (float(times[0] - 0.5 * dt), float(times[-1] + 0.5 * dt))
    source = f"biphoton(n={n},domega={density.grid.domega:.17g})"
    return EventBatch(t1=_Owned(t1), t2=_Owned(t2), seed=seed, source=source, window=window)


def _draw_mean_times(tau, u, T):
    """(t1, t2) for uniform mean times conditioned on both detections landing in [0, T].

    Given tau (|tau| <= T), that law is tbar = (t1 + t2)/2 uniform on
    [|tau|/2, T - |tau|/2], drawn from one uniform u per event.  t1, t2 >= 0
    holds in floating point (tbar >= |tau|/2); the cap at T absorbs the
    last-ulp rounding of the sum.
    """
    abs_tau = np.abs(tau)
    tbar = abs_tau * 0.5 + u * (T - abs_tau)
    half = tau * 0.5
    return np.minimum(tbar + half, T), np.minimum(tbar - half, T)


def _sample_mixture(d, count, seed, label, source, window, sheared=None) -> EventBatch:
    """count events of the windowed mixture d as a batch, from the (seed, label) stream in the module docstring's order.

    sheared = (model, kit), with d None, takes d from the model's profile
    once count is checked, and draws every event's frequencies and group
    delays.  The tables, built first for the kinds of event the signal
    fraction allows, go before the batch is checked.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    d = d if sheared is None else sheared[0].profile
    T = d.window
    f_s = d.windowed.signal_fraction
    tau_cdf = _InverseCdf(d.signal * d.grid.dt, count) if f_s > 0.0 else None
    if sheared is not None:
        m, kit = sheared
        omegas, domega = m.grid.omegas, m.grid.domega
        bg_cdfs = (_InverseCdf(m.s1.values, count), _InverseCdf(m.s2.values, count)) if f_s < 1.0 else None
        mag2 = np.abs(m.cross.values) ** 2
        cross_cdf = _InverseCdf(mag2, count) if f_s > 0.0 and mag2.any() else None
        two_beta = 2.0 * kit.beta_L
        delays = (kit.delay_1, kit.delay_2)
        shifts = (np.add, np.subtract)  # t1 + 2*beta_L*w1, t2 - 2*beta_L*w2
    key = _stream_key(seed, label)
    t1 = np.empty(count)
    t2 = np.empty(count)

    def block(start, stop):
        gen = _block_stream(key, start)
        mask = gen.random(stop - start) < f_s
        bg = np.flatnonzero(~mask)
        sg = np.flatnonzero(mask)
        nb, ns = bg.size, sg.size
        times = (t1[start:stop], t2[start:stop])
        for t in times:
            t[bg] = gen.random(nb) * T
        if ns:
            # Profile mass beyond the window is negligible by the 6x RMS
            # precondition; clamp so the mean-time interval is never empty.
            tau = np.clip(_draw_cells(gen, tau_cdf, d.grid.times, d.grid.dt, ns), -T, T)
            for t, mean_time in zip(times, _draw_mean_times(tau, gen.random(ns), T)):
                t[sg] = mean_time
        if sheared is None:
            return
        omega = (np.zeros(stop - start), np.zeros(stop - start))  # omega1, omega2; 0 on a ridge of zero |x|^2
        if nb:
            for w, cdf in zip(omega, bg_cdfs):
                w[bg] = _draw_cells(gen, cdf, omegas, domega, nb)
        if ns and cross_cdf is not None:
            ridge = _draw_cells(gen, cross_cdf, omegas, domega, ns)
            omega[0][sg] = ridge
            omega[1][sg] = -ridge  # omega2 = -omega1 on the ridge
        for t, w, delay, shift in zip(times, omega, delays, shifts):
            t += delay
            shift(t, w * two_beta, out=t)

    _for_blocks(count, _EVENT_CELLS, block)
    tau_cdf = bg_cdfs = cross_cdf = None  # the batch's finite check takes a byte per event
    return EventBatch(t1=_Owned(t1), t2=_Owned(t2), seed=seed, source=source, window=window)


def sample_tau_density(d: TauDensity, count: int, seed: int, source: str = "tau-density") -> EventBatch:
    """Events of the windowed background/signal mixture described by d."""
    return _sample_mixture(d, count, seed, "stationary", f"{source}(T={d.window:.17g})", (0.0, d.window))


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
    source = f"stationary-{m.regime}-sheared(beta_L={kit.beta_L:.17g},T={m.window:.17g})"
    return _sample_mixture(None, count, seed, "stationary-sheared", source, None, (m, kit))


def estimate_tau_stats(batch: EventBatch, jitter_sigma: float, seed: int) -> TauStats:
    """Per-detector Gaussian timing jitter, then unbiased tau variance.

    Independent N(0, jitter_sigma^2) offsets are added to every t1 and t2,
    so tau gains variance 2*jitter_sigma^2.  The standard error of the
    variance comes from the fourth-moment formula
    Var(s^2) = (m4 - s^4*(n-3)/(n-1)) / n.  The jitter, t1's then t2's
    from one sequential generator, is added a sampler block at a time.
    The times take the jitter and tau in place (`spectral._take`): in a
    batch handed over as `_Owned(batch)`, which is consumed, or in one copy
    of a plain one's, with the same bits.  A batch that fails a check is
    not taken.  Times whose tau moments leave the float range raise
    ValueError, once taken.
    """
    n = getattr(batch, "held", batch).n
    if n < 2:
        raise BatchTooSmallError(f"need at least 2 events, got {n}", ratio=2 / n, limit=2)
    _require_finite("jitter_sigma", jitter_sigma, at_least=0)
    _, t1, t2 = _take(batch, "t1", "t2")
    if jitter_sigma > 0.0:
        rng = _generator(seed, "detector-jitter")
        step = BLOCK_CELLS // _EVENT_CELLS  # the events of a sampler block
        for t in (t1, t2):  # in pieces, with the bits of one n-element draw per detector
            for start in range(0, n, step):
                t[start : start + step] += rng.normal(0.0, jitter_sigma, min(step, n - start))
    # tau, in t1; then its deviations, their squares and fourth powers, in
    # place.  Past the float range a moment is inf or nan, and is rejected.
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.subtract(t1, t2, out=t1)
        mean = _require_finite("mean_tau", float(d.mean()))
        d -= mean
        d *= d  # m4 squares the squares again by a multiply, not a pow
        s2 = _require_finite("var_tau", float(d.sum() / (n - 1)))
        d *= d
        m4 = _require_finite("the fourth central moment of tau", float(d.mean()))
    var_of_var = (m4 - s2 * s2 * (n - 3) / (n - 1)) / n
    return TauStats(n=n, var_tau=s2, stderr=math.sqrt(max(var_of_var, 0.0)), mean_tau=mean)


def empirical_witness(
    before: TauStats, after_plus: TauStats, after_minus: TauStats, kit: DispersionKit
) -> EmpiricalWitnessReport:
    """Broadening test from three batch estimates.

    before must be the undispersed source, after_plus/after_minus the two
    swap configurations of the same source.  Raises DegenerateStateError
    when the before variance is consistent with zero at 3 sigma or the
    margin's standard error is not finite and positive.
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
    try:  # v0 * v0 may underflow to 0, and a float ** raises past the float range
        drhs_dv0 = 1.0 - two_bl ** 2 / (v0 * v0)
        margin_var = (
            0.25 * after_plus.stderr ** 2
            + 0.25 * after_minus.stderr ** 2
            + (drhs_dv0 * before.stderr) ** 2
        )
    except (ZeroDivisionError, OverflowError):
        raise DegenerateStateError(f"the bound's error term leaves the float range at var_tau = {v0}") from None
    margin_stderr = math.sqrt(margin_var)
    if not 0.0 < margin_stderr < math.inf:
        raise DegenerateStateError(f"the margin's standard error {margin_stderr} ps^2 must be finite and > 0")
    return EmpiricalWitnessReport(
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        margin_stderr=margin_stderr,
        significance=margin / margin_stderr,
        violated=margin > 0.0,
    )


# ---------------------------------------------------------------------------
# CSV interchange: bit-exact round trips via 17 significant digits.

def events_to_csv(batch: EventBatch, path) -> None:
    if batch.window is None:
        window = "none"
    else:
        window = f"{batch.window[0]:.17g},{batch.window[1]:.17g}"
    comment = f"# seed={batch.seed} window={window} source={batch.source}"
    _write_table(path, (comment, "t1_ps,t2_ps"), (batch.t1, batch.t2))


def _events_comment(path, comment: str):
    """(seed, window, source) of the first line of an events CSV."""
    try:
        if not comment.startswith("# seed="):
            raise ValueError
        seed_part, rest = comment[len("# seed="):].split(" window=", 1)
        window_part, source = rest.split(" source=", 1)
        seed = int(seed_part)
        if window_part == "none":
            return seed, None, source
        lo, hi = window_part.split(",")
        return seed, (float(lo), float(hi)), source
    except ValueError:
        raise ValueError(
            f"{path}: the first line must read '# seed=<int> window=<lo,hi|none> source=<text>', "
            f"got {comment!r}"
        ) from None


def events_from_csv(path) -> EventBatch:
    with open(path, "r", encoding="utf-8") as fh:
        seed, window, source = _events_comment(path, fh.readline().rstrip("\n"))
        data = _read_body(fh, path, "t1_ps,t2_ps")
    return EventBatch(
        t1=_Owned(data[:, 0]), t2=_Owned(data[:, 1]), seed=seed, source=source, window=window
    )
