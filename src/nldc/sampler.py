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

Every uniform a sampler uses has a fixed position in its stream, and
`_uniforms` reads it there.  A batch is filled in the fixed blocks of
`_blocks._for_blocks`, each block reading its share of every kind of
draw, so its bytes depend neither on the number of workers nor on the
block size.  A worker's blocks read each kind at contiguous positions, so
it enters each stream once and reads on in it.  The layouts, for count
events of which n_sig are signal and n_bg background events, each kind in
event order:

* "biphoton": count cell uniforms, count t1 jitters, count t2 jitters;
* "stationary" (sample_tau_density): count signal-mask uniforms, n_bg
  background t1, n_bg background t2, n_sig tau cells, n_sig tau jitters,
  n_sig mean times;
* "stationary-sheared": the "stationary" layout, then n_bg s1 cells, n_bg
  s1 jitters, n_bg s2 cells, n_bg s2 jitters, n_sig cross cells and n_sig
  cross jitters (no cross draws when |x|^2 is all zero).

The detector jitter of estimate_tau_stats is drawn in sequence: a normal
variate takes a variable number of stream values, so it has no position.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from ._blocks import _for_blocks
from .biphoton import JointTemporalDensity
from .errors import BatchTooSmallError, DegenerateStateError
from .moments import DispersionKit, _require_finite
from .spectral import _own_or_copy, _Owned, _read_body, _readonly, _write_formatted_rows
from .stationary import StationaryPairModel, TauDensity


def _seed_digest(seed: int, label: str) -> bytes:
    return hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()


def derive_seed(seed: int, label: str) -> int:
    """A stable 64-bit sub-seed for (seed, label)."""
    return int.from_bytes(_seed_digest(seed, label)[:8], "little")


def _stream_key(seed: int, label: str) -> int:
    """The Philox key of the (seed, label) stream."""
    return int.from_bytes(_seed_digest(seed, label)[:16], "little")


def _generator(seed: int, label: str) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, label)))


@dataclass(frozen=True, eq=False)
class EventBatch:
    """Paired detection times plus the metadata needed to reproduce them.

    window is the (lo, hi) interval all times are guaranteed to lie in, or
    None for batches that are not window-bounded (dispersed stationary
    events walk out of the shutter interval).  t1 and t2 are copied unless
    package code hands over fresh arrays as `_Owned(array)`.  Once
    estimate_tau_stats has consumed the batch, reading them raises
    AttributeError; the repr leaves them out.
    """

    t1: np.ndarray = field(repr=False)
    t2: np.ndarray = field(repr=False)
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


# Buckets of the guide table in _InverseCdf.  A power of two, so that u*K,
# cdf*K, their floor and ceiling, and the bucket edges k/K are exact.
_GUIDE_CELLS = 1 << 16

# The `_for_blocks` width of an event: its block scratch and temporaries
# take up to 64 bytes, four 16-byte complex cells of an n x n kernel.
_EVENT_CELLS = 4


def _uniforms(key: int, start: int, out: np.ndarray, streams: dict | None = None) -> np.ndarray:
    """Fill out with the doubles at positions [start, start + len(out)) of the Philox stream of key.

    Each double takes one 64-bit output, and one counter step of Philox
    yields four of them (Salmon et al., SC11), so the stream is entered at
    any position by advancing the counter start // 4 steps and dropping
    start % 4 outputs.  start may be a numpy integer, which Philox.advance
    itself rejects.  streams, a worker's {(key, position): Generator},
    keeps the stream where this read ends, for a read that starts there.
    """
    start = operator.index(start)
    streams = {} if streams is None else streams
    gen = streams.pop((key, start), None)
    if gen is None:
        gen = np.random.Generator(np.random.Philox(key=key).advance(start // 4))
        gen.bit_generator.random_raw(start % 4)
    gen.random(out=out)
    streams[key, start + len(out)] = gen
    return out


class _InverseCdf:
    """Inverse-CDF lookup in weights (need not be normalized), for `count` queries in all.

    draw(u, out, bucket) writes exactly searchsorted(cdf, u, side="right") on
    the normalized CDF into out; only the route differs.

    A CDF of at most K = _GUIDE_CELLS cells queried at least K times uses a
    guide table (Chen & Asau, AIIE Trans. 6, 1974).  Bucket k = floor(u*K)
    holds the u in [k/K, (k+1)/K), and guide[k] = searchsorted(cdf, k/K) is
    the answer for all of them unless a CDF value falls inside the bucket
    (guide[k] != guide[k+1]); only those queries are searched.  As
    cdf[j] <= k/K exactly when ceil(cdf[j]*K) <= k, the table counts.  At most
    len(cdf) buckets are split and each takes 1/K of the queries, so a
    1024-cell CDF searches under 1.6% of them.  Any other CDF (the n^2-cell
    biphoton one) is searched in sorted query order, which keeps the lookups
    cache-friendly, and the results are scattered back.  The table is built
    once; draw only reads it, so blocks of queries may run in parallel.
    """

    def __init__(self, weights: np.ndarray, count: int):
        cdf = np.array(weights, order="C").reshape(-1)  # flat, in row-major order, whatever the layout of weights
        np.cumsum(cdf, out=cdf)
        if cdf[-1] <= 0.0:
            raise DegenerateStateError("cannot sample from an all-zero density")
        cdf /= cdf[-1]
        self.cdf = cdf
        self.guide = self.split = None
        if len(cdf) <= _GUIDE_CELLS <= count:
            above = np.ceil(cdf * _GUIDE_CELLS).astype(np.intp)
            self.guide = np.cumsum(np.bincount(above, minlength=_GUIDE_CELLS + 1))
            self.split = self.guide[1:] != self.guide[:-1]

    def draw(self, u: np.ndarray, out: np.ndarray, bucket: np.ndarray) -> np.ndarray:
        """Indices for the uniforms u, into out; bucket is int64 scratch of the same length.

        The sorted route gathers the sorted uniforms into bucket, viewed as
        float64.
        """
        if self.guide is None:
            order = np.argsort(u)
            sorted_u = np.take(u, order, out=bucket.view(np.float64), mode="clip")
            out[order] = np.searchsorted(self.cdf, sorted_u, side="right")
            return out
        np.multiply(u, _GUIDE_CELLS, out=bucket, casting="unsafe")  # truncation is the floor
        # bucket < K as u < 1; mode="clip" spares the buffered copy of out
        # that mode="raise" makes.
        np.take(self.guide, bucket, out=out, mode="clip")
        redo = np.flatnonzero(self.split[bucket])
        out[redo] = np.searchsorted(self.cdf, u[redo], side="right")
        return out


def _scratch(**dtypes):
    """A sampler's block scratch: per worker, its streams (`_uniforms`) and one buffer of each named dtype, for at most `size` events."""
    return lambda size: SimpleNamespace(streams={}, **{name: np.empty(size, dtype=dtype) for name, dtype in dtypes.items()})


# The buffers of _draw_cells and _InverseCdf.draw.
_CELL_BUFFERS = {"u": np.float64, "idx": np.intp, "bucket": np.int64}


def _draw_cells(key, start, total, cdf, centers, width, out, s):
    """centers[i] + (jitter - 0.5) * width for len(out) events, into out.

    The cell uniforms are read from position start, their jitters from
    start + total: a batch draws all `total` cell uniforms of one kind
    before their jitters.
    """
    n = len(out)
    idx = cdf.draw(_uniforms(key, start, s.u[:n], s.streams), s.idx[:n], s.bucket[:n])
    np.take(centers, idx, out=out)
    jitter = _uniforms(key, start + total, s.u[:n], s.streams)
    jitter -= 0.5
    jitter *= width
    out += jitter
    return out


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
    dt = density.dt
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

    def block(start, stop, s):
        size = stop - start
        idx = cdf.draw(_uniforms(key, start, s.u[:size], s.streams), s.idx[:size], s.bucket[:size])
        i1, i2 = np.divmod(idx, n, out=(s.bucket[:size], idx))
        for t, cells, at in ((t1[start:stop], i1, count), (t2[start:stop], i2, 2 * count)):
            np.take(times, cells, out=t)
            jitter = _uniforms(key, at + start, s.u[:size], s.streams)
            jitter -= 0.5
            jitter *= dt
            t += jitter
        # half the shift period * round((t1 - t2) / period), applied to both times
        half = np.subtract(t1[start:stop], t2[start:stop], out=s.u[:size])
        half /= period
        np.round(half, out=half)
        half *= period
        half *= 0.5
        t1[start:stop] -= half
        t2[start:stop] += half

    _for_blocks(count, _EVENT_CELLS, block, _scratch(**_CELL_BUFFERS))
    window = (float(times[0] - 0.5 * dt), float(times[-1] + 0.5 * dt))
    source = f"biphoton(n={n},domega={density.grid.domega:.17g})"
    return EventBatch(t1=_Owned(t1), t2=_Owned(t2), seed=seed, source=source, window=window)


def _draw_mean_times(tau, u, T, t1, t2):
    """Uniform mean times conditioned on both detections landing in [0, T], into t1 and t2.

    Given tau (|tau| <= T), that law is tbar = (t1 + t2)/2 uniform on
    [|tau|/2, T - |tau|/2], drawn from one uniform u per event.  t1, t2 >= 0
    holds in floating point (tbar >= |tau|/2); the cap at T absorbs the
    last-ulp rounding of the sum.  tau and u are overwritten.
    """
    abs_tau = np.abs(tau, out=t1)
    u *= np.subtract(T, abs_tau, out=t2)
    tbar = np.multiply(abs_tau, 0.5, out=t2)
    tbar += u
    tau *= 0.5
    np.minimum(np.add(tbar, tau, out=t1), T, out=t1)
    np.minimum(np.subtract(tbar, tau, out=t2), T, out=t2)
    return t1, t2


def _signal_mask(key, f_s, count):
    """The mask u < f_s (stream positions 0 .. count), the signal events before each block start, and their total."""
    signal = np.empty(count, dtype=bool)

    def block(start, stop, s):
        mask = np.less(_uniforms(key, start, s.u[: stop - start], s.streams), f_s, out=signal[start:stop])
        return start, np.count_nonzero(mask)

    before, total = {}, 0
    for start, found in _for_blocks(count, _EVENT_CELLS, block, _scratch(u=np.float64)):
        before[start] = total  # counted in block order
        total += found
    return signal, before, total


def _sample_mixture(key, d: TauDensity, count, sheared=None):
    """(t1, t2) of the windowed background/signal mixture d.

    sheared = (model, kit) also gives every event its frequencies and
    shifts each time by its group delay.  The stream positions are those of
    the module docstring; a block of events reads its share of each kind at
    the count of that kind in the blocks before it.
    """
    T = d.window
    signal, sig_before, n_sig = _signal_mask(key, d.windowed.signal_fraction, count)
    n_bg = count - n_sig
    # stream positions of the first draw of each kind
    bg_at = (count, count + n_bg)  # t1, t2
    tau_at = count + 2 * n_bg  # cells, then jitters and mean times
    tau_cdf = _InverseCdf(d.signal * d.dt, n_sig) if n_sig else None
    if sheared is not None:
        m, kit = sheared
        omegas, domega = m.grid.omegas, m.grid.domega
        bg_omega_at = (tau_at + 3 * n_sig, tau_at + 3 * n_sig + 2 * n_bg)  # s1, s2
        cross_at = tau_at + 3 * n_sig + 4 * n_bg
        bg_cdfs = (_InverseCdf(m.s1.values, n_bg), _InverseCdf(m.s2.values, n_bg)) if n_bg else None
        mag2 = np.abs(m.cross.values) ** 2
        cross_cdf = _InverseCdf(mag2, n_sig) if n_sig and mag2.sum() > 0.0 else None
        two_beta = 2.0 * kit.beta_L
        delays = (kit.delay_1, kit.delay_2)
        shifts = (np.add, np.subtract)  # t1 + 2*beta_L*w1, t2 - 2*beta_L*w2
    t1 = np.empty(count)
    t2 = np.empty(count)

    def block(start, stop, s):
        k = sig_before[start]  # signal events before this block
        j = start - k  # background events before it
        mask = signal[start:stop]
        bg = np.flatnonzero(~mask)
        sg = np.flatnonzero(mask)
        nb, ns = bg.size, sg.size
        times = (t1[start:stop], t2[start:stop])
        if nb:
            for t, at in zip(times, bg_at):
                u = _uniforms(key, at + j, s.u[:nb], s.streams)
                u *= T
                t[bg] = u
        if ns:
            tau = _draw_cells(key, tau_at + k, n_sig, tau_cdf, d.taus, d.dt, s.x[:ns], s)
            # Profile mass beyond the window is negligible by the 6x RMS
            # precondition; clamp so the mean-time interval is never empty.
            np.clip(tau, -T, T, out=tau)
            u = _uniforms(key, tau_at + 2 * n_sig + k, s.u[:ns], s.streams)
            for t, mean_time in zip(times, _draw_mean_times(tau, u, T, s.v[:ns], s.w[:ns])):
                t[sg] = mean_time
        if sheared is None:
            return
        ridge = None  # omega1 of the signal events; 0 when the cross is all zero
        if ns and cross_cdf is not None:
            ridge = _draw_cells(key, cross_at + k, n_sig, cross_cdf, omegas, domega, s.x[:ns], s)
        w = s.w[: stop - start]
        for arm, t in enumerate(times):
            w.fill(0.0)
            if nb:
                w[bg] = _draw_cells(key, bg_omega_at[arm] + j, n_bg, bg_cdfs[arm], omegas, domega, s.v[:nb], s)
            if ridge is not None:
                w[sg] = ridge
                np.negative(ridge, out=ridge)  # omega2 = -omega1 on the ridge
            t += delays[arm]
            w *= two_beta
            shifts[arm](t, w, out=t)

    _for_blocks(count, _EVENT_CELLS, block, _scratch(**_CELL_BUFFERS, v=np.float64, w=np.float64, x=np.float64))
    return t1, t2


def sample_tau_density(d: TauDensity, count: int, seed: int, source: str = "tau-density") -> EventBatch:
    """Events of the windowed background/signal mixture described by d."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    t1, t2 = _sample_mixture(_stream_key(seed, "stationary"), d, count)
    return EventBatch(
        t1=_Owned(t1),
        t2=_Owned(t2),
        seed=seed,
        source=f"{source}(T={d.window:.17g})",
        window=(0.0, d.window),
    )


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
    t1, t2 = _sample_mixture(_stream_key(seed, "stationary-sheared"), m.profile, count, (m, kit))
    source = f"stationary-{m.regime}-sheared(beta_L={kit.beta_L:.17g},T={m.window:.17g})"
    return EventBatch(t1=_Owned(t1), t2=_Owned(t2), seed=seed, source=source, window=None)


def estimate_tau_stats(batch: EventBatch, jitter_sigma: float, seed: int) -> TauStats:
    """Per-detector Gaussian timing jitter, then unbiased tau variance.

    Independent N(0, jitter_sigma^2) offsets are added to every t1 and t2,
    so tau gains variance 2*jitter_sigma^2.  The standard error of the
    variance comes from the fourth-moment formula
    Var(s^2) = (m4 - s^4*(n-3)/(n-1)) / n.  A batch handed over as
    `_Owned(batch)` is consumed: its times take the jitter and tau, with
    the bits a plain batch gives.  A plain batch is left as it was.
    """
    owned = isinstance(batch, _Owned)
    batch = batch.held if owned else batch
    n = batch.n
    if n < 2:
        raise BatchTooSmallError(f"need at least 2 events, got {n}", ratio=2 / n if n else math.inf, limit=2)
    _require_finite("jitter_sigma", jitter_sigma, at_least=0)
    t1, t2 = batch.t1, batch.t2
    if owned:
        for name, t in (("t1", t1), ("t2", t2)):
            t.setflags(write=True)
            object.__delattr__(batch, name)
    if jitter_sigma > 0.0:
        rng = _generator(seed, "detector-jitter")
        t1 = np.add(t1, rng.normal(0.0, jitter_sigma, n), out=t1 if owned else None)
        t2 = np.add(t2, rng.normal(0.0, jitter_sigma, n), out=t2 if owned else None)
    # tau, in t1 if it is not a caller's; then its deviations, their squares and fourth powers, in place
    d = np.subtract(t1, t2, out=t1 if owned or jitter_sigma > 0.0 else None)
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
