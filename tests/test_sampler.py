"""Event sampling, tau statistics and the broadening test on batches.

Monte Carlo assertions in this module run at fixed seeds with 3 sigma
tolerances computed from the estimators' own standard errors, so they are
deterministic.  Grid-sampled draws carry in-cell jitter: dt^2/6 on tau for
joint 2D draws, dt^2/12 for direct tau draws, domega^2/6 on Omega for
background pairs; expectations below include those terms explicitly.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nldc.sampler
from nldc._blocks import BLOCK_CELLS
from nldc.biphoton import (
    JointTemporalDensity,
    amplitude_moments,
    build_pdc_amplitude,
    to_time_domain,
)
from nldc.errors import BatchTooSmallError, DegenerateStateError
from nldc.moments import DispersionKit, shear_covariance
from nldc.sampler import (
    _EVENT_CELLS,
    _GUIDE_CELLS,
    EventBatch,
    TauStats,
    _block_stream,
    _draw_mean_times,
    _generator,
    _InverseCdf,
    _stream_key,
    derive_seed,
    empirical_witness,
    estimate_tau_stats,
    events_from_csv,
    events_to_csv,
    sample_biphoton,
    sample_stationary_sheared,
    sample_tau_density,
)
from nldc.spectral import (
    _CHUNK_ROWS,
    FrequencyGrid,
    _Owned,
    flat_cross,
    flat_spectrum,
    gaussian_cross,
    gaussian_spectrum,
    max_classical_cross,
)
from nldc.stationary import (
    TauDensity,
    make_pair_model,
    windowed_covariance,
)


def _point_mass_density(grid, i, j):
    values = np.zeros((grid.n, grid.n))
    values[i, j] = 1.0 / grid.dt ** 2
    return JointTemporalDensity(grid=grid, values=values)


def test_derive_seed_is_stable_and_label_separated():
    assert derive_seed(7, "a") == 8104344808565692802
    assert derive_seed(7, "a") == derive_seed(7, "a")
    assert derive_seed(7, "a") != derive_seed(7, "b")
    assert derive_seed(7, "a") != derive_seed(8, "a")


def test_generator_streams_are_keyed_by_the_seed_hash():
    # The PCG64 seed is the first 16 bytes of sha256("seed:label"), the
    # same digest whose first 8 bytes are derive_seed.
    for seed, label in ((7, "a"), (123, "stationary-sheared"), (0, "detector-jitter")):
        digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
        assert derive_seed(seed, label) == int.from_bytes(digest[:8], "little")
        key = int.from_bytes(digest[:16], "little")
        expected = np.random.Generator(np.random.PCG64(key)).random(5)
        assert np.array_equal(_generator(seed, label).random(5), expected)


def test_point_mass_draws_stay_inside_their_cell():
    grid = FrequencyGrid(64, 0.25)
    i, j = grid.n // 2 + 3, grid.n // 2 - 5
    batch = sample_biphoton(_point_mass_density(grid, i, j), 1000, seed=11)
    dt = grid.dt
    assert np.all(np.abs(batch.t1 - grid.times[i]) <= dt / 2)
    assert np.all(np.abs(batch.t2 - grid.times[j]) <= dt / 2)
    assert batch.window == (grid.times[0] - dt / 2, grid.times[-1] + dt / 2)


def test_corner_cell_folds_back_to_small_cyclic_tau():
    # The grid density is periodic: a ridge pinned to t1 - t2 = 0 leaks
    # into the far corners of the flat array.  A corner draw must come
    # back with the cyclic time difference, not the full-period one.
    grid = FrequencyGrid(64, 0.25)
    dt = grid.dt
    batch = sample_biphoton(_point_mass_density(grid, 0, grid.n - 1), 500, seed=3)
    assert np.all(np.abs(batch.tau - dt) <= dt + 1e-12)
    assert np.all(np.abs(batch.t1) <= dt / 2 + 1e-12)
    assert np.all(np.abs(batch.t2 + dt) <= dt / 2 + 1e-12)


def test_gaussian_density_variance_within_monte_carlo_error():
    grid = FrequencyGrid(128, 0.25)
    psi = build_pdc_amplitude(grid, 0.9, 1.3)
    cov = amplitude_moments(psi)
    batch = sample_biphoton(to_time_domain(psi), 20_000, seed=5)
    stats = estimate_tau_stats(batch, 0.0, seed=0)
    expected = cov.var_tau + grid.dt ** 2 / 6.0
    assert abs(stats.var_tau - expected) <= 3.0 * stats.stderr
    assert abs(stats.mean_tau) <= 3.0 * math.sqrt(stats.var_tau / batch.n)


def test_narrow_pump_ridge_recovers_inverse_bandwidth_variance():
    # Pump width 0.01 on a 0.64 rad/ps grid snaps to the exact
    # anticorrelation line; the time-difference variance is then set by
    # the phase-matching width alone, 1/b^2 = 0.01 ps^2, and a million
    # draws resolve it to about 1.4e-5.
    grid = FrequencyGrid(2048, 0.64)
    psi = build_pdc_amplitude(grid, 0.01, 10.0)
    cov = amplitude_moments(psi)
    assert cov.var_tau == pytest.approx(0.01, rel=1e-4)
    batch = sample_biphoton(to_time_domain(psi), 1_000_000, seed=66)
    stats = estimate_tau_stats(batch, 0.0, seed=0)
    expected = cov.var_tau + grid.dt ** 2 / 6.0
    assert abs(stats.var_tau - expected) <= 3.0 * stats.stderr
    assert abs(stats.mean_tau) <= 3.0 * math.sqrt(stats.var_tau / batch.n)


def test_signal_only_mixture_hugs_the_ridge():
    grid = FrequencyGrid(256, 0.25)
    taus = grid.times
    signal = np.exp(-(taus ** 2) / (2.0 * 0.5 ** 2))
    d = TauDensity(grid=grid, signal=signal, background=0.0, window=10.0)
    batch = sample_tau_density(d, 5000, seed=9)
    assert batch.window == (0.0, 10.0)
    assert np.all(np.abs(batch.tau) <= 6.0 * 0.5)
    stats = estimate_tau_stats(batch, 0.0, seed=0)
    expected = d.windowed.variance + grid.dt ** 2 / 12.0
    assert abs(stats.var_tau - expected) <= 3.0 * stats.stderr


def test_background_only_mixture_is_triangular():
    grid = FrequencyGrid(256, 0.25)
    s = gaussian_spectrum(grid, 1.0, 1.0)
    m = make_pair_model(s, s, flat_cross(grid, 0.0), window=12.0)
    batch = sample_tau_density(m.profile, 20_000, seed=21)
    assert batch.window == (0.0, 12.0)
    stats = estimate_tau_stats(batch, 0.0, seed=0)
    assert abs(stats.var_tau - 12.0 ** 2 / 6.0) <= 3.0 * stats.stderr


def test_mean_times_keep_both_detections_in_the_window():
    # |tau| = T leaves a single admissible mean time, T/2; a rejection
    # sampler never lands on it.
    T = 7.3
    tau = np.repeat([T, -T, 0.0, T / 2, -T / 2], 4000)
    u = _generator(5, "mean-times").random(len(tau))
    t1, t2 = _draw_mean_times(tau, u, T)
    for t in (t1, t2):
        assert np.all((t >= 0.0) & (t <= T))
    assert np.allclose(t1 - t2, tau, rtol=0.0, atol=1e-12 * T)
    tbar = 0.5 * (t1 + t2)
    assert np.allclose(tbar[:8000], T / 2, rtol=0.0, atol=1e-12 * T)
    for start, lo, hi in ((8000, 0.0, T), (12000, T / 4, 3 * T / 4)):  # tau = 0, T/2
        part = tbar[start : start + 4000]
        assert lo <= part.min() and part.max() <= hi
        # Uniform on [lo, hi]: mean (lo+hi)/2, sd (hi-lo)/sqrt(12)/sqrt(4000) each.
        assert abs(part.mean() - 0.5 * (lo + hi)) < 4.0 * (hi - lo) / math.sqrt(12.0 * 4000)


def test_mixture_variance_tracks_the_windowed_formula():
    grid = FrequencyGrid(512, 0.25)
    s = gaussian_spectrum(grid, 1.0, 1.0)
    m = make_pair_model(s, s, gaussian_cross(grid, 1.0, 1.0), window=14.0)
    stats_formula = m.profile.windowed
    batch = sample_tau_density(m.profile, 30_000, seed=17)
    est = estimate_tau_stats(batch, 0.0, seed=0)
    expected = stats_formula.variance + stats_formula.signal_fraction * grid.dt ** 2 / 12.0
    assert abs(est.var_tau - expected) <= 3.0 * est.stderr


def test_sheared_events_realise_the_covariance_shear():
    grid = FrequencyGrid(512, 0.25)
    s = gaussian_spectrum(grid, 1.0, 1.0)
    m = make_pair_model(s, s, gaussian_cross(grid, 1.2, 1.0), window=14.0)
    assert m.regime == "quantum"
    kit = DispersionKit(beta_L=0.8, delay_1=0.3, delay_2=-0.2)
    cov0 = windowed_covariance(m)
    sheared = shear_covariance(cov0, kit)
    f_s = m.profile.windowed.signal_fraction
    f_b = 1.0 - f_s
    batch = sample_stationary_sheared(m, kit, 40_000, seed=31)
    assert batch.window is None
    est = estimate_tau_stats(batch, 0.0, seed=0)
    # In-cell draw jitter: tau picks up f_s*dt^2/12 from the ridge draws
    # and the background pairs add domega^2/6 to Var(Omega), which the
    # shear multiplies by (2*beta_L)^2.
    expected = (
        sheared.var_tau
        + f_s * grid.dt ** 2 / 12.0
        + (2.0 * kit.beta_L) ** 2 * f_b * grid.domega ** 2 / 6.0
    )
    assert abs(est.var_tau - expected) <= 3.0 * est.stderr
    assert est.mean_tau == pytest.approx(
        sheared.mean_tau, abs=3.0 * math.sqrt(est.var_tau / batch.n)
    )


def test_batches_reproduce_bit_for_bit():
    grid = FrequencyGrid(128, 0.25)
    density = to_time_domain(build_pdc_amplitude(grid, 0.9, 1.3))
    a = sample_biphoton(density, 500, seed=101)
    b = sample_biphoton(density, 500, seed=101)
    c = sample_biphoton(density, 500, seed=102)
    assert np.array_equal(a.t1, b.t1) and np.array_equal(a.t2, b.t2)
    assert not np.array_equal(a.t1, c.t1)

    s = gaussian_spectrum(grid, 1.0, 1.0)
    m = make_pair_model(s, s, gaussian_cross(grid, 0.5, 1.0), window=10.0)
    kit = DispersionKit(beta_L=0.5)
    d1 = sample_stationary_sheared(m, kit, 500, seed=101)
    d2 = sample_stationary_sheared(m, kit, 500, seed=101)
    assert np.array_equal(d1.t1, d2.t1) and np.array_equal(d1.t2, d2.t2)


def test_estimate_tau_stats_exact_small_batch():
    batch = EventBatch(
        t1=np.array([0.0, 1.0, 2.0, 3.0]), t2=np.zeros(4), seed=0, source="hand"
    )
    stats = estimate_tau_stats(batch, 0.0, seed=0)
    assert stats.n == 4
    assert stats.var_tau == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert stats.mean_tau == 1.5
    same = EventBatch(t1=np.full(8, 2.5), t2=np.full(8, 1.0), seed=0, source="hand")
    flat = estimate_tau_stats(same, 0.0, seed=0)
    assert flat.var_tau == 0.0
    assert flat.stderr == 0.0


@pytest.mark.parametrize(
    "t1, t2, quantity",
    [
        ([1e308, -1e308, 0.0], [-1e308, 1e308, 0.0], "mean_tau"),  # tau overflows both ways
        ([1e200, 0.0, 0.0], [0.0, 0.0, 0.0], "var_tau"),
        ([1e100, 0.0, 0.0], [0.0, 0.0, 0.0], "the fourth central moment of tau"),
    ],
)
def test_tau_moments_past_the_float_range_raise(t1, t2, quantity):
    # A ValueError naming the moment, and no numpy warning (warnings fail tests).
    batch = EventBatch(t1=np.array(t1), t2=np.array(t2), seed=0, source="hand")
    with pytest.raises(ValueError, match=f"^{quantity} must be finite"):
        estimate_tau_stats(batch, 0.0, seed=0)


def test_detector_jitter_adds_twice_its_variance_to_tau():
    n = 200_000
    batch = EventBatch(t1=np.zeros(n), t2=np.zeros(n), seed=0, source="still")
    sigma = 2.0
    stats = estimate_tau_stats(batch, sigma, seed=77)
    assert abs(stats.var_tau - 2.0 * sigma ** 2) <= 3.0 * stats.stderr
    # Same batch, same seed: jitter is a keyed substream, so the estimate
    # is reproducible.
    again = estimate_tau_stats(batch, sigma, seed=77)
    assert again.var_tau == stats.var_tau


def test_detector_jitter_is_added_in_pieces_with_the_bits_of_one_draw():
    n = 3 * (BLOCK_CELLS // _EVENT_CELLS) + 5
    t1, t2 = np.sin(np.arange(n)), np.cos(np.arange(n))
    whole = _generator(4, "detector-jitter")  # one n-element draw for t1, then one for t2
    jittered = EventBatch(t1=t1 + whole.normal(0.0, 0.4, n), t2=t2 + whole.normal(0.0, 0.4, n), seed=0, source="hand")
    want = _stats_bits(estimate_tau_stats(jittered, 0.0, seed=0))
    assert _stats_bits(estimate_tau_stats(EventBatch(t1=t1, t2=t2, seed=0, source="hand"), 0.4, seed=4)) == want


def test_detector_jitter_takes_no_batch_sized_temporary():
    n = 1_000_000
    estimate_tau_stats(EventBatch(t1=np.zeros(8), t2=np.zeros(8), seed=0, source="warm"), 0.5, seed=1)
    batch = EventBatch(t1=_Owned(np.zeros(n)), t2=_Owned(np.zeros(n)), seed=0, source="still")
    tracemalloc.start()
    try:
        estimate_tau_stats(_Owned(batch), 0.5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one piece of normals, a sampler block's (8 bytes an event), not 8 * n
    piece = 8 * (BLOCK_CELLS // _EVENT_CELLS)
    assert peak < 2 * piece < 8 * n // 4


def test_batch_validation_and_small_batch_rejection():
    one = EventBatch(t1=np.array([1.0]), t2=np.array([0.5]), seed=0, source="one")
    with pytest.raises(BatchTooSmallError):
        estimate_tau_stats(one, 0.0, seed=0)
    with pytest.raises(ValueError):
        EventBatch(t1=np.array([1.0, 2.0]), t2=np.array([1.0]), seed=0, source="bad")
    with pytest.raises(ValueError):
        EventBatch(t1=np.array([]), t2=np.array([]), seed=0, source="empty")
    with pytest.raises(ValueError):
        EventBatch(t1=np.array([np.nan]), t2=np.array([0.0]), seed=0, source="nan")
    with pytest.raises(ValueError):
        EventBatch(
            t1=np.array([5.0]), t2=np.array([0.0]), seed=0, source="out", window=(0.0, 1.0)
        )
    with pytest.raises(ValueError):
        EventBatch(
            t1=np.array([0.5]), t2=np.array([0.5]), seed=0, source="rev", window=(1.0, 0.0)
        )
    with pytest.raises(ValueError):
        sample_tau_density(
            TauDensity(
                grid=FrequencyGrid(32, 0.5), signal=np.zeros(32), background=1.0, window=4.0
            ),
            0,
            seed=0,
        )


def test_empirical_witness_algebra_on_hand_built_stats():
    before = TauStats(n=1000, var_tau=2.0, stderr=0.05, mean_tau=0.0)
    plus = TauStats(n=1000, var_tau=10.0, stderr=0.1, mean_tau=0.0)
    minus = TauStats(n=1000, var_tau=12.0, stderr=0.1, mean_tau=0.0)
    report = empirical_witness(before, plus, minus, DispersionKit(beta_L=2.0))
    assert report.lhs == 11.0
    assert report.rhs == 10.0
    assert report.margin == -1.0
    # d(rhs)/d(v0) = 1 - 16/4 = -3; margin var = 2*(0.1^2/4) + (3*0.05)^2
    assert report.margin_stderr == pytest.approx(math.sqrt(0.005 + 0.0225), rel=1e-12)
    assert report.significance == pytest.approx(-1.0 / math.sqrt(0.0275), rel=1e-12)
    assert not report.violated


def test_empirical_witness_rejects_degenerate_reference():
    before = TauStats(n=10, var_tau=0.01, stderr=0.01, mean_tau=0.0)
    other = TauStats(n=10, var_tau=1.0, stderr=0.1, mean_tau=0.0)
    with pytest.raises(DegenerateStateError):
        empirical_witness(before, other, other, DispersionKit(beta_L=1.0))


def test_no_dispersion_margin_is_statistically_null():
    grid = FrequencyGrid(128, 0.25)
    density = to_time_domain(build_pdc_amplitude(grid, 0.9, 1.3))
    kit = DispersionKit(beta_L=0.0)
    stats = [
        estimate_tau_stats(sample_biphoton(density, 20_000, seed=derive_seed(40, lbl)), 0.0, 0)
        for lbl in ("before", "plus", "minus")
    ]
    report = empirical_witness(stats[0], stats[1], stats[2], kit)
    assert abs(report.significance) < 4.0
    assert report.violated == (report.margin > 0.0)


def test_events_csv_round_trips_bit_for_bit(tmp_path):
    grid = FrequencyGrid(128, 0.35)
    s = gaussian_spectrum(grid, 1.0, 1.0)
    m = make_pair_model(s, s, gaussian_cross(grid, 0.5, 1.0), window=10.0)
    # Sheared batches have window=None and a source containing commas.
    sheared = sample_stationary_sheared(m, DispersionKit(beta_L=0.4), 64, seed=13)
    path = tmp_path / "sheared.csv"
    events_to_csv(sheared, path)
    back = events_from_csv(path)
    assert np.array_equal(back.t1, sheared.t1)
    assert np.array_equal(back.t2, sheared.t2)
    assert back.seed == sheared.seed
    assert back.source == sheared.source
    assert back.window is None

    windowed = sample_tau_density(m.profile, 64, seed=13)
    path2 = tmp_path / "windowed.csv"
    events_to_csv(windowed, path2)
    back2 = events_from_csv(path2)
    assert back2.window == windowed.window
    assert np.array_equal(back2.t1, windowed.t1)


def test_events_csv_rejects_corrupt_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t1_ps,t2_ps\n0.0,0.0\n")
    with pytest.raises(ValueError):
        events_from_csv(bad)
    wrong_header = tmp_path / "header.csv"
    wrong_header.write_text("# seed=1 window=none source=x\ntime1,time2\n0.0,0.0\n")
    with pytest.raises(ValueError):
        events_from_csv(wrong_header)


def _events_csv_oracle(batch):
    """The bytes of the per-row writer that events_to_csv replaced."""
    if batch.window is None:
        window = "none"
    else:
        window = f"{batch.window[0]:.17g},{batch.window[1]:.17g}"
    lines = [f"# seed={batch.seed} window={window} source={batch.source}\n", "t1_ps,t2_ps\n"]
    lines += [f"{a:.17g},{b:.17g}\n" for a, b in zip(batch.t1, batch.t2)]
    return "".join(lines).encode("utf-8")


@pytest.mark.parametrize("rows", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
def test_events_csv_matches_the_row_loop(tmp_path, rows):
    special = np.array([-0.0, 5e-324, 1e308, 1.0, -1e308, -2.5, 0.1, -1.0 / 3.0])
    rng = np.random.default_rng(rows)
    t1 = rng.normal(0.0, 1e3, rows)
    t2 = rng.normal(-5.0, 1e-3, rows)
    t1[: len(special)] = special[:rows]
    t2[: len(special)] = special[::-1][:rows]
    batch = EventBatch(t1=t1, t2=t2, seed=3, source="oracle(a=1,b=2)", window=None)
    path = tmp_path / "events.csv"
    events_to_csv(batch, path)
    assert path.read_bytes() == _events_csv_oracle(batch)

    windowed = EventBatch(t1=np.abs(t1) % 7.0, t2=np.abs(t2) % 7.0, seed=4, source="w", window=(0.0, 7.0))
    events_to_csv(windowed, path)
    assert path.read_bytes() == _events_csv_oracle(windowed)


# ---------------------------------------------------------------------------
# The inverse-CDF kernel and the tau estimator against plain numpy oracles.
# _InverseCdf takes a guide-table path for a CDF of at most K cells queried
# at least K times and a sorted-query path otherwise; both must give
# searchsorted(cdf, u, side="right") element for element.

K = _GUIDE_CELLS


def _inverse_cdf_draw(weights, u):
    """_InverseCdf(weights, len(u)).draw on u."""
    u = np.asarray(u, dtype=np.float64)
    return _InverseCdf(weights, len(u)).draw(u)


def _draw_oracle(weights, u):
    cdf = np.cumsum(weights)
    return np.searchsorted(cdf / cdf[-1], u, side="right")


def _assert_draw_is_searchsorted(weights, u):
    weights = np.asarray(weights, dtype=np.float64)
    got = _inverse_cdf_draw(weights, u)
    assert np.array_equal(got, _draw_oracle(weights, u))


def _hard_uniforms(weights):
    """Uniforms on and next to every CDF value and bucket edge, 0 and the top draw."""
    cdf = np.cumsum(weights)
    cdf = cdf / cdf[-1]
    edges = np.arange(K) / K
    points = np.concatenate([cdf[cdf < 1.0], edges[1:]])
    u = np.concatenate(
        [points, np.nextafter(points, 0.0), np.nextafter(points, 1.0), [0.0, 1.0 - 2.0 ** -53]]
    )
    return u[u < 1.0]


@pytest.mark.parametrize(
    "cells, count",
    [
        (1024, K - 1),  # sorted: one query short of the guide table
        (1024, K),  # guide
        (1024, 1_000_000),  # guide: a stationary spectrum at the bench size
        (K, K),  # guide with a split in nearly every bucket
        (K + 1, K),  # sorted: one cell too many for the guide table
        (1 << 20, 100_000),  # sorted: an n = 1024 biphoton grid
    ],
)
def test_inverse_cdf_draw_equals_searchsorted_on_both_paths(cells, count):
    x = np.linspace(-6.0, 6.0, cells)
    weights = np.exp(-0.5 * x * x) * (1.0 + 0.5 * np.sin(7.0 * x))
    weights[: cells // 8] = 0.0
    weights[cells // 2 : cells // 2 + cells // 16] = 0.0
    weights[-cells // 8 :] = 0.0
    u = _generator(5, "oracle").random(count)
    assert np.array_equal(_inverse_cdf_draw(weights, u), _draw_oracle(weights, u))


@pytest.mark.parametrize(
    "weights",
    [
        [0.0, 0.0, 0.0, 1.0, 2.0, 3.0],  # leading zero-weight run
        [1.0, 0.0, 0.0, 0.0, 2.0],  # interior run: a tie in the CDF
        [1.0, 2.0, 0.0, 0.0, 0.0],  # trailing run: ties at 1.0
        [0.0, 5.0, 0.0, 0.0, 5.0, 0.0],  # ties at 0.5 and 1.0
        [3.0],  # one cell
        [1e-300, 1.0, 1e-300],  # cells far below one ulp of the CDF
    ],
)
def test_inverse_cdf_draw_on_zero_runs_ties_and_one_cell(weights):
    u = _hard_uniforms(np.asarray(weights))
    assert len(u) >= K
    _assert_draw_is_searchsorted(weights, u)  # guide path
    _assert_draw_is_searchsorted(weights, u[:: len(u) // 1000 + 1])  # sorted path


def test_inverse_cdf_draw_with_cdf_values_on_the_bucket_edges():
    # Integer weights summing to K put every CDF value on an edge j/K, so
    # queries on and one ulp either side of an edge decide between buckets.
    # The kernel's exactness argument needs K to be a power of two.
    assert K & (K - 1) == 0
    rng = np.random.default_rng(3)
    stops = np.sort(rng.choice(np.arange(1, K), size=900, replace=False))
    stops = np.concatenate([stops[:300], stops[:300], stops[300:]])  # repeated stops: ties
    weights = np.diff(np.concatenate([[0], np.sort(stops), [K]])).astype(np.float64)
    assert weights.sum() == K
    u = _hard_uniforms(weights)
    _assert_draw_is_searchsorted(weights, u)
    _assert_draw_is_searchsorted(weights, u[:K - 1])


def _on_edges(cells, seed):
    """Integer weights summing to K, with zero cells: every CDF value sits on a bucket edge j/K."""
    stops = np.sort(np.random.default_rng(seed).integers(0, K + 1, size=cells - 1))  # repeated stops: ties
    return np.diff(np.concatenate([[0], stops, [K]])).astype(np.float64)


@pytest.mark.parametrize(
    "weights",
    [
        _on_edges(4096, 11),
        np.repeat([1.0, 0.0, 2.0, 0.0, 1.0], [K // 4, 7, K // 8, 5, K // 2]),  # on edges, zero runs
        [0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0],  # zero cells before and after: a last run of values 1.0
        [3.0],  # one cell, whose value is 1.0
        [1e-300, 1.0, 1e-300],  # cells far below one ulp of the CDF
        np.exp(-0.5 * np.linspace(-6.0, 6.0, K) ** 2),  # K cells: nearly every bucket split
    ],
)
def test_guide_table_counts_what_searchsorted_finds(weights):
    # guide[k] counts the CDF values <= k/K.  The table counts them by
    # ceil(cdf * K), which is exact as K is a power of two.
    weights = np.asarray(weights, dtype=np.float64)
    table = _InverseCdf(weights, K)
    assert table.cdf[-1] == 1.0
    edges = np.arange(K + 1) / K
    assert table.guide.dtype == np.int32  # counts of at most len(cdf) <= K
    assert np.array_equal(table.guide, np.searchsorted(table.cdf, edges, side="right"))
    assert np.array_equal(table.split, table.guide[1:] != table.guide[:-1])
    if weights.sum() == K and np.all(weights == np.round(weights)):
        assert np.array_equal(table.cdf * K, np.cumsum(weights))  # every value on an edge


_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e3)), min_size=1, max_size=40
).filter(lambda w: sum(w) > 0.0)
_uniform_lists = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.integers(min_value=0, max_value=K - 1).map(lambda j: j / K),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_weights, _uniform_lists)
def test_inverse_cdf_draw_property(weights, u):
    u = np.asarray(u)
    _assert_draw_is_searchsorted(weights, u)  # sorted path
    _assert_draw_is_searchsorted(weights, np.resize(u, K))  # guide path


def _tau_stats_oracle(tau):
    """The pow-based moments estimate_tau_stats computed before (dev ** 4)."""
    n = len(tau)
    mean = float(tau.mean())
    dev = tau - mean
    s2 = float((dev ** 2).sum() / (n - 1))
    m4 = float((dev ** 4).mean())
    var_of_var = (m4 - s2 * s2 * (n - 3) / (n - 1)) / n
    return s2, math.sqrt(max(var_of_var, 0.0)), mean


@pytest.mark.parametrize("seed", range(6))
def test_estimate_tau_stats_matches_the_pow_oracle(seed):
    # (d2 * d2) can differ from dev ** 4 in the last bit of single terms, so
    # the fourth moment, and only it, may move.  Over 60 batches of 1e5-1e6
    # normal, Student-t and uniform taus the largest relative change of the
    # standard error was 2.9e-16; var_tau and mean_tau never changed.
    rng = _generator(seed, "tau-oracle")
    n = 200_000
    for tau in (rng.normal(0.0, 3.0, n), rng.standard_t(3, n) * 1e3 + 7.0, rng.random(n) * 40.0 - 20.0):
        batch = EventBatch(t1=tau, t2=np.zeros(n), seed=0, source="oracle")
        stats = estimate_tau_stats(batch, 0.0, seed=0)
        var_tau, stderr, mean_tau = _tau_stats_oracle(batch.tau)
        assert stats.var_tau == var_tau
        assert stats.mean_tau == mean_tau
        assert stats.stderr == pytest.approx(stderr, rel=4 * np.finfo(float).eps, abs=0.0)


def _stats_bits(stats):
    return stats.n, [np.float64(v).view(np.uint64) for v in (stats.var_tau, stats.stderr, stats.mean_tau)]


@pytest.mark.parametrize("jitter", [0.0, 0.4])
def test_a_batch_handed_to_the_estimator_is_consumed_with_the_same_bits(jitter):
    m = _mixture_model("quantum")
    kit = DispersionKit(beta_L=-0.8, delay_1=0.3)
    plain = sample_stationary_sheared(m, kit, 5000, seed=9)
    kept = plain.t1.copy(), plain.t2.copy()
    expected = estimate_tau_stats(plain, jitter, seed=4)
    # a plain batch is left as it was
    for t, k in zip((plain.t1, plain.t2), kept):
        assert np.array_equal(t.view(np.uint64), k.view(np.uint64)) and not t.flags.writeable
    owned = sample_stationary_sheared(m, kit, 5000, seed=9)
    assert _stats_bits(estimate_tau_stats(_Owned(owned), jitter, seed=4)) == _stats_bits(expected)
    for name in ("t1", "t2"):
        with pytest.raises(AttributeError, match=name):
            getattr(owned, name)
    assert (owned.seed, owned.source, owned.window) == (plain.seed, plain.source, plain.window)
    assert repr(owned) == repr(plain) and "t1" not in repr(plain)


def test_a_batch_the_estimator_rejects_is_not_consumed():
    one = EventBatch(t1=np.array([1.0]), t2=np.array([0.5]), seed=0, source="one")
    with pytest.raises(BatchTooSmallError):
        estimate_tau_stats(_Owned(one), 0.0, seed=0)
    two = EventBatch(t1=np.array([1.0, 2.0]), t2=np.zeros(2), seed=0, source="two")
    with pytest.raises(ValueError, match="jitter_sigma"):
        estimate_tau_stats(_Owned(two), -1.0, seed=0)
    assert one.t1[0] == 1.0 and two.t1[1] == 2.0


# ---------------------------------------------------------------------------
# Block streams.  Every sampler fills its batch in fixed blocks of
# BLOCK_CELLS // _EVENT_CELLS events on the row-block pool, each block
# drawing from its own stream.  The sequential bodies below are the samplers
# as they were written before the blocks: one Generator drawn in order,
# plain searchsorted lookups.  Run once per block on that block's stream
# (`_per_block`), they must give the blocked samplers' bits on any number of
# workers.

def _per_block(seed, label, count, draw):
    """(t1, t2) of draw(rng, size) run on each sampler block of count events, rng being the block's stream."""
    rows = min(count, BLOCK_CELLS // nldc.sampler._EVENT_CELLS)
    key = _stream_key(seed, label)
    parts = [
        draw(np.random.Generator(np.random.PCG64(key).advance(start << 64)), min(rows, count - start))
        for start in range(0, count, rows)
    ]
    return tuple(np.concatenate(times) for times in zip(*parts))


def _searchsorted_oracle(rng, weights, count):
    cdf = np.cumsum(weights)
    if cdf[-1] <= 0.0:
        raise DegenerateStateError("cannot sample from an all-zero density")
    return np.searchsorted(cdf / cdf[-1], rng.random(count), side="right")


def _mixture_oracle(rng, d, count):
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
        idx = _searchsorted_oracle(rng, d.signal * d.dt, n_sig)
        tau = np.clip(d.taus[idx] + (rng.random(n_sig) - 0.5) * d.dt, -T, T)
        abs_tau = np.abs(tau)
        tbar = 0.5 * abs_tau + rng.random(n_sig) * (T - abs_tau)
        t1[signal] = np.minimum(tbar + 0.5 * tau, T)
        t2[signal] = np.minimum(tbar - 0.5 * tau, T)
    return t1, t2, signal


def _tau_density_oracle(d, count, seed):
    return _per_block(seed, "stationary", count, lambda rng, size: _mixture_oracle(rng, d, size)[:2])


def _sheared_oracle(m, kit, count, seed):
    return _per_block(seed, "stationary-sheared", count, lambda rng, size: _sheared_block_oracle(rng, m, kit, size))


def _sheared_block_oracle(rng, m, kit, count):
    t1, t2, signal = _mixture_oracle(rng, m.profile, count)
    n_sig = int(signal.sum())
    n_bg = count - n_sig
    grid = m.grid

    def draw_omegas(weights, n_draw):
        idx = _searchsorted_oracle(rng, weights, n_draw)
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
    return t1 + kit.delay_1 + w1 * (2.0 * kit.beta_L), t2 + kit.delay_2 - w2 * (2.0 * kit.beta_L)


def _biphoton_oracle(density, count, seed):
    return _per_block(seed, "biphoton", count, lambda rng, size: _biphoton_block_oracle(rng, density, size))


def _biphoton_block_oracle(rng, density, count):
    n = density.grid.n
    dt = density.dt
    i1, i2 = np.divmod(_searchsorted_oracle(rng, density.values.ravel(), count), n)
    times = density.grid.times
    t1 = times[i1] + (rng.random(count) - 0.5) * dt
    t2 = times[i2] + (rng.random(count) - 0.5) * dt
    period = n * dt
    shift = period * np.round((t1 - t2) / period)
    return t1 - 0.5 * shift, t2 + 0.5 * shift


def _assert_same_bits(batch, expected):
    for got, want in zip((batch.t1, batch.t2), expected):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# The oracle tests run the samplers' blocks and blocks of 1024 events, with
# the expected bits of each block size.  BLOCK_CELLS is a whole number of
# blocks at both sizes, so that the counts below sit on and next to block
# edges at each.
_EVENT_CELLS_TESTED = (_EVENT_CELLS, 64)
_COUNTS = [1, 2, BLOCK_CELLS - 1, BLOCK_CELLS, BLOCK_CELLS + 1, 3 * BLOCK_CELLS + 5]


def _block_sizes(monkeypatch):
    """Set each block size of _EVENT_CELLS_TESTED in turn."""
    for cells in _EVENT_CELLS_TESTED:
        assert BLOCK_CELLS % (BLOCK_CELLS // cells) == 0
        monkeypatch.setattr(nldc.sampler, "_EVENT_CELLS", cells)
        yield cells


def _mixture_model(kind):
    grid = FrequencyGrid(256, 0.25)
    s = gaussian_spectrum(grid, 1.0, 1.0)
    if kind == "quantum":
        return make_pair_model(s, s, gaussian_cross(grid, 1.2, 1.0), window=14.0)
    if kind == "classical-extremal":
        s2 = gaussian_spectrum(grid, 0.5, 1.3)
        return make_pair_model(s, s2, max_classical_cross(s, s2), window=14.0)
    if kind == "zero-cross":  # no signal events, and an all-zero |x|^2
        return make_pair_model(s, s, flat_cross(grid, 0.0), window=12.0)
    # zero background: a dark first beam, so every event is a signal event
    return make_pair_model(flat_spectrum(grid, 0.0), s, gaussian_cross(grid, 0.9, 1.0), window=14.0)


@pytest.mark.parametrize("count", _COUNTS)
@pytest.mark.parametrize("kind", ["quantum", "classical-extremal", "zero-cross", "zero-background"])
def test_stationary_samplers_match_the_sequential_oracle(monkeypatch, workers, kind, count):
    m = _mixture_model(kind)
    f_s = m.profile.windowed.signal_fraction
    assert {"zero-cross": f_s == 0.0, "zero-background": f_s == 1.0}.get(kind, 0.0 < f_s < 1.0)
    kit = DispersionKit(beta_L=-0.8, delay_1=0.3, delay_2=-0.2)
    seed = 1000 + count
    for _ in _block_sizes(monkeypatch):
        tau_density = _tau_density_oracle(m.profile, count, seed)
        sheared = _sheared_oracle(m, kit, count, seed)
        for worker_count in (1, 2, 3):
            workers(worker_count)
            _assert_same_bits(sample_tau_density(m.profile, count, seed), tau_density)
            _assert_same_bits(sample_stationary_sheared(m, kit, count, seed), sheared)


@pytest.mark.parametrize("count", _COUNTS)
@pytest.mark.parametrize("n", [128, 512])  # a guide-table and a sorted-search CDF
def test_sample_biphoton_matches_the_sequential_oracle(monkeypatch, workers, n, count):
    grid = FrequencyGrid(n, 0.25 * 128 / n)
    density = to_time_domain(build_pdc_amplitude(grid, 0.9, 1.3))
    for _ in _block_sizes(monkeypatch):
        expected = _biphoton_oracle(density, count, seed=count)
        for worker_count in (1, 2, 3):
            workers(worker_count)
            _assert_same_bits(sample_biphoton(density, count, seed=count), expected)


def test_a_sampler_builds_one_stream_per_block(monkeypatch, workers):
    # A block draws every kind of draw from its own stream, and no stream is
    # built for anything else: a sheared batch has 12 kinds, but builds one
    # PCG64 per block on any number of workers.
    m = _mixture_model("quantum")
    kit = DispersionKit(beta_L=-0.8)
    density = to_time_domain(build_pdc_amplitude(FrequencyGrid(128, 0.25), 0.9, 1.3))
    real = np.random.PCG64
    built = []
    monkeypatch.setattr(np.random, "PCG64", lambda *a, **k: built.append(a) or real(*a, **k))
    for cells in _block_sizes(monkeypatch):
        blocks = -(-20_000 // (BLOCK_CELLS // cells))
        assert blocks > 1
        for worker_count in (1, 3):
            workers(worker_count)
            for sample in (
                lambda: sample_stationary_sheared(m, kit, 20_000, seed=3),
                lambda: sample_tau_density(m.profile, 20_000, seed=3),
                lambda: sample_biphoton(density, 20_000, seed=3),
            ):
                built.clear()
                sample()
                assert len(built) == blocks


def test_all_zero_densities_still_raise_degenerate_state(workers):
    workers(2)
    grid = FrequencyGrid(32, 0.5)
    # neither background nor signal weight: the mixture has no law
    empty = TauDensity(grid=grid, signal=np.zeros(32), background=0.0, window=4.0)
    with pytest.raises(DegenerateStateError, match="neither background nor signal"):
        sample_tau_density(empty, 10, seed=0)
    # signal weight whose cells all round to zero once scaled by dt
    signal = np.zeros(32)
    signal[16:20] = 5e-324
    faint = TauDensity(grid=grid, signal=signal, background=0.0, window=4.0)
    assert faint.windowed.signal_fraction == 1.0 and not np.any(faint.signal * faint.dt)
    for count in (10, 3 * BLOCK_CELLS):
        with pytest.raises(DegenerateStateError, match="all-zero density") as got:
            sample_tau_density(faint, count, seed=0)
        with pytest.raises(DegenerateStateError) as want:
            _tau_density_oracle(faint, count, seed=0)
        assert str(got.value) == str(want.value)


def test_block_streams_keep_their_golden_bits():
    # The bits of the first reads of two blocks pinned as literals: a numpy
    # whose PCG64, SeedSequence or Generator.random changed would silently
    # change every sampled output, and fails here instead.  Block 0 reads the
    # stream from its start, so a batch of one block draws what a single
    # sequential generator of its key would.
    key = _stream_key(7, "a")
    golden = {
        0: [0x3FDF82CF485A5894, 0x3FDD4C40E80B5DDA, 0x3FE1D1731B66EDB2, 0x3FDF01D509DDAB04],
        16_384: [0x3FD2D831B4D14AAC, 0x3F8834D78F37CD00, 0x3FE43B2E9F79F396, 0x3FEEA85A4466540E],
    }
    for start, bits in golden.items():
        assert _block_stream(key, start).random(4).view(np.uint64).tolist() == bits, start


def test_block_streams_take_a_numpy_integer_start():
    # A numpy integer start shifted by 64 bits would overflow.
    key = _stream_key(42, "stationary")
    for start in (0, 3, 16_384, 3 * 16_384):
        want = np.random.Generator(np.random.PCG64(key).advance(start << 64)).random(5)
        for kind in (int, np.int64, np.intp, np.uint64, np.int32):
            got = _block_stream(key, kind(start)).random(5)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (start, kind)
