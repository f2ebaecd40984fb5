"""The n x n biphoton kernels: bits, ownership and memory.

Each kernel writes into storage it owns and hands its result to the
constructor without a copy.  The plain numpy expressions it replaced are
kept here as oracles, and every rewritten kernel must match its oracle bit
for bit (compared as uint64 views), on any number of workers, whether it
copies its input or works in the storage of a state handed over as
`_Owned(psi)`.  The owning constructor path must still run every check,
and the public constructors must still copy.  The line route gathers
psi's lines from its row-major storage and reads nothing outside it; the
minus arm's moments are the plus lines reflected in tau, which must match
a pass over a contiguous transpose, and its events are drawn through a
transposed view of the plus density.  The tracemalloc budgets
count the arrays a kernel, or a whole run, holds at its peak, so a copy
that comes back fails them.
"""

import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest

from nldc import _blocks, _fft, cli
from nldc._fft import to_time_1d, to_time_2d
from nldc.biphoton import (
    BiphotonAmplitude,
    JointTemporalDensity,
    _arm_moments,
    _exchanged,
    _sum_frequency_lines,
    amplitude_moments,
    apply_dispersion_phase,
    build_pdc_amplitude,
    to_time_domain,
)
from nldc.errors import MemoryBudgetError
from nldc.moments import DispersionKit
from nldc.sampler import EventBatch, sample_biphoton
from nldc.spectral import FrequencyGrid, _Owned
from oracles import amplitude_from_values, random_kits

KIT = DispersionKit(beta_L=0.3, delay_1=0.8, delay_2=-0.5)
PM_SIGMA = 3.0
PUMPS = {"resolved": 0.5, "ridge": 1e-3}  # domega < a/3, and a <= domega/10 on every grid below


def _grid(n):
    return FrequencyGrid(n=n, domega=32.0 / n)  # half span 16 rad/ps


def _same_bits(a, b):
    a = np.asarray(a, dtype=float if np.isrealobj(a) else complex)
    b = np.asarray(b, dtype=a.dtype)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ---------------------------------------------------------------------------
# Oracles: the expressions the kernels replaced.

def _build_oracle(grid, a, b):
    w = grid.omegas
    wsum = w[:, None] + w[None, :]
    wdiff = w[:, None] - w[None, :]
    raw = np.asarray(
        np.exp(-(wsum ** 2) / (4.0 * a ** 2) - (wdiff ** 2) / (4.0 * b ** 2)), dtype=np.complex128
    )
    norm = math.sqrt(float((np.abs(raw) ** 2).sum()) * grid.domega ** 2)
    return raw / norm


def _dispersion_oracle(values, grid, kit):
    w = grid.omegas
    w2 = w ** 2
    phase = kit.beta_L * w2[:, None] - kit.beta_L * w2[None, :]
    phase += kit.delay_1 * w[:, None]
    phase += kit.delay_2 * w[None, :]
    factor = 1j * phase
    np.exp(factor, out=factor)
    # In place, as before: numpy's out-of-place complex multiply gives some
    # products that underflow to zero the other sign.
    np.multiply(values, factor, out=factor)
    return factor


def _to_time_2d_oracle(values, grid):
    field = np.fft.ifftshift(values)
    np.fft.fft2(field, out=field)
    field *= (grid.domega / (2.0 * np.pi)) ** 2
    return np.fft.fftshift(field)


def _density_oracle(values, grid):
    p = np.abs(_to_time_2d_oracle(values, grid)) ** 2
    return p / (float(p.sum()) * grid.dt * grid.dt)


def _lines_oracle(values, grid):
    n = grid.n
    half = n // 2
    i = np.arange(n)
    flat = values.ravel()
    rows = max(1, (1 << 16) // n)
    marginal, weight, first, edge = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    norm = second = 0.0
    for k0 in range(0, n, rows):
        centred = np.arange(k0, min(k0 + rows, n))[:, None] - half
        cols = (centred - i) & (n - 1)
        lines = flat[cols + i * n]
        cells = lines.real ** 2 + lines.imag ** 2
        off_branch = (cols + i != centred + n) | (centred == -half)
        second += float(cells.sum(where=off_branch))
        line_norm = cells.sum(axis=1)
        norm += float(line_norm.sum())
        live = np.flatnonzero(line_norm)
        if live.size == 0:
            continue
        g = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(lines[live], axes=-1)), axes=-1)
        g *= grid.domega / (2.0 * np.pi)
        p = g.real ** 2 + g.imag ** 2
        marginal += p.sum(axis=0)
        weight[k0 + live] = p.sum(axis=1)
        first[k0 + live] = (p * grid.times).sum(axis=1)
        edge[k0 + live] = p[:, 0]
    return marginal, weight, first, edge, second / norm


# ---------------------------------------------------------------------------
# Bit identity.

# Multi-block grids run again on 1, 2 and 3 workers (None: every CPU).
CASES = [(n, pump, None) for n in (256, 512, 1024) for pump in PUMPS] + [
    pytest.param((n, pump, workers), id=f"{n}-{pump}-{workers}-workers")
    for n in (512, 1024)
    for pump in PUMPS
    for workers in (1, 2, 3)
]


@pytest.fixture(scope="module", params=CASES)
def case(request):
    n, pump, workers = request.param
    pool = _blocks._Pool(workers)
    saved, _blocks._POOL = _blocks._POOL, pool
    try:
        grid = _grid(n)
        psi = build_pdc_amplitude(grid, PUMPS[pump], PM_SIGMA)
        yield grid, PUMPS[pump], psi, apply_dispersion_phase(psi, KIT)
    finally:
        _blocks._POOL = saved
        pool.shutdown()


def test_build_matches_its_oracle(case):
    grid, a, psi, _ = case
    assert _same_bits(psi.values, _build_oracle(grid, a, PM_SIGMA))


def test_dispersion_matches_its_oracle(case):
    grid, _, psi, dispersed = case
    assert _same_bits(dispersed.values, _dispersion_oracle(psi.values, grid, KIT))


def test_time_transforms_match_their_oracles(case):
    grid, _, _, dispersed = case
    assert _same_bits(to_time_2d(np.array(dispersed.values), grid), np.abs(_to_time_2d_oracle(dispersed.values, grid)) ** 2)
    assert _same_bits(to_time_domain(dispersed).values, _density_oracle(dispersed.values, grid))


def test_line_sums_match_their_oracle(case):
    grid, _, psi, dispersed = case
    for amplitude in (psi, dispersed):
        got = _sum_frequency_lines(amplitude)
        expected = _lines_oracle(amplitude.values, grid)
        assert len(got) == len(expected) and all(_same_bits(g, e) for g, e in zip(got, expected))


def test_owned_kernels_give_the_copying_bits(case):
    # Handed over as _Owned, each kernel works in the state's storage and
    # must give the bits of the oracle all the same.
    grid, _, psi, dispersed = case
    plus = apply_dispersion_phase(_Owned(BiphotonAmplitude(grid, psi.values)), KIT)
    assert _same_bits(plus.values, dispersed.values)
    held = np.array(plus.values)
    assert _same_bits(to_time_2d(held, grid), np.abs(_to_time_2d_oracle(dispersed.values, grid)) ** 2)
    assert _same_bits(to_time_domain(_Owned(plus)).values, _density_oracle(dispersed.values, grid))


@pytest.mark.parametrize("n", [8, 16, 64])
def test_line_sums_match_on_single_block_grids(n):
    # One block holds every line, so the block's sum indices wrap past n - 1.
    grid = FrequencyGrid(n=n, domega=1.0)
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    psi = amplitude_from_values(grid, values)
    got = _sum_frequency_lines(psi)
    expected = _lines_oracle(psi.values, grid)
    assert len(got) == len(expected) and all(_same_bits(g, e) for g, e in zip(got, expected))


def _centred_power_oracle(values, grid):
    """|fftshift(fftn(ifftshift(values)))|^2, scaled by domega/(2 pi) per axis, over every axis of values."""
    field = np.fft.ifftshift(values)
    np.fft.fftn(field, out=field)
    field *= (grid.domega / (2.0 * np.pi)) ** values.ndim
    power = np.abs(field)
    del field
    power **= 2
    return np.fft.fftshift(power)


def _sign_identity_inputs(grid, ndim):
    """Complex noise with exact zeros, a chirped delta ridge (2D) and a real even Gaussian with zero tails, one at a time."""
    n, w = grid.n, grid.omegas
    noise = np.random.default_rng(n).random((n,) * ndim + (2,)).view(np.complex128)[..., 0] - (0.5 + 0.5j)
    noise.reshape(-1)[::3] = 0.0
    yield noise
    del noise
    bell = np.exp(-4.0 * w ** 2)  # exactly 0 past |omega| = 13.6, with omega -> -omega symmetry
    if ndim == 1:
        yield bell.astype(np.complex128)
        return
    ridge = np.zeros((n, n), dtype=np.complex128)
    i = np.arange(1, n)
    ridge[i, n - i] = bell[i] * np.exp(0.3j * w[i] ** 2)  # omega1 + omega2 = 0 alone
    yield ridge
    del ridge
    yield np.outer(bell, bell).astype(np.complex128)


@pytest.mark.parametrize(
    "transform, ndim, sizes", [(to_time_1d, 1, range(3, 21)), (to_time_2d, 2, range(3, 12))], ids=["1d", "2d"]
)
def test_sign_flip_centring_gives_the_shifted_power(transform, ndim, sizes):
    # The transforms centre by negating the odd (odd-sum in 2D) input cells
    # instead of shifting the input and output; at every even n their
    # |F|^2 must have the bits of the shift recipe.
    differing = []
    for n in (1 << e for e in sizes):
        grid = _grid(n)
        for k, values in enumerate(_sign_identity_inputs(grid, ndim)):
            expected = _centred_power_oracle(values, grid)
            if not _same_bits(transform(values, grid), expected):
                differing.append((n, k))
            del values, expected
    assert differing == []


# ---------------------------------------------------------------------------
# Ownership.

def test_owning_path_keeps_the_array_and_freezes_it():
    grid = _grid(256)
    values = np.zeros((256, 256), dtype=np.complex128)
    values[128, 128] = 1.0 / grid.domega
    psi = BiphotonAmplitude(grid, _Owned(values))
    assert psi.values is values and not values.flags.writeable
    density = np.full((256, 256), 1.0 / (256 * 256 * grid.dt ** 2))
    assert JointTemporalDensity(grid, _Owned(density)).values is density
    t1, t2 = np.arange(4.0), np.arange(4.0)
    batch = EventBatch(t1=_Owned(t1), t2=_Owned(t2), seed=0, source="owned")
    assert batch.t1 is t1 and batch.t2 is t2 and not t1.flags.writeable


def test_owning_path_runs_every_check():
    grid = _grid(256)
    unit = np.zeros((256, 256), dtype=np.complex128)
    unit[0, 0] = 1.0 / grid.domega
    with pytest.raises(ValueError, match="shape"):
        BiphotonAmplitude(grid, _Owned(np.zeros((8, 8), dtype=np.complex128)))
    bad = unit.copy()
    bad[1, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        BiphotonAmplitude(grid, _Owned(bad))
    with pytest.raises(ValueError, match="norm"):
        BiphotonAmplitude(grid, _Owned(2.0 * unit))

    mass = 1.0 / grid.dt ** 2
    point = np.zeros((256, 256))
    point[0, 0] = mass
    with pytest.raises(ValueError, match="shape"):
        JointTemporalDensity(grid, _Owned(np.zeros((8, 8))))
    bad = point.copy()
    bad[1, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        JointTemporalDensity(grid, _Owned(bad))
    bad = point.copy()
    bad[0, 0], bad[1, 1] = 2.0 * mass, -mass
    with pytest.raises(ValueError, match=">= 0"):
        JointTemporalDensity(grid, _Owned(bad))
    with pytest.raises(ValueError, match="mass"):
        JointTemporalDensity(grid, _Owned(2.0 * point))

    with pytest.raises(ValueError, match="equal-length"):
        EventBatch(t1=_Owned(np.zeros(3)), t2=_Owned(np.zeros(2)), seed=0, source="bad")
    with pytest.raises(ValueError, match="finite"):
        EventBatch(t1=_Owned(np.array([np.nan])), t2=_Owned(np.zeros(1)), seed=0, source="bad")


def test_a_state_handed_over_is_consumed_and_a_plain_one_is_kept():
    grid = _grid(256)
    psi = build_pdc_amplitude(grid, PUMPS["resolved"], PM_SIGMA)
    kept = psi.values.copy()
    dispersed = apply_dispersion_phase(psi, KIT)
    density = to_time_domain(psi)
    assert _same_bits(psi.values, kept) and not psi.values.flags.writeable
    assert not np.shares_memory(dispersed.values, psi.values)
    assert not np.shares_memory(density.values, psi.values)
    for kernel, args in ((apply_dispersion_phase, (KIT,)), (to_time_domain, ())):
        owned = BiphotonAmplitude(grid, kept)
        storage = owned.values
        result = kernel(_Owned(owned), *args)
        with pytest.raises(AttributeError, match="values"):
            owned.values
        assert owned.grid == grid  # only the values are taken
        if kernel is apply_dispersion_phase:
            assert result.values is storage  # dispersed in place


def test_a_consumed_amplitude_has_a_repr():
    grid = _grid(256)
    psi = build_pdc_amplitude(grid, PUMPS["resolved"], PM_SIGMA)
    to_time_domain(_Owned(psi))
    text = repr(psi)
    assert repr(grid) in text and "values" not in text
    with pytest.raises(AttributeError, match="values"):
        psi.values


def test_fft_functions_take_their_array_first_as_values():
    # A span tracer sizes each call of an _fft function by this argument,
    # passed by position or by keyword.
    public = [fn for name, fn in inspect.getmembers(_fft, inspect.isfunction)
              if not name.startswith("_") and fn.__module__ == _fft.__name__]
    assert {fn.__name__ for fn in public} == {"to_time_1d", "to_time_2d"}
    for fn in public:
        first = next(iter(inspect.signature(fn).parameters.values()))
        assert first.name == "values" and first.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, fn.__name__


def test_public_constructors_copy():
    grid = _grid(256)
    values = np.zeros((256, 256), dtype=np.complex128)
    values[128, 128] = 1.0 / grid.domega
    psi = BiphotonAmplitude(grid, values)
    values[128, 128] = 0.0
    assert psi.values[128, 128] == 1.0 / grid.domega and values.flags.writeable

    density = np.zeros((256, 256))
    density[0, 0] = 1.0 / grid.dt ** 2
    frozen = JointTemporalDensity(grid, density)
    density[0, 0] = 0.0
    assert frozen.values[0, 0] == 1.0 / grid.dt ** 2 and density.flags.writeable

    t1 = np.array([1.0, 2.0])
    batch = EventBatch(t1=t1, t2=np.zeros(2), seed=0, source="caller")
    t1[0] = 5.0
    assert batch.t1[0] == 1.0 and t1.flags.writeable


# ---------------------------------------------------------------------------
# The minus arm is the plus arm exchanged: its moments are the plus lines
# reflected in tau, and its events are drawn through a transposed view of
# the plus density.

def _nan_padded(values):
    """values in the middle of a NaN-padded buffer, so that a read outside them is not finite."""
    n = len(values)
    pad = min(n * n, 2 * _blocks.BLOCK_CELLS)
    buffer = np.full(n * n + 2 * pad, np.nan, dtype=values.dtype)
    inner = buffer[pad : pad + n * n].reshape(n, n)
    inner[...] = values
    return inner


def _close(got, want):
    return got.shape == want.shape and np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("n", [8, 16, 64, 256, 1024])
def test_reflected_lines_match_the_pass_over_the_transpose(n):
    # A random amplitude is not symmetric, so a reflection that is off by a
    # cell cannot pass.  The exchanged amplitude's lines are the plus lines
    # reversed: its marginal and first moments are the plus ones reflected
    # in tau (cell 0 kept), its weights and second-branch share the same.
    # The lines are gathered in place, and read nothing outside psi.
    grid = FrequencyGrid(n=n, domega=1.0)
    rng = np.random.default_rng(n + 1)
    psi = amplitude_from_values(grid, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    got = _sum_frequency_lines(BiphotonAmplitude(grid, _Owned(_nan_padded(psi.values))))
    assert all(_same_bits(g, w) for g, w in zip(got, _sum_frequency_lines(psi)))
    marginal, weight, first, edge, second = got
    want = _sum_frequency_lines(BiphotonAmplitude(grid, np.ascontiguousarray(psi.values.T)))
    assert _close(marginal[-np.arange(n)], want[0]) and _close(weight, want[1])
    assert _close(2.0 * grid.times[0] * edge - first, want[2])
    assert second == pytest.approx(want[4], rel=1e-12)


# Seeded dispersed states with delays, whose amplitudes are not symmetric
# either, and one whose tau marginal keeps 1.7e-9 of its mass in cell 0,
# the cell that maps to itself (a minus arm with first negated misses its
# cov by 1.2e-7 there).
MINUS_CASES = [(n, *case) for n in (256, 512) for case in random_kits(n)] + [
    (256, 1.0, 3.0, 0.25, DispersionKit(beta_L=1.0, delay_1=0.7, delay_2=-0.3))
]


@pytest.mark.parametrize("n, a, b, domega, kit", MINUS_CASES)
def test_minus_moments_match_the_pass_over_the_transpose(n, a, b, domega, kit):
    # The mean tau to within 1e-12 standard deviations.
    psi = apply_dispersion_phase(build_pdc_amplitude(FrequencyGrid(n=n, domega=domega), a, b), kit)
    got = _arm_moments(psi)[1]
    want = amplitude_moments(BiphotonAmplitude(psi.grid, np.ascontiguousarray(psi.values.T)))
    for name in ("var_tau", "var_omega", "cov_tau_omega"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0), name
    for name, var in (("mean_tau", "var_tau"), ("mean_omega", "var_omega")):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12 * math.sqrt(getattr(want, var)), name


@pytest.mark.parametrize("n", [256, 1024])
def test_a_column_major_amplitude_gives_the_bits_of_its_row_major_copy(n):
    # A plain caller may pass any layout; the line route reads one row-major copy of it.
    psi = apply_dispersion_phase(build_pdc_amplitude(_grid(n), PUMPS["resolved"], PM_SIGMA), KIT)
    column_major = BiphotonAmplitude(psi.grid, np.asfortranarray(psi.values))
    assert column_major.values.flags.f_contiguous and not column_major.values.flags.c_contiguous
    assert all(_same_bits(g, w) for g, w in zip(_sum_frequency_lines(column_major), _sum_frequency_lines(psi)))
    assert _arm_moments(column_major) == _arm_moments(psi)


@pytest.mark.parametrize("n", [64, 256])
def test_exchanged_density_draws_the_events_of_its_transpose(n):
    grid = _grid(n)
    rng = np.random.default_rng(n)
    values = rng.random((n, n))
    density = JointTemporalDensity(grid, values / (values.sum() * grid.dt ** 2))
    exchanged = _exchanged(density)
    assert np.shares_memory(exchanged.values, density.values)
    transposed = JointTemporalDensity(grid, np.ascontiguousarray(density.values.T))
    got, want = sample_biphoton(exchanged, 5000, 3), sample_biphoton(transposed, 5000, 3)
    assert _same_bits(got.t1, want.t1) and _same_bits(got.t2, want.t2)
    # the draw leaves the plus density as it was
    assert _same_bits(density.values, values / (values.sum() * grid.dt ** 2))


# ---------------------------------------------------------------------------
# Memory budgets, in complex n x n arrays (16 n^2 bytes) at n = 256.  The
# kernels these replaced peaked at 4.63 (build), 2.13 (dispersion) and 2.00
# (density); one more n x n float copy (0.5) breaks each budget below.
# Dispersion forms its phase one row at a time in a one-row buffer per
# block (1/256 each), and every state's finiteness check takes a block of
# booleans (1/8 at this n for an amplitude, 1/16 for a density).

def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernels_stay_within_their_memory_budgets():
    grid = _grid(256)
    unit = 16 * grid.n ** 2
    psi = build_pdc_amplitude(grid, PUMPS["resolved"], PM_SIGMA)
    to_time_domain(apply_dispersion_phase(psi, KIT))  # numpy.fft and the grid caches load here
    dispersed = apply_dispersion_phase(psi, KIT)
    # the result (1) and the float exponent (0.5)
    assert _traced_peak(build_pdc_amplitude, grid, PUMPS["resolved"], PM_SIGMA) <= 1.7 * unit
    # the one copy of psi it disperses in place (1) only
    assert _traced_peak(apply_dispersion_phase, psi, KIT) <= 1.2 * unit
    # the one copy of psi it transforms in place (1) and the density (0.5)
    assert _traced_peak(to_time_domain, dispersed) <= 1.55 * unit


def test_owned_kernels_stay_within_their_memory_budgets(workers):
    # On two workers.  Dispersion adds its row buffers and then the
    # finiteness check of its result (0.13 at the peak); a block of phase
    # cells per worker (0.125) formed by broadcast ufuncs, which buffer
    # as many cells again, breaks its budget (0.38-0.51).  The transform
    # adds the density (0.5) alone; the minus draw flattens the exchanged
    # density into its CDF (0.5).  A copy of the amplitude (1) or of a
    # density (0.5) breaks each budget.
    workers(2)
    grid = _grid(256)
    unit = 16 * grid.n ** 2

    def fresh():
        return build_pdc_amplitude(grid, PUMPS["resolved"], PM_SIGMA)

    density = to_time_domain(_Owned(apply_dispersion_phase(_Owned(fresh()), KIT)))
    sample_biphoton(_exchanged(density), 1000, 1)  # numpy.random loads here
    assert _traced_peak(apply_dispersion_phase, _Owned(fresh()), KIT) <= 0.25 * unit
    assert _traced_peak(to_time_domain, _Owned(apply_dispersion_phase(fresh(), KIT))) <= 0.6 * unit
    assert _traced_peak(sample_biphoton, _exchanged(density), 1000, 1) <= 0.6 * unit


@pytest.mark.parametrize("dump, budget", [(False, 1.6), (True, 2.1)])
def test_sampled_run_stays_within_its_memory_budget(tmp_path, workers, dump, budget):
    # At n = 1024, on two workers.  One n x n complex array (1) is alive
    # at a time, transformed in place next to its density (0.5), and the
    # density dump keeps density_before (0.5).  The line route's blocks
    # (1/16 each at this n) and 1000 events stay within the rest.  A copy
    # of the amplitude, exchanged or not, or a transform into a fresh field
    # (1 more) breaks the budget.  At n <= 256 one block of lines is a whole grid,
    # so that the line route, not the live set, would set the peak.
    workers(2)
    scenario = cli.normalize_scenario({
        "state": {"biphoton": {"pump_sigma_rad_ps": 1e-4, "pm_sigma_rad_ps": 10.0,
                               "grid": {"n": 1024, "domega_rad_ps": 0.0625}}},
        "kit": {"beta_L_ps2": 32.0},
        "sampler": {"n_events": 1000, "seed": 5},
        "outputs": {"events_csv": False, "density_binary": dump},
    })
    cli.run_scenario(scenario, tmp_path / "warm")  # numpy.fft, numpy.random and the pool load here
    assert _traced_peak(cli.run_scenario, scenario, tmp_path / "traced") <= budget * 16 * 1024 ** 2


def test_a_stationary_run_stays_within_its_memory_budget(tmp_path, workers):
    # The benchmark's stationary run: 1e6 events, no events CSV, on two
    # workers, through cli.main.  Drawing a batch sets the peak: its times
    # (two 8 MB arrays), four int32 guide tables (0.26 MB each) and the
    # temporaries of each worker's block of 16,384 events, 18.1 MiB in all.
    # Forming tau in a new array beside the batch (8 MB) gives 23.0 MiB,
    # and blocks of 65,536 events (3 MB of temporaries per worker)
    # 22.4 MiB; each breaks the budget.
    workers(2)
    gaussian = {"gaussian": {"peak": 1.0, "sigma_rad_ps": 1.0}}
    path = tmp_path / "stationary.json"
    path.write_text(json.dumps({
        "state": {"stationary": {"grid": {"n": 1024, "domega_rad_ps": 0.0625}, "s1": gaussian, "s2": gaussian,
                                 "cross": {"gaussian": {"peak": 1.2, "sigma_rad_ps": 1.0}}, "window_T_ps": 14.0}},
        "kit": {"beta_L_ps2": 2.0},
        "sampler": {"n_events": 1_000_000, "seed": 5},
        "outputs": {"events_csv": False},
    }))
    cli.main(["run", str(path), "--out", str(tmp_path / "warm")])  # numpy.random and the pool load here
    assert _traced_peak(cli.main, ["run", str(path), "--out", str(tmp_path / "traced")]) <= 22 * 2**20


def _state(kind, n):
    if kind == "biphoton":
        return {"biphoton": {"pump_sigma_rad_ps": 1e-4, "pm_sigma_rad_ps": 10.0,
                             "grid": {"n": n, "domega_rad_ps": 64.0 / n}}}
    gaussian = {"gaussian": {"peak": 1.0, "sigma_rad_ps": 1.0}}
    return {"stationary": {"grid": {"n": n, "domega_rad_ps": 0.25}, "s1": gaussian, "s2": gaussian,
                           "cross": "classical-extremal", "window_T_ps": 14.0}}


@pytest.mark.parametrize(
    "kind, n, n_events, events_csv",
    [
        ("biphoton", 256, 20_000, True),  # the line route's blocks set this peak; all three batches kept for their CSVs
        ("biphoton", 1024, 1000, False),
        ("stationary", 1024, 20_000, True),
        ("stationary", 1024, 1_000_000, False),
    ],
)
def test_a_run_peaks_within_its_memory_estimate(tmp_path, monkeypatch, workers, kind, n, n_events, events_csv):
    # With jitter, on two workers.  The estimate covers the peak when a
    # budget one byte below the peak rejects the run.
    workers(2)
    scenario = cli.normalize_scenario({
        "state": _state(kind, n),
        "kit": {"beta_L_ps2": 32.0 if kind == "biphoton" else 0.8},
        "jitter_sigma_ps": 0.5,
        "sampler": {"n_events": n_events, "seed": 5},
        "outputs": {"events_csv": events_csv},
    })
    cli.run_scenario(scenario, tmp_path / "warm")  # numpy.fft, numpy.random and the pool load here
    peak = _traced_peak(cli.run_scenario, scenario, tmp_path / "traced")
    monkeypatch.setattr(cli, "MEMORY_BUDGET_BYTES", peak - 1)
    with pytest.raises(MemoryBudgetError):
        cli._check_memory_budget(scenario["state"], n_events)


def test_line_route_stays_within_its_memory_budget(workers):
    # Each block allocates its own temporaries: its gathered lines, which
    # it transforms in place (complex, 0.25 at n = 512), then the float
    # squares and one float temporary (0.125 each), so 0.5 a block.  Each
    # of two workers works one block at a time (1.03 in all); one more
    # block-sized complex copy (0.25) breaks the budget.
    workers(2)
    grid = _grid(512)
    unit = 16 * grid.n ** 2
    psi = build_pdc_amplitude(grid, PUMPS["resolved"], PM_SIGMA)
    amplitude_moments(psi)  # the pool threads start here
    assert _traced_peak(amplitude_moments, psi) <= 1.2 * unit
