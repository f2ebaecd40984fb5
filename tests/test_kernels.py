"""The n x n biphoton kernels: bits, ownership and memory.

Each kernel writes into storage it owns and hands its result to the
constructor without a copy.  The plain numpy expressions it replaced are
kept here as oracles, and every rewritten kernel must match its oracle bit
for bit (compared as uint64 views), on any number of workers.  The owning
constructor path must still run every check, and the public constructors
must still copy.  The tracemalloc budgets count the arrays a kernel holds
at its peak, so a copy that comes back fails them.
"""

import math
import tracemalloc

import numpy as np
import pytest

from nldc import _blocks
from nldc._fft import to_time_1d, to_time_2d
from nldc.biphoton import (
    BiphotonAmplitude,
    JointTemporalDensity,
    _sum_frequency_lines,
    amplitude_moments,
    apply_dispersion_phase,
    build_pdc_amplitude,
    to_time_domain,
)
from nldc.moments import DispersionKit
from nldc.sampler import EventBatch
from nldc.spectral import FrequencyGrid, _Owned
from oracles import amplitude_from_values

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
    marginal, weight, first = np.zeros(n), np.zeros(n), np.zeros(n)
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
        g = to_time_1d(lines[live], grid)
        p = g.real ** 2 + g.imag ** 2
        marginal += p.sum(axis=0)
        weight[k0 + live] = p.sum(axis=1)
        first[k0 + live] = (p * grid.times).sum(axis=1)
    return marginal, weight, first, second / norm


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
    assert _same_bits(to_time_2d(dispersed.values, grid), _to_time_2d_oracle(dispersed.values, grid))
    assert _same_bits(to_time_domain(dispersed).values, _density_oracle(dispersed.values, grid))


def test_line_sums_match_their_oracle(case):
    grid, _, psi, dispersed = case
    for amplitude in (psi, dispersed):
        got = _sum_frequency_lines(amplitude)
        expected = _lines_oracle(amplitude.values, grid)
        assert all(_same_bits(g, e) for g, e in zip(got, expected))


@pytest.mark.parametrize("n", [8, 16, 64])
def test_line_sums_match_on_single_block_grids(n):
    # One block holds every line, so the block's sum indices wrap past n - 1.
    grid = FrequencyGrid(n=n, domega=1.0)
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    psi = amplitude_from_values(grid, values)
    got = _sum_frequency_lines(psi)
    expected = _lines_oracle(psi.values, grid)
    assert all(_same_bits(g, e) for g, e in zip(got, expected))


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
# Memory budgets, in complex n x n arrays (16 n^2 bytes) at n = 256.  The
# kernels these replaced peaked at 4.63 (build), 2.13 (dispersion) and 2.00
# (density); one more n x n float copy (0.5) breaks each budget below.

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
    # the result (1) only
    assert _traced_peak(apply_dispersion_phase, psi, KIT) <= 1.2 * unit
    # the transformed field (1) and the density (0.5)
    assert _traced_peak(to_time_domain, dispersed) <= 1.55 * unit


def test_line_route_stays_within_its_memory_budget(workers):
    # Each of two workers holds one block of gathered lines and one block
    # that serves as |line|^2, spare and transform work (0.25 + 0.25 each at
    # n = 512); one more block-sized complex copy (0.25) breaks the budget.
    workers(2)
    grid = _grid(512)
    unit = 16 * grid.n ** 2
    psi = build_pdc_amplitude(grid, PUMPS["resolved"], PM_SIGMA)
    amplitude_moments(psi)  # the pool threads start here
    assert _traced_peak(amplitude_moments, psi) <= 1.2 * unit
