"""Second routes that only the tests use.

The package reads every biphoton moment from the sum-frequency lines and
builds amplitudes only from closed forms, so the tests keep these
independent routes here: the tau marginal of a joint time density by a
plain index gather (the 2D route the line marginal is checked against),
an amplitude normalized from arbitrary values, and the reader of the
density dump that `run` writes.  The seeded dispersion cases that check
the minus arm live here too, as two test modules share them.
"""

import math

import numpy as np

from nldc.biphoton import DENSITY_MAGIC, BiphotonAmplitude, JointTemporalDensity
from nldc.moments import DispersionKit
from nldc.spectral import FrequencyGrid


def tau_marginal(density):
    """(tau values, density q) of tau = t1 - t2, reduced cyclically to the centred grid.

    Index difference d collects p[(m + d) % n, m] over the t2 index m;
    sum q * dt = 1.
    """
    n = density.grid.n
    dt = density.dt
    cols = np.arange(n)
    rows = (cols[:, None] + cols[None, :]) % n  # rows[d, m] pairs t1 index (m+d) with t2 index m
    mass_by_diff = density.values[rows, cols[None, :]].sum(axis=1) * dt * dt
    return density.grid.times, mass_by_diff[(cols - n // 2) % n] / dt


def amplitude_from_values(grid, values):
    """The BiphotonAmplitude of arbitrary finite values, normalized to unit norm."""
    arr = np.asarray(values, dtype=np.complex128)
    norm = math.sqrt(float((np.abs(arr) ** 2).sum()) * grid.domega ** 2)
    if norm == 0.0:
        raise ValueError("cannot normalize an all-zero amplitude")
    return BiphotonAmplitude(grid, arr / norm)


def density_from_binary(path):
    """The JointTemporalDensity of a `density_to_binary` dump, or ValueError on a bad header."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header = np.frombuffer(raw[:64], dtype="<f8")
    if len(header) != 8 or header[0] != DENSITY_MAGIC:
        raise ValueError(f"{path}: bad magic, not a recognised binary dump")
    grid = FrequencyGrid(n=int(header[1]), domega=float(header[2]))
    if abs(header[3] - grid.dt) > 1e-9 * grid.dt:
        raise ValueError(f"{path}: header dt inconsistent with n and domega")
    data = np.frombuffer(raw[64:], dtype="<f8")
    return JointTemporalDensity(grid, data.reshape(grid.n, grid.n))


def random_kits(n):
    """Three seeded (a, b, domega, kit) cases with delays on an n-point grid: one delta-ridge pump, two resolved."""
    rng = np.random.default_rng(n)
    domega = 64.0 / n
    cases = []
    for a, beta_range in ((1e-4, 8.0), (4 * domega, 0.4), (6 * domega, 0.2)):
        kit = DispersionKit(
            beta_L=float(rng.uniform(-beta_range, beta_range)),
            delay_1=float(rng.uniform(-2.0, 2.0)),
            delay_2=float(rng.uniform(-2.0, 2.0)),
        )
        cases.append((a, float(rng.uniform(3.0, 6.0)), domega, kit))
    return cases
