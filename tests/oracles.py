"""Second routes that only the tests use.

The package reads every biphoton moment from the sum-frequency lines and
builds amplitudes only from closed forms, so the tests keep these
independent routes here: the tau marginal of a joint time density by a
plain index gather (the 2D route the line marginal is checked against),
and an amplitude normalized from arbitrary values.
"""

import math

import numpy as np

from nldc.biphoton import BiphotonAmplitude


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
