"""Spectra, intensities and the quantum/classical cross-spectrum bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldc.errors import AdmissibilityError, GridMismatchError, GridTooNarrowError
from nldc.spectral import (
    FrequencyGrid,
    classical_admissible,
    cross_from_csv,
    cross_to_csv,
    flat_cross,
    flat_spectrum,
    gaussian_cross,
    gaussian_spectrum,
    intensity,
    max_classical_cross,
    quantum_admissible,
    reflected,
    spectrum_from_csv,
    spectrum_to_csv,
)
from nldc.stationary import make_pair_model

G64 = FrequencyGrid(n=64, domega=0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(n=48, domega=0.5)  # not a power of two
    with pytest.raises(ValueError):
        FrequencyGrid(n=4, domega=0.5)
    with pytest.raises(ValueError):
        FrequencyGrid(n=64, domega=0.0)
    grid = FrequencyGrid(n=16, domega=0.25)
    assert grid.omegas[0] == -2.0 and grid.omegas[-1] == 1.75
    assert grid.dt == pytest.approx(2 * math.pi / 4.0)
    assert grid.times[grid.n // 2] == 0.0


def test_gaussian_spectra_must_hold_three_sigma_on_the_grid():
    # G64 spans -16 .. 15.5 rad/ps: |center| + 3*sigma must stay below 16.
    for build in (gaussian_spectrum, gaussian_cross):
        with pytest.raises(GridTooNarrowError) as err:
            build(G64, 1.0, 2.0, -10.0)
        assert (err.value.ratio, err.value.limit) == (1.0, 16.0)
        build(G64, 1.0, 2.0, np.nextafter(-10.0, 0.0))
    # A Gaussian that rounds to one value on every cell is a flat spectrum.
    assert np.all(gaussian_spectrum(G64, 1.0, 1.0, 1e200).values == 0.0)  # the zero one
    assert np.all(gaussian_spectrum(G64, 0.0, 10.0).values == 0.0)
    assert np.all(gaussian_spectrum(G64, 2.0, 1e10).values == 2.0)
    with pytest.raises(GridTooNarrowError):
        gaussian_spectrum(G64, 2.0, 1e7)  # flat to 5e-12 only


def test_grid_arrays_are_readonly():
    with pytest.raises(ValueError):
        G64.omegas[0] = 99.0
    s = gaussian_spectrum(G64, 1.0, 1.0)
    with pytest.raises(ValueError):
        s.values[3] = -1.0


def test_gaussian_spectrum_pointwise():
    grid = FrequencyGrid(n=16, domega=1.0)
    s = gaussian_spectrum(grid, peak=1.0, sigma=1.0)
    k0 = grid.n // 2
    assert s.values[k0] == 1.0
    assert s.values[k0 + 1] == pytest.approx(math.exp(-0.5))
    assert np.all(gaussian_spectrum(grid, 0.0, 1.0).values == 0.0)
    with pytest.raises(ValueError):
        gaussian_spectrum(grid, 1.0, 0.0)


def test_intensity_closed_form_and_quadrature():
    grid = FrequencyGrid(n=256, domega=0.125)
    s = gaussian_spectrum(grid, peak=1.0, sigma=2.0)
    expected = 2.0 / math.sqrt(2.0 * math.pi)  # (1/2pi) * integral
    assert intensity(s) == pytest.approx(expected, rel=1e-9)
    # independent oracle: trapezoid quadrature on a 10x finer grid
    w = np.linspace(-16.0, 16.0, 10 * grid.n + 1)
    quad = np.trapezoid(np.exp(-(w ** 2) / 8.0), w) / (2 * math.pi)
    assert intensity(s) == pytest.approx(quad, rel=1e-9)


def test_intensity_trivial_cases():
    assert intensity(flat_spectrum(G64, 0.0)) == 0.0
    width = G64.n * G64.domega
    assert intensity(flat_spectrum(G64, 1.0)) == pytest.approx(width / (2 * math.pi))


def test_quantum_boundary_flat_sqrt2():
    s = flat_spectrum(G64, 1.0)
    x = flat_cross(G64, math.sqrt(2.0))
    report = quantum_admissible(s, s, x)
    assert report.ok
    assert report.worst_ratio == pytest.approx(1.0, rel=1e-12)
    # and the same cross fails the classical ceiling with ratio 2
    creport = classical_admissible(s, s, x)
    assert not creport.ok
    assert creport.worst_ratio == pytest.approx(2.0, rel=1e-12)


def test_classical_boundary_flat_unity():
    s = flat_spectrum(G64, 1.0)
    report = classical_admissible(s, s, flat_cross(G64, 1.0))
    assert report.ok and report.worst_ratio == pytest.approx(1.0)


def test_zero_cross_is_always_admissible():
    s1 = gaussian_spectrum(G64, 1.0, 1.0)
    s2 = flat_spectrum(G64, 0.0)
    x = flat_cross(G64, 0.0)
    assert quantum_admissible(s1, s2, x).ok
    assert classical_admissible(s1, s2, x).ok
    assert quantum_admissible(s2, s2, x).worst_ratio == 0.0  # 0/0 counts as 0


def test_vacuum_cannot_carry_cross_correlation():
    zero = flat_spectrum(G64, 0.0)
    x = flat_cross(G64, 0.5)
    report = quantum_admissible(zero, zero, x)
    assert not report.ok
    assert math.isinf(report.worst_ratio)


def test_worst_cell_is_a_defined_ratio():
    # Past the float range |x|^2 and the bound are both inf at the centre,
    # and inf/inf is undefined; the worst cell is picked among the others,
    # here a tail cell whose bound underflows to 0 under an infinite |x|^2.
    grid = FrequencyGrid(1024, 0.0625)
    s = gaussian_spectrum(grid, 1e200, 1.0)
    x = flat_cross(grid, 1e200)
    for check in (quantum_admissible, classical_admissible):
        report = check(s, s, x)
        assert not report.ok
        assert math.isinf(report.worst_ratio) and report.worst_omega == grid.omegas[0]
    # With every ratio undefined the report names the first cell.
    huge = flat_spectrum(grid, 1e200)
    report = classical_admissible(huge, huge, x)
    assert math.isnan(report.worst_ratio) and report.worst_omega == grid.omegas[0]


def test_an_overflowing_cross_spectrum_is_not_admissible():
    # |x|^2 and its bound are inf in every cell, and inf <= inf is no pass:
    # a check that cannot be evaluated in floating point fails.
    grid = FrequencyGrid(1024, 0.0625)
    huge = flat_spectrum(grid, 1e200)
    x = flat_cross(grid, 1e200)
    for check in (quantum_admissible, classical_admissible):
        report = check(huge, huge, x)
        assert not report.ok
        assert math.isnan(report.worst_ratio) and report.worst_omega == grid.omegas[0]
    with pytest.raises(AdmissibilityError, match="violates the quantum bound: worst ratio nan"):
        make_pair_model(huge, huge, x, 20.0)


def test_reflection_pairs_omega_with_minus_omega():
    grid = FrequencyGrid(n=16, domega=1.0)
    vals = np.arange(16.0)
    refl = reflected(vals)
    assert refl[0] == vals[0]  # endpoint -n/2*domega self-maps
    w = grid.omegas
    for k in range(1, 16):
        j = int(np.where(w == -w[k])[0][0])
        assert refl[k] == vals[j]


def test_admissibility_uses_reflected_s2():
    # s2 peaked at +3 rad/ps, cross-spectrum supported at +3: the bound pairs
    # x(3) with S2(-3), which is tiny, so the check must fail.
    grid = FrequencyGrid(n=64, domega=0.25)
    s1 = flat_spectrum(grid, 1.0)
    s2 = gaussian_spectrum(grid, 1.0, 0.5, center=3.0)
    xvals = np.zeros(grid.n, dtype=complex)
    xvals[np.argmin(np.abs(grid.omegas - 3.0))] = 1.0
    x = type(flat_cross(grid, 0.0))(grid, xvals)
    assert not quantum_admissible(s1, s2, x).ok
    # moving the support to -3 pairs it with S2(+3) = 1 and passes
    yvals = np.zeros(grid.n, dtype=complex)
    yvals[np.argmin(np.abs(grid.omegas + 3.0))] = 1.0
    y = type(x)(grid, yvals)
    assert quantum_admissible(s1, s2, y).ok


def test_max_classical_cross_examples():
    s = gaussian_spectrum(G64, 1.0, 1.0)
    x = max_classical_cross(s, s)
    assert np.allclose(x.values, np.exp(-G64.omegas ** 2 / 2.0), rtol=1e-12)
    flat = max_classical_cross(flat_spectrum(G64, 4.0), flat_spectrum(G64, 1.0))
    assert np.all(flat.values == 2.0)
    zero = max_classical_cross(s, flat_spectrum(G64, 0.0))
    assert np.all(zero.values == 0.0)
    report = classical_admissible(s, s, x)
    assert report.ok and report.worst_ratio == pytest.approx(1.0)


def test_grid_mismatch_rejected():
    other = FrequencyGrid(n=64, domega=0.25)
    with pytest.raises(GridMismatchError):
        quantum_admissible(
            flat_spectrum(G64, 1.0), flat_spectrum(other, 1.0), flat_cross(G64, 0.5)
        )
    with pytest.raises(GridMismatchError):
        max_classical_cross(flat_spectrum(G64, 1.0), flat_spectrum(other, 1.0))


def test_spectrum_csv_round_trip(tmp_path):
    s = gaussian_spectrum(FrequencyGrid(n=32, domega=0.37), 0.8, 1.3, center=-0.4)
    path = tmp_path / "s.csv"
    spectrum_to_csv(s, path)
    back = spectrum_from_csv(path)
    assert back.grid == s.grid
    assert np.array_equal(back.values, s.values)


def test_cross_csv_round_trip(tmp_path):
    grid = FrequencyGrid(n=32, domega=0.37)
    rng = np.random.default_rng(5)
    x = type(flat_cross(grid, 0.0))(grid, rng.normal(size=32) + 1j * rng.normal(size=32))
    path = tmp_path / "x.csv"
    cross_to_csv(x, path)
    back = cross_from_csv(path)
    assert back.grid == grid
    assert np.array_equal(back.values, x.values)


def _rows_oracle(grid, header, rows):
    """The bytes of the per-row writer that the chunked `spectral._write_table` replaced."""
    lines = [f"# n={grid.n} domega_rad_ps={grid.domega:.17g}\n", header + "\n"]
    lines += [",".join(f"{v:.17g}" for v in row) + "\n" for row in rows]
    return "".join(lines).encode("utf-8")


def test_spectrum_and_cross_csv_match_the_row_loop(tmp_path):
    grid = FrequencyGrid(n=64, domega=0.37)
    s = gaussian_spectrum(grid, 0.8, 1.3, center=-0.4)
    spectrum_to_csv(s, tmp_path / "s.csv")
    expected = _rows_oracle(grid, "omega_rad_ps,value", zip(grid.omegas, s.values))
    assert (tmp_path / "s.csv").read_bytes() == expected

    rng = np.random.default_rng(9)
    x = type(flat_cross(grid, 0.0))(grid, rng.normal(size=64) + 1j * rng.normal(size=64))
    cross_to_csv(x, tmp_path / "x.csv")
    rows = zip(grid.omegas, x.values.real, x.values.imag)
    assert (tmp_path / "x.csv").read_bytes() == _rows_oracle(grid, "omega_rad_ps,re,im", rows)


def test_csv_rejects_mangled_grid(tmp_path):
    s = gaussian_spectrum(G64, 1.0, 1.0)
    path = tmp_path / "s.csv"
    spectrum_to_csv(s, path)
    text = path.read_text().splitlines()
    text[2] = "99.0" + text[2][text[2].index(","):]  # corrupt one omega entry
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError):
        spectrum_from_csv(path)


# ---------------------------------------------------------------------------
# Properties.

_sigmas = st.floats(min_value=0.3, max_value=3.0)
_peaks = st.floats(min_value=0.01, max_value=10.0)
_centers = st.floats(min_value=-3.0, max_value=3.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_peaks, _sigmas, _centers, _peaks, _sigmas, _centers)
def test_classical_extremal_always_quantum_admissible(p1, s1_, c1, p2, s2_, c2):
    s1 = gaussian_spectrum(G64, p1, s1_, c1)
    s2 = gaussian_spectrum(G64, p2, s2_, c2)
    x = max_classical_cross(s1, s2)
    assert classical_admissible(s1, s2, x).ok
    assert quantum_admissible(s1, s2, x).ok


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_peaks, _sigmas, st.floats(min_value=0.1, max_value=0.9),
       st.floats(min_value=1.1, max_value=5.0))
def test_worst_ratio_scales_monotonically(peak, sigma, shrink, grow):
    s = gaussian_spectrum(G64, peak, sigma)
    x = max_classical_cross(s, s)
    base = classical_admissible(s, s, x).worst_ratio
    smaller = type(x)(G64, x.values * shrink)
    larger = type(x)(G64, x.values * grow)
    assert classical_admissible(s, s, smaller).worst_ratio <= base
    assert classical_admissible(s, s, larger).worst_ratio >= base


def test_verdict_stable_under_grid_refinement():
    coarse = FrequencyGrid(n=64, domega=0.5)
    fine = FrequencyGrid(n=128, domega=0.25)  # same span, doubled resolution
    for scale, expect_ok in ((0.7, True), (1.3, False)):
        reports = []
        for grid in (coarse, fine):
            s1 = gaussian_spectrum(grid, 1.0, 2.0)
            s2 = gaussian_spectrum(grid, 0.8, 1.5)
            x = max_classical_cross(s1, s2)
            scaled = type(x)(grid, x.values * scale)
            reports.append(classical_admissible(s1, s2, scaled))
        assert reports[0].ok == reports[1].ok == expect_ok
        assert reports[0].worst_ratio == pytest.approx(reports[1].worst_ratio, abs=1e-6)


def test_intensity_is_linear_and_nonnegative():
    s = gaussian_spectrum(G64, 2.0, 1.0)
    doubled = type(s)(G64, 2.0 * s.values)
    assert intensity(doubled) == pytest.approx(2.0 * intensity(s), rel=1e-12)
    assert intensity(s) >= 0.0
