"""Acceptance gate: the eight contract checks, one test per criterion.

Each test computes its quantities at the pinned tolerances, prints a
single "criterion N: PASS/FAIL - ..." line and asserts.  Run with

    pytest tests/test_acceptance.py -v -s

to see the lines for passing criteria too.  Everything random is keyed
off fixed seeds, so the whole module is deterministic.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from nldc import cli
from nldc.biphoton import (
    amplitude_moments,
    apply_dispersion_phase,
    build_pdc_amplitude,
    to_time_domain,
)
from nldc.moments import (
    DispersionKit,
    TemporalCovariance,
    evaluate_witness,
    shear_covariance,
)
from nldc.sampler import (
    EventBatch,
    derive_seed,
    empirical_witness,
    estimate_tau_stats,
    sample_biphoton,
    sample_stationary_sheared,
    sample_tau_density,
)
from nldc.spectral import (
    FrequencyGrid,
    classical_admissible,
    flat_cross,
    flat_spectrum,
    gaussian_cross,
    gaussian_spectrum,
    max_classical_cross,
    quantum_admissible,
)
from nldc.stationary import (
    make_pair_model,
    windowed_covariance,
)

ACCEPT_SEED = 411

# The headline operating point: quasi-monochromatic pump, broad phase
# matching, 2*beta_L = 64 ps^2 per arm.
PUMP_SIGMA = 1e-4
PM_SIGMA = 10.0
BETA_L = 32.0
CW_GRID = FrequencyGrid(1024, 0.0625)


def _report(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _rng(label):
    return np.random.Generator(np.random.Philox(key=derive_seed(ACCEPT_SEED, label)))


def test_criterion_1_dispersion_cancellation():
    start = time.perf_counter()
    kit = DispersionKit(beta_L=BETA_L)
    psi = build_pdc_amplitude(CW_GRID, PUMP_SIGMA, PM_SIGMA)
    var_before = amplitude_moments(psi).var_tau
    var_plus = amplitude_moments(apply_dispersion_phase(psi, kit)).var_tau
    var_minus = amplitude_moments(apply_dispersion_phase(psi, kit.swapped())).var_tau
    sym = 0.5 * (var_plus + var_minus)
    elapsed = time.perf_counter() - start

    correction = (2.0 * BETA_L) ** 2 * PUMP_SIGMA ** 2
    band = 0.005 * 0.01 + correction
    target = 0.01 + correction
    rel = abs(sym - target) / target
    ok = (
        abs(sym - 0.01) <= band
        and rel <= 0.005
        and abs(var_before - 0.01) <= band
        and elapsed < 10.0
    )
    _report(
        1,
        ok,
        f"symmetrized Var(tau) = {sym:.9f} ps^2 vs 0.01 + {correction:.3g} "
        f"(rel {rel:.2%} <= 0.50%), runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_2_inequality_violation():
    start = time.perf_counter()
    kit = DispersionKit(beta_L=BETA_L)
    psi = build_pdc_amplitude(CW_GRID, PUMP_SIGMA, PM_SIGMA)
    report = evaluate_witness(amplitude_moments(psi), kit)
    ratio = report.rhs / report.lhs

    densities = {
        "before": to_time_domain(psi),
        "plus": to_time_domain(apply_dispersion_phase(psi, kit)),
        "minus": to_time_domain(apply_dispersion_phase(psi, kit.swapped())),
    }
    stats = {
        label: estimate_tau_stats(
            sample_biphoton(d, 100_000, derive_seed(ACCEPT_SEED, f"c2-{label}")), 0.0, 0
        )
        for label, d in densities.items()
    }
    emp = empirical_witness(stats["before"], stats["plus"], stats["minus"], kit)
    elapsed = time.perf_counter() - start

    ok = ratio > 1e6 and emp.violated and emp.significance > 5.0 and elapsed < 30.0
    _report(
        2,
        ok,
        f"rhs/lhs = {ratio:.3g} > 1e6, empirical violation at "
        f"{emp.significance:.0f} sigma (10^5 events), runtime {elapsed:.2f}s < 30s",
    )


def test_criterion_3_separable_soundness():
    rng = _rng("criterion3")
    worst = -math.inf
    for _ in range(10_000):
        var_tau = 10.0 ** rng.uniform(-2.0, 2.0)
        uplift = rng.uniform(1.0, 100.0)
        var_omega = uplift / var_tau
        cov = rng.uniform(-0.999, 0.999) * math.sqrt(var_tau * var_omega)
        state = TemporalCovariance(
            var_tau=var_tau,
            var_omega=var_omega,
            cov_tau_omega=cov,
            mean_tau=rng.uniform(-5.0, 5.0),
            mean_omega=rng.uniform(-5.0, 5.0),
        )
        kit = DispersionKit(
            beta_L=rng.uniform(0.0, 100.0),
            delay_1=rng.uniform(-5.0, 5.0),
            delay_2=rng.uniform(-5.0, 5.0),
        )
        worst = max(worst, evaluate_witness(state, kit).margin)
    ok = worst <= 0.0
    _report(
        3,
        ok,
        f"10^4 product >= 1 states, beta_L in [0, 100]: max margin {worst:.3g} <= 0",
    )


def test_criterion_4_classical_ceiling():
    rng = _rng("criterion4")
    grid = FrequencyGrid(256, 0.25)
    peak_ok = True
    margin_worst = -math.inf
    for _ in range(100):
        s1 = gaussian_spectrum(grid, rng.uniform(0.2, 3.0), rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0))
        s2 = gaussian_spectrum(grid, rng.uniform(0.2, 3.0), rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0))
        cross = max_classical_cross(s1, s2)
        probe = make_pair_model(s1, s2, cross, window=1.0).profile
        peak_ok = peak_ok and probe.signal.max() <= probe.background * (1.0 + 1e-9)
        weights = probe.signal / probe.signal.sum()
        rms = math.sqrt(float((probe.taus ** 2 * weights).sum()))
        model = make_pair_model(s1, s2, cross, window=10.0 * rms)
        kit = DispersionKit(beta_L=rng.uniform(0.0, 10.0))
        margin_worst = max(
            margin_worst, evaluate_witness(windowed_covariance(model), kit).margin
        )

    flat_grid = FrequencyGrid(64, 0.25)
    s = flat_spectrum(flat_grid, 1.0)
    x = flat_cross(flat_grid, math.sqrt(2.0))
    quantum_only = quantum_admissible(s, s, x).ok and not classical_admissible(s, s, x).ok

    ok = peak_ok and margin_worst <= 0.0 and quantum_only
    _report(
        4,
        ok,
        "100 extremal pairs: |g(0)|^2 <= I1*I2 "
        f"({'all' if peak_ok else 'FAILED'}), worst windowed margin {margin_worst:.3g} <= 0 "
        f"at T = 10x signal width; flat |x| = sqrt(2) quantum-only: {quantum_only}",
    )


def test_criterion_5_background_law():
    grid = FrequencyGrid(256, 0.25)
    s = gaussian_spectrum(grid, 1.0, 1.0)
    zero = flat_cross(grid, 0.0)

    model_10 = make_pair_model(s, s, zero, window=10.0)
    misses = 0
    vars_10 = []
    for k in range(200):
        batch = sample_tau_density(
            model_10.profile, 100_000, derive_seed(ACCEPT_SEED, f"floor-10-{k}")
        )
        stats = estimate_tau_stats(batch, 0.0, 0)
        vars_10.append(stats.var_tau)
        if abs(stats.var_tau - 10.0 ** 2 / 6.0) > 3.0 * stats.stderr:
            misses += 1

    mean_vars = {10.0: float(np.mean(vars_10[:50]))}
    for T in (20.0, 40.0):
        model = make_pair_model(s, s, zero, window=T)
        draws = [
            estimate_tau_stats(
                sample_tau_density(model.profile, 100_000, derive_seed(ACCEPT_SEED, f"floor-{T:g}-{k}")),
                0.0,
                0,
            ).var_tau
            for k in range(50)
        ]
        mean_vars[T] = float(np.mean(draws))
    ts = sorted(mean_vars)
    slope = float(
        np.polyfit(np.log([t for t in ts]), np.log([mean_vars[t] for t in ts]), 1)[0]
    )

    ok = misses == 0 and abs(slope - 2.0) <= 0.02
    _report(
        5,
        ok,
        f"200 seeds x 10^5 events: {200 - misses}/200 within 3 stderr of T^2/6; "
        f"log-log slope over T = 10,20,40: {slope:.4f} (target 2.00 +/- 0.02)",
    )


def test_criterion_6_route_agreement():
    rng = _rng("criterion6")
    max_rel = 0.0
    max_sigma = 0.0
    for i in range(50):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        # Cap the spacing so the time half-span (pi / domega) leaves room
        # for the chirped wings after dispersion, not just the bare state.
        grid = FrequencyGrid(512, min(min(a, b) / 3.5, 0.12))
        kit = DispersionKit(
            beta_L=rng.uniform(0.0, 0.5),
            delay_1=rng.uniform(-1.0, 1.0),
            delay_2=rng.uniform(-1.0, 1.0),
        )
        psi = build_pdc_amplitude(grid, a, b)
        cov0 = amplitude_moments(psi)
        route_moments = shear_covariance(cov0, kit).var_tau
        route_fft = amplitude_moments(apply_dispersion_phase(psi, kit)).var_tau
        max_rel = max(max_rel, abs(route_fft - route_moments) / route_moments)

        mc = _rng(f"criterion6-mc-{i}")
        tau, omega = mc.multivariate_normal(
            [cov0.mean_tau, cov0.mean_omega],
            [[cov0.var_tau, cov0.cov_tau_omega], [cov0.cov_tau_omega, cov0.var_omega]],
            size=100_000,
        ).T
        tau_after = tau + (kit.delay_1 - kit.delay_2) + 2.0 * kit.beta_L * omega
        stats = estimate_tau_stats(
            EventBatch(t1=tau_after, t2=np.zeros_like(tau_after), seed=0, source="mc"),
            0.0,
            0,
        )
        max_sigma = max(max_sigma, abs(stats.var_tau - route_moments) / stats.stderr)

    ok = max_rel <= 1e-3 and max_sigma <= 3.0
    _report(
        6,
        ok,
        f"50 Gaussian scenarios: moments vs FFT rel <= {max_rel:.2e} (limit 1e-3), "
        f"per-event MC shear within {max_sigma:.2f} sigma (limit 3)",
    )


def test_criterion_7_jitter_model(tmp_path):
    scenario = {
        "state": {
            "biphoton": {
                "pump_sigma_rad_ps": PUMP_SIGMA,
                "pm_sigma_rad_ps": PM_SIGMA,
                "grid": {"n": 256, "domega_rad_ps": 0.25},
            }
        },
        "kit": {"beta_L_ps2": BETA_L},
        "jitter_sigma_ps": 0.0,
    }
    path = tmp_path / "jitter.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "scan"
    rc = cli.main([
        "scan", str(path), "--param", "jitter_sigma_ps", "--values", "0,10,25,50",
        "--out", str(out),
    ])
    lines = (out / "scan_jitter_sigma_ps.csv").read_text().splitlines()
    margins = [float(line.split(",")[3]) for line in lines[1:]]
    monotone = all(a >= b for a, b in zip(margins, margins[1:]))

    scenario["jitter_sigma_ps"] = 50.0
    path.write_text(json.dumps(scenario))
    rc_run = cli.main(["run", str(path), "--out", str(tmp_path / "run50")])
    record = json.loads((tmp_path / "run50" / "runrecord.json").read_text())
    feas = record["jitter"]["feasibility"]
    ratio = feas["dispersion_ratio"]

    ok = (
        rc == 0
        and rc_run == 0
        and monotone
        and feas["dispersion_ok"] is False
        and abs(ratio - 0.026) < 5e-4
    )
    _report(
        7,
        ok,
        f"margin non-increasing over jitter 0/10/25/50 ps: {monotone}; at 50 ps "
        f"dispersion_ok={feas['dispersion_ok']} (ratio {ratio:.4f} ~ 0.026)",
    )


def _pipeline_digest(tmp_path, tag):
    """One sha256 over every random artifact the suite produces."""
    h = hashlib.sha256()

    psi = build_pdc_amplitude(FrequencyGrid(256, 0.25), PUMP_SIGMA, PM_SIGMA)
    batch = sample_biphoton(to_time_domain(psi), 10_000, derive_seed(ACCEPT_SEED, "c8"))
    h.update(batch.t1.tobytes())
    h.update(batch.t2.tobytes())

    grid = FrequencyGrid(256, 0.25)
    s = gaussian_spectrum(grid, 1.0, 1.0)
    model = make_pair_model(s, s, gaussian_cross(grid, 1.2, 1.0), window=14.0)
    sheared = sample_stationary_sheared(
        model, DispersionKit(beta_L=0.8), 10_000, derive_seed(ACCEPT_SEED, "c8s")
    )
    h.update(sheared.t1.tobytes())
    h.update(sheared.t2.tobytes())

    scenario = {
        "state": {
            "biphoton": {
                "pump_sigma_rad_ps": PUMP_SIGMA,
                "pm_sigma_rad_ps": PM_SIGMA,
                "grid": {"n": 256, "domega_rad_ps": 0.25},
            }
        },
        "kit": {"beta_L_ps2": BETA_L},
        "sampler": {"n_events": 500, "seed": 12},
    }
    path = tmp_path / f"det-{tag}.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / f"det-{tag}"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    record = json.loads((out / "runrecord.json").read_text())
    record.pop("created_utc")
    h.update(cli.canonical_json(record).encode())
    for label in ("before", "plus", "minus"):
        h.update((out / f"events_{label}.csv").read_bytes())
    assert cli.main(["render", str(out / "runrecord.json")]) == 0
    h.update((out / "scatter.svg").read_bytes())
    h.update((out / "tau_hist.svg").read_bytes())
    return h.hexdigest()


def test_criterion_8_bit_reproducibility(tmp_path):
    first = _pipeline_digest(tmp_path, "a")
    second = _pipeline_digest(tmp_path, "b")
    ok = first == second
    _report(
        8,
        ok,
        f"two consecutive seeded runs hash to {first[:16]}... "
        f"{'==' if ok else '!='} {second[:16]}...",
    )
