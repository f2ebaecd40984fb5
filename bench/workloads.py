"""Benchmark workloads: scenarios generated from the seed, commands, output checks.

A cycle is one generated scenario taken through the workload's `nldc`
commands.  Every cycle draws its own scenario from (seed, workload, cycle
index), so no two commands in a run share a state and a cache keyed on the
state could never hit, just as it never can across separate CLI processes.

The drawn ranges keep every command clear of the package's preconditions:

* biphoton_run_render: pump 1e-4 <= domega/10 (delta ridge); b in
  [9.5, 10.5] keeps 3b below the 32 rad/ps half span, and the criterion-1
  term (2 beta_L a)^2 = 4.1e-5 ps^2 stays inside 0.5% of 1/b^2 + that term
  (0.46% at b = 10.5).
* biphoton_beta_scan: a in [0.45, 0.50] is resolved (domega < a/3) and at
  beta_L = 5 ps^2 the dispersed tau marginal keeps its edge mass at most
  5.4e-7, half of EDGE_MASS_LIMIT; beta_L = 6 already wraps the grid at
  a = 0.5 (edge mass 1.35e-6, exit 3), so the ladder stops at 5.
* stationary_run_1m: sigma = 1 rad/ps spectra give a signal RMS of 0.7 ps,
  far inside 6x RMS <= T for T in [14, 40] ps.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Check = Callable[[Path], list]


@dataclass(frozen=True)
class Command:
    kind: str  # "run", "render" or "scan"
    argv: list
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    grid_n: int
    grid_dims: int  # 2 for an n x n amplitude, 1 for stationary spectra
    events: int  # events per sampled batch (0: no sampling)
    points: int  # scenario evaluations per cycle
    cycle: Callable[[random.Random, int, Path, Path], tuple]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _record(out_dir: Path) -> dict:
    return json.loads((out_dir / "runrecord.json").read_text(encoding="utf-8"))


def _expect(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _svg_ok(path: Path) -> bool:
    if not path.is_file():
        return False
    text = path.read_text(encoding="utf-8")
    return text.startswith("<svg") and text.endswith("</svg>\n")


# ---------------------------------------------------------------------------
# biphoton_run_render

RR_N, RR_DOMEGA, RR_PUMP, RR_BETA, RR_EVENTS = 1024, 0.0625, 1e-4, 32.0, 100_000


def _run_render_cycle(rng: random.Random, index: int, scenario_path: Path, out_dir: Path):
    b = rng.uniform(9.5, 10.5)
    scenario = {
        "state": {
            "biphoton": {
                "pump_sigma_rad_ps": RR_PUMP,
                "pm_sigma_rad_ps": b,
                "grid": {"n": RR_N, "domega_rad_ps": RR_DOMEGA},
            }
        },
        "kit": {"beta_L_ps2": RR_BETA},
        "sampler": {"n_events": RR_EVENTS, "seed": rng.randrange(2 ** 31)},
        "outputs": {"events_csv": True},
    }

    def check_run(out: Path) -> list:
        failures: list = []
        rec = _record(out)
        w = rec["witness"]
        _expect(failures, w.get("violated") is True, "witness not violated")
        _expect(failures, w["rhs_ps2"] / w["lhs_ps2"] > 1e6, f"rhs/lhs = {w['rhs_ps2'] / w['lhs_ps2']:.3g} <= 1e6")
        target = 1.0 / b ** 2 + (2.0 * RR_BETA * RR_PUMP) ** 2
        rel = _rel(rec["fft"]["symmetrized_var_tau_ps2"], target)
        _expect(failures, rel <= 0.005, f"fft symmetrized Var(tau) off 1/b^2 + (2 beta_L a)^2 by {rel:.3%}")
        emp = rec["sampling"]["empirical_witness"]
        _expect(failures, emp.get("evaluable") is True and emp["significance"] > 5.0,
                f"empirical significance {emp.get('significance')} <= 5")
        for label in ("before", "plus", "minus"):
            _expect(failures, (out / f"events_{label}.csv").is_file(), f"events_{label}.csv missing")
        return failures

    def check_render(out: Path) -> list:
        failures: list = []
        for name in ("scatter.svg", "tau_hist.svg"):
            _expect(failures, _svg_ok(out / name), f"{name} missing or truncated")
        return failures

    return scenario, [
        Command("run", ["run", str(scenario_path), "--out", str(out_dir)], check_run),
        Command("render", ["render", str(out_dir / "runrecord.json")], check_render),
    ]


# ---------------------------------------------------------------------------
# biphoton_beta_scan

SCAN_N, SCAN_DOMEGA = 512, 0.125
SCAN_BETAS = [5.0 * k / 7 for k in range(8)]
SCAN_TIGHT_RTOL = 1e-9  # same closed form, re-evaluated from the beta = 0 row
SCAN_LOOSE_RTOL = 1e-2  # discrete grid moments against the continuum 1/b^2 and a^2


def _scan_cycle(rng: random.Random, index: int, scenario_path: Path, out_dir: Path):
    a = rng.uniform(0.45, 0.50)
    b = rng.uniform(9.5, 10.5)
    scenario = {
        "state": {
            "biphoton": {
                "pump_sigma_rad_ps": a,
                "pm_sigma_rad_ps": b,
                "grid": {"n": SCAN_N, "domega_rad_ps": SCAN_DOMEGA},
            }
        },
        "kit": {"beta_L_ps2": 0.0},
    }

    def check_scan(out: Path) -> list:
        failures: list = []
        lines = (out / "scan_kit_beta_L_ps2.csv").read_text(encoding="utf-8").splitlines()
        _expect(failures, lines[0] == "value,lhs_ps2,rhs_ps2,margin_ps2,product", "scan CSV header")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        if len(rows) != len(SCAN_BETAS):
            return failures + [f"scan CSV has {len(rows)} rows, expected {len(SCAN_BETAS)}"]
        v0, product = rows[0][1], rows[0][4]
        for beta, (value, lhs, rhs, margin, prod) in zip(SCAN_BETAS, rows):
            shear = 4.0 * beta * beta
            _expect(failures, value == beta, f"row value {value} != {beta}")
            _expect(failures, _rel(rhs, v0 + shear / v0) <= SCAN_TIGHT_RTOL, f"rhs off v0 + 4b^2/v0 at beta {beta}")
            _expect(failures, _rel(lhs, v0 + shear * product / v0) <= SCAN_TIGHT_RTOL,
                    f"lhs off v0 + 4b^2 product/v0 at beta {beta}")
            _expect(failures, prod == product, f"product changes at beta {beta}")
        _expect(failures, _rel(v0, 1.0 / b ** 2) <= SCAN_LOOSE_RTOL, f"Var(tau) {v0} off 1/b^2")
        _expect(failures, _rel(product / v0, a * a) <= SCAN_LOOSE_RTOL, f"Var(Omega) {product / v0} off a^2")
        return failures

    values = ",".join(repr(v) for v in SCAN_BETAS)
    argv = ["scan", str(scenario_path), "--param", "kit.beta_L_ps2", "--values", values, "--out", str(out_dir)]
    return scenario, [Command("scan", argv, check_scan)]


# ---------------------------------------------------------------------------
# stationary_run_1m

ST_N, ST_DOMEGA, ST_BETA, ST_EVENTS = 1024, 0.0625, 2.0, 1_000_000
ST_SPECTRUM = {"gaussian": {"peak": 1.0, "sigma_rad_ps": 1.0}}


def _stationary_cycle(rng: random.Random, index: int, scenario_path: Path, out_dir: Path):
    regime = "quantum" if index % 2 == 0 else "classical"
    cross = {"gaussian": {"peak": 1.2, "sigma_rad_ps": 1.0}} if regime == "quantum" else "classical-extremal"
    scenario = {
        "state": {
            "stationary": {
                "grid": {"n": ST_N, "domega_rad_ps": ST_DOMEGA},
                "s1": ST_SPECTRUM,
                "s2": ST_SPECTRUM,
                "cross": cross,
                "window_T_ps": rng.uniform(14.0, 40.0),
            }
        },
        "kit": {"beta_L_ps2": ST_BETA},
        "sampler": {"n_events": ST_EVENTS, "seed": rng.randrange(2 ** 31)},
        "outputs": {"events_csv": False},
    }

    def check_run(out: Path) -> list:
        failures: list = []
        rec = _record(out)
        _expect(failures, rec["windowed"]["regime"] == regime, f"regime {rec['windowed']['regime']} != {regime}")
        est = rec["sampling"]["estimates"]
        stderr = 0.5 * math.hypot(est["plus"]["stderr_ps2"], est["minus"]["stderr_ps2"])
        gap = abs(rec["sampling"]["empirical_witness"]["lhs_ps2"] - rec["witness"]["lhs_ps2"])
        _expect(failures, gap <= 5.0 * stderr, f"empirical lhs {gap / stderr:.2f} stderr from analytic lhs")
        rows = (out / "tau_profile.csv").read_text(encoding="utf-8").count("\n") - 2
        _expect(failures, rows == ST_N, f"tau_profile.csv has {rows} rows, expected {ST_N}")
        return failures

    return scenario, [Command("run", ["run", str(scenario_path), "--out", str(out_dir)], check_run)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("biphoton_run_render", RR_N, 2, RR_EVENTS, 1, _run_render_cycle),
        Workload("biphoton_beta_scan", SCAN_N, 2, 0, len(SCAN_BETAS), _scan_cycle),
        Workload("stationary_run_1m", ST_N, 1, ST_EVENTS, 1, _stationary_cycle),
    )
}


def cycle_rng(seed: int, workload: str, index: int) -> random.Random:
    """Scenario stream of one cycle; negative indices are the untimed warm-up."""
    return random.Random(f"nldc-bench:{seed}:{workload}:{index}")
