"""Command line front end: run scenarios, scan parameters, render events.

A scenario is a JSON document naming exactly one source state (biphoton,
stationary or a bare covariance), the dispersion hardware, optional
detector jitter and an optional sampling block.  Field names carry units.
`run` produces a RunRecord JSON plus requested CSVs, `scan` sweeps one
numeric scenario field into a CSV table, `render` turns a sampled
RunRecord into deterministic SVG plots.

Exit codes: 0 success, 2 validation error (malformed scenario, bad
parameter path, missing events), 3 numerical precondition error (grid too
coarse or narrow, window too small, inadmissible cross-spectrum, memory
budget exceeded, ...).
Errors are emitted as one JSON object on stderr; a precondition error
that measured a quantity against a limit adds "ratio" (measured / limit)
and "limit".

jitter_sigma_ps is the RMS timing jitter of the coincidence time
difference: the analytic route adds jitter_sigma^2 to Var(tau) and the
sampling route applies jitter_sigma/sqrt(2) per detector channel, which
adds the same.

`run` and `scan` write into the --out directory, else the scenario's
"outputs.dir", else the NLDC_OUT_DIR environment variable, else ./nldc_out.
RunRecords are deterministic for fixed seeds apart from the created_utc
stamp.
"""

from __future__ import annotations

import argparse
import copy
import datetime
import hashlib
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, _blocks
from . import biphoton as bp
from . import sampler as sp
from . import spectral as spc
from . import stationary as st
from ._schema import best_error
from .errors import DegenerateStateError, GridTooCoarseError, MemoryBudgetError, PreconditionError
from .moments import (
    DispersionKit,
    TemporalCovariance,
    apply_jitter,
    evaluate_witness,
    jitter_feasibility,
    separability_check,
    shear_covariance,
)

SCHEMA_VERSION = 1
ENV_OUT_DIR = "NLDC_OUT_DIR"

# The peak memory a run or scan may plan for, and the estimate checked
# against it: the measured peak bytes per grid cell (n^2 cells for a
# biphoton, n for a stationary state; tracemalloc: 24-32 for a biphoton run
# at n = 1024-2048, 79-88 for a stationary one at n = 2^18-2^20), per
# sampled event (tracemalloc at 1e6 events with jitter: 20-23 with no events
# CSV, 72 with the CSVs, which keep all three batches) and per worker of
# the block pool, for the temporaries of the block it computes (tracemalloc
# over 1-3 workers: 2.1 MiB per worker for the line route, 0.2 MiB for the
# biphoton sampler and 0.9 MiB for the stationary samplers), rounded up.
MEMORY_BUDGET_BYTES = 4 * 2**30
_BYTES_PER_CELL = 96
_BYTES_PER_EVENT = 128
_BYTES_PER_WORKER = 4 * 2**20

# The gap between a biphoton arm's grid var_tau (relative) or mean_tau (in standard
# deviations) and the moment algebra's beyond which a run stops (criterion 6's bound).
_ROUTE_RTOL = 1e-3

_GRID_SCHEMA = {
    "type": "object",
    "required": ["n", "domega_rad_ps"],
    "additionalProperties": False,
    "properties": {
        "n": {"type": "integer", "minimum": 8},
        "domega_rad_ps": {"type": "number", "exclusiveMinimum": 0},
    },
}

_GAUSSIAN_SCHEMA = {
    "type": "object",
    "required": ["peak", "sigma_rad_ps"],
    "additionalProperties": False,
    "properties": {
        "peak": {"type": "number", "minimum": 0},
        "sigma_rad_ps": {"type": "number", "exclusiveMinimum": 0},
        "center_rad_ps": {"type": "number", "default": 0.0},
    },
}

_FLAT_SCHEMA = {
    "type": "object",
    "required": ["value"],
    "additionalProperties": False,
    "properties": {"value": {"type": "number", "minimum": 0}},
}

_SPECTRUM_SCHEMA = {
    "type": "object",
    "minProperties": 1,
    "maxProperties": 1,
    "additionalProperties": False,
    "properties": {
        "gaussian": _GAUSSIAN_SCHEMA,
        "flat": _FLAT_SCHEMA,
        "csv": {"type": "string"},
    },
}

_CROSS_SCHEMA = {
    "oneOf": [
        {"const": "classical-extremal"},
        _SPECTRUM_SCHEMA,
    ]
}

SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["state", "kit"],
    "additionalProperties": False,
    "properties": {
        "state": {
            "type": "object",
            "minProperties": 1,
            "maxProperties": 1,
            "additionalProperties": False,
            "properties": {
                "biphoton": {
                    "type": "object",
                    "required": ["pump_sigma_rad_ps", "pm_sigma_rad_ps", "grid"],
                    "additionalProperties": False,
                    "properties": {
                        "pump_sigma_rad_ps": {"type": "number", "exclusiveMinimum": 0},
                        "pm_sigma_rad_ps": {"type": "number", "exclusiveMinimum": 0},
                        "grid": _GRID_SCHEMA,
                    },
                },
                "stationary": {
                    "type": "object",
                    "required": ["grid", "s1", "s2", "cross", "window_T_ps"],
                    "additionalProperties": False,
                    "properties": {
                        "grid": _GRID_SCHEMA,
                        "s1": _SPECTRUM_SCHEMA,
                        "s2": _SPECTRUM_SCHEMA,
                        "cross": _CROSS_SCHEMA,
                        "window_T_ps": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                "covariance": {
                    "type": "object",
                    "required": ["var_tau_ps2", "var_omega_rad2_ps2"],
                    "additionalProperties": False,
                    "properties": {
                        "var_tau_ps2": {"type": "number", "minimum": 0},
                        "var_omega_rad2_ps2": {"type": "number", "minimum": 0},
                        "cov_tau_omega": {"type": "number", "default": 0.0},
                        "mean_tau_ps": {"type": "number", "default": 0.0},
                        "mean_omega_rad_ps": {"type": "number", "default": 0.0},
                    },
                },
            },
        },
        "kit": {
            "type": "object",
            "required": ["beta_L_ps2"],
            "additionalProperties": False,
            "properties": {
                "beta_L_ps2": {"type": "number"},
                "delay_1_ps": {"type": "number", "default": 0.0},
                "delay_2_ps": {"type": "number", "default": 0.0},
            },
        },
        "jitter_sigma_ps": {"type": "number", "minimum": 0, "default": 0.0},
        "sampler": {
            "type": "object",
            "required": ["n_events", "seed"],
            "additionalProperties": False,
            "properties": {
                "n_events": {"type": "integer", "minimum": 2},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "default": {},
            "properties": {
                "dir": {"type": "string"},
                "events_csv": {"type": "boolean", "default": True},
                "tau_profile_csv": {"type": "boolean", "default": True},
                "density_binary": {"type": "boolean", "default": False},
            },
        },
    },
}


class ScenarioError(ValueError):
    """Scenario content failed validation (maps to exit code 2)."""


def _filled(node, schema: dict, path: str = "scenario"):
    """A copy of the valid node with the schema's defaults filled in, integer fields as ints and numbers as floats.

    An object under a oneOf (the cross spectrum) follows the branch of
    type object.  A number past the float range is a ScenarioError.
    """
    if isinstance(node, dict):
        schema = next((s for s in schema.get("oneOf", ()) if s.get("type") == "object"), schema)
        properties = schema["properties"]
        out = {key: _filled(value, properties[key], f"{path}.{key}") for key, value in node.items()}
        for key, sub in properties.items():
            if key not in out and "default" in sub:
                out[key] = _filled(sub["default"], sub)
        return out
    kind = schema.get("type")
    try:
        return int(node) if kind == "integer" else float(node) if kind == "number" else node
    except OverflowError:
        raise ScenarioError(f"{path} is past the float range") from None


def normalize_scenario(raw: dict) -> dict:
    """Validate against the schema and fill its defaults; returns a new dict.

    Integer fields come out as ints and number fields as floats, however
    the input wrote them, so later stages and scan's state cache see one value.
    """
    error = best_error(raw, SCENARIO_SCHEMA)
    if error is not None:
        path, message = error
        raise ScenarioError(f"scenario invalid at {'.'.join(map(str, path)) or '<root>'}: {message}")
    if "covariance" in raw["state"] and "sampler" in raw:
        raise ScenarioError("sampling needs a biphoton or stationary state, not a bare covariance")
    return _filled(raw, SCENARIO_SCHEMA)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def scenario_hash(scenario: dict) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(scenario).encode("utf-8")).hexdigest()


def _reject_constant(name):
    raise ScenarioError(f"{name} is not a JSON number")


def _read_json(path):
    """The strict JSON (no Infinity or NaN) in path; ScenarioError if it is not JSON or nests too deep to parse."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except (json.JSONDecodeError, RecursionError, ScenarioError) as err:
            raise ScenarioError(f"{path} is not valid JSON: {err}") from err


def load_scenario(path) -> dict:
    """Parse strict JSON and normalize it."""
    return normalize_scenario(_read_json(path))


def _build_grid(grid_spec) -> spc.FrequencyGrid:
    return spc.FrequencyGrid(n=grid_spec["n"], domega=grid_spec["domega_rad_ps"])


def _build_spectrum(spec_dict, grid, base_dir, kind):
    """A spectrum (kind "spectrum") or cross spectrum (kind "cross") from its scenario spec."""
    gaussian, flat, from_csv = {
        "spectrum": (spc.gaussian_spectrum, spc.flat_spectrum, spc.spectrum_from_csv),
        "cross": (spc.gaussian_cross, spc.flat_cross, spc.cross_from_csv),
    }[kind]
    if "gaussian" in spec_dict:
        g = spec_dict["gaussian"]
        return gaussian(grid, g["peak"], g["sigma_rad_ps"], g["center_rad_ps"])
    if "flat" in spec_dict:
        return flat(grid, spec_dict["flat"]["value"])
    model = from_csv(Path(base_dir) / spec_dict["csv"])
    if model.grid != grid:
        raise ScenarioError(f"{kind} CSV {spec_dict['csv']} does not match the scenario grid")
    return model


def _check_memory_budget(state: dict, n_events: int) -> None:
    """Reject a state whose estimated peak memory exceeds the budget, before any allocation."""
    if "covariance" in state:
        return
    n = next(iter(state.values()))["grid"]["n"]
    cells = n * n if "biphoton" in state else n
    peak = (
        _BYTES_PER_CELL * cells
        + _BYTES_PER_EVENT * n_events
        + _BYTES_PER_WORKER * _blocks._POOL.workers
    )
    if peak <= MEMORY_BUDGET_BYTES:
        return
    try:
        ratio = peak / MEMORY_BUDGET_BYTES
    except OverflowError:  # a ratio past the float range
        ratio = math.inf
    raise MemoryBudgetError(
        f"grid.n = {n} with {n_events} sampled events needs an estimated {ratio:.3g} times "
        f"the memory budget of {MEMORY_BUDGET_BYTES} bytes",
        ratio=ratio,
        limit=MEMORY_BUDGET_BYTES,
    )


def _build_state(state: dict, base_dir, n_events: int) -> tuple[object, TemporalCovariance]:
    """The source (amplitude, stationary model or None) and cov0, budgeted for n_events per arm."""
    _check_memory_budget(state, n_events)
    if "biphoton" in state:
        cfg = state["biphoton"]
        grid = _build_grid(cfg["grid"])
        psi = bp.build_pdc_amplitude(grid, cfg["pump_sigma_rad_ps"], cfg["pm_sigma_rad_ps"])
        return psi, bp.amplitude_moments(psi)
    if "stationary" in state:
        cfg = state["stationary"]
        grid = _build_grid(cfg["grid"])
        s1 = _build_spectrum(cfg["s1"], grid, base_dir, "spectrum")
        s2 = _build_spectrum(cfg["s2"], grid, base_dir, "spectrum")
        if cfg["cross"] == "classical-extremal":
            cross = spc.max_classical_cross(s1, s2)
        else:
            cross = _build_spectrum(cfg["cross"], grid, base_dir, "cross")
        model = st.StationaryPairModel(s1, s2, cross, cfg["window_T_ps"])
        return model, st.windowed_covariance(model)
    cfg = state["covariance"]  # keyed like the record's covariance blocks
    field_of = {key: name for name, key in _UNIT_KEYS.items()}
    return None, TemporalCovariance(**{field_of.get(k, k): v for k, v in cfg.items()})


def _kit_from(scenario) -> DispersionKit:
    kit = scenario["kit"]
    return DispersionKit(
        beta_L=kit["beta_L_ps2"], delay_1=kit["delay_1_ps"], delay_2=kit["delay_2_ps"]
    )


def _jitter_var(scenario) -> float:
    """The jitter variance jitter_sigma_ps^2, rejected when it overflows."""
    sigma = scenario["jitter_sigma_ps"]
    if not math.isfinite(sigma * sigma):  # a product overflows to inf where ** raises
        raise ScenarioError(f"jitter_sigma_ps = {sigma!r} is too large: its square overflows")
    return sigma ** 2


# The record (or error line) key of each report (or error) field that
# carries a unit; every other field keeps its name.
_UNIT_KEYS = {
    "var_tau": "var_tau_ps2",
    "var_omega": "var_omega_rad2_ps2",
    "mean_tau": "mean_tau_ps",
    "mean_omega": "mean_omega_rad_ps",
    "lhs": "lhs_ps2",
    "rhs": "rhs_ps2",
    "margin": "margin_ps2",
    "margin_stderr": "margin_stderr_ps2",
    "stderr": "stderr_ps2",
    "variance": "variance_ps2",
    "worst_omega": "worst_omega_rad_ps",
}


def _fields(report) -> dict:
    """The record dict of a report dataclass, its unit-carrying fields renamed by _UNIT_KEYS."""
    return {_UNIT_KEYS.get(f.name, f.name): getattr(report, f.name) for f in fields(report)}


def _witness(evaluate, *args) -> dict:
    """The record of a witness evaluate(*args), or why it is not evaluable."""
    try:
        return {"evaluable": True, **_fields(evaluate(*args))}
    except DegenerateStateError as err:
        return {"evaluable": False, "reason": str(err)}


def _require_one_route(label: str, grid_cov: TemporalCovariance, algebra: TemporalCovariance) -> None:
    """GridTooCoarseError unless an arm's grid var_tau and mean_tau are the moment algebra's within _ROUTE_RTOL.

    Dispersion shifts each sum-frequency line's tau profile by
    2*beta_L*Omega modulo the time span, so narrow lines can wrap into a
    comb of spikes that misses the edge cells of the wrap check, and a delay
    can wrap the whole profile: the marginal, density and events then alias.
    """
    gap = abs(grid_cov.var_tau - algebra.var_tau) / algebra.var_tau
    GridTooCoarseError._unless_at_most(
        f"the {label} arm's tau lines wrap the time grid: its grid var_tau {grid_cov.var_tau} ps^2 "
        f"is {gap:.3g} away from the moment algebra's {algebra.var_tau} ps^2 (relative limit "
        f"{_ROUTE_RTOL}); a finer domega_rad_ps gives a longer time span", gap, _ROUTE_RTOL
    )
    gap = abs(grid_cov.mean_tau - algebra.mean_tau) / math.sqrt(algebra.var_tau)
    GridTooCoarseError._unless_at_most(
        f"the {label} arm's tau profile wraps the time grid: its grid mean_tau {grid_cov.mean_tau} ps is "
        f"{gap:.3g} standard deviations away from the moment algebra's {algebra.mean_tau} ps (limit "
        f"{_ROUTE_RTOL}); a finer domega_rad_ps gives a longer time span", gap, _ROUTE_RTOL
    )


def run_scenario(scenario: dict, out_dir: Path, base_dir: Path = Path(".")) -> dict:
    """Execute one normalized scenario, writing outputs into out_dir.

    A biphoton state is dispersed once, with the kit.  The minus arm is the
    plus arm exchanged: one line pass gives both arms' moments, each checked
    against the moment algebra, and the minus events are drawn through a
    transposed view of the plus density.  The 2D time transform runs for
    density_before and the plus density.  Other kinds shear in closed form.
    Each branch hands `sample` its arms' samplers: before, plus, minus.

    Each biphoton kernel works in the storage of the amplitude handed to it
    as `_Owned`: the source becomes density_before, a second (identical)
    build of it the plus amplitude and then the plus density, so one n x n
    complex array is alive at a time, next to at most a density and the
    sampler's CDF.  density_before is kept only to be dumped, and a batch
    only when its events CSV is written; the estimator consumes the others.
    """
    kit = _kit_from(scenario)
    jitter_sigma = scenario["jitter_sigma_ps"]
    jitter_var = _jitter_var(scenario)
    sampler = scenario.get("sampler")
    n_events = sampler["n_events"] if sampler is not None else 0
    kind = next(iter(scenario["state"]))
    source, cov0 = _build_state(scenario["state"], base_dir, n_events)
    write_events = sampler is not None and scenario["outputs"]["events_csv"]
    estimates: dict = {}
    batches: dict = {}  # only the batches whose events CSV is written

    def sample(label: str, draw, *args, **kwargs) -> None:
        """Draw one arm's batch ("before", "plus" or "minus") by draw(*args, n_events, seed, **kwargs); estimate it."""
        batch = draw(*args, n_events, sp.derive_seed(sampler["seed"], label), **kwargs)
        if write_events:
            batches[label] = batch
        else:
            batch = spc._Owned(batch)  # the estimator forms tau in its times
        estimates[label] = sp.estimate_tau_stats(
            batch, jitter_sigma / math.sqrt(2.0), sp.derive_seed(sampler["seed"], f"jitter-{label}")
        )

    kits = {"plus": kit, "minus": kit.swapped()}
    density_before = None  # kept only for density_before.bin
    if kind == "biphoton":
        dump = scenario["outputs"]["density_binary"]
        if sampler is not None or dump:
            density_before = bp.to_time_domain(spc._Owned(source))
            if sampler is not None:
                sample("before", sp.sample_biphoton, density_before)
            if not dump:
                density_before = None
            cfg = scenario["state"]["biphoton"]
            source = bp.build_pdc_amplitude(source.grid, cfg["pump_sigma_rad_ps"], cfg["pm_sigma_rad_ps"])
        psi = bp.apply_dispersion_phase(spc._Owned(source), kit)
        # build_pdc_amplitude gives psi == psi.T bit for bit, so the swapped kit would disperse
        # it into the plus amplitude exchanged: the minus arm is the plus arm with t1 <-> t2.
        arms = dict(zip(("plus", "minus"), bp._arm_moments(psi)))
        for label, arm_kit in kits.items():
            _require_one_route(label, arms[label], shear_covariance(cov0, arm_kit))
        if sampler is not None:
            density = bp.to_time_domain(spc._Owned(psi))
            sample("plus", sp.sample_biphoton, density)
            sample("minus", sp.sample_biphoton, bp._exchanged(density))
            del density
    else:
        arms = {label: shear_covariance(cov0, arm_kit) for label, arm_kit in kits.items()}
        if sampler is not None:
            sample("before", sp.sample_tau_density, source.profile, source=f"stationary-{source.regime}")
            for label, arm_kit in kits.items():
                sample(label, sp.sample_stationary_sheared, source, arm_kit)
    record = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "scenario": scenario,
        "scenario_hash": scenario_hash(scenario),
        "state_kind": kind,
        "covariance_before": _fields(cov0),
        "covariance_after_plus": _fields(arms["plus"]),
        "covariance_after_minus": _fields(arms["minus"]),
        "separability": _fields(separability_check(cov0)),
        "witness": _witness(evaluate_witness, cov0, kit),
    }
    if kind == "biphoton":
        symmetrized = 0.5 * (arms["plus"].var_tau + arms["minus"].var_tau)
        record["fft"] = {"symmetrized_var_tau_ps2": symmetrized}
    if kind == "stationary":
        profile = source.profile
        record["windowed"] = {
            **_fields(profile.windowed),
            "background": profile.background,
            "regime": source.regime,
        }
    if jitter_var > 0.0:
        record["jitter"] = {
            "sigma_ps": jitter_sigma,
            "var_ps2": jitter_var,
            "feasibility": _fields(jitter_feasibility(cov0, kit, jitter_var)),
        }
        record["witness_observed"] = _witness(evaluate_witness, apply_jitter(cov0, jitter_var), kit)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: dict = {"runrecord": "runrecord.json"}

    if sampler is not None:
        sampling: dict = {
            "n_events": sampler["n_events"],
            "seed": sampler["seed"],
            "estimates": {label: _fields(s) for label, s in estimates.items()},
            "empirical_witness": _witness(
                sp.empirical_witness, estimates["before"], estimates["plus"], estimates["minus"], kit
            ),
        }
        if write_events:
            events = {label: f"events_{label}.csv" for label in batches}
            for label, batch in batches.items():
                sp.events_to_csv(batch, out_dir / events[label])
            sampling["events"] = outputs["events"] = events
        record["sampling"] = sampling

    if kind == "stationary" and scenario["outputs"]["tau_profile_csv"]:
        st.tau_density_to_csv(source.profile, out_dir / "tau_profile.csv")
        outputs["tau_profile"] = "tau_profile.csv"
    if density_before is not None:
        bp.density_to_binary(density_before, out_dir / "density_before.bin")
        outputs["density_before"] = "density_before.bin"

    record["outputs"] = outputs
    with open(out_dir / "runrecord.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_plain(record), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return record


def _plain(obj):
    """Recursively convert to the pure Python types of strict JSON.

    Numpy scalars become Python ones.  A non-finite float (such as the
    significance of a zero-stderr margin) becomes null, and its dict gains
    "<key>_reason" naming the value, so every record and error line parses
    without Infinity or NaN.
    """
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out[k] = _plain(v)
            if out[k] is None and v is not None:
                out[f"{k}_reason"] = f"not finite: {float(v)!r}"
        return out
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _resolve_numeric_path(scenario: dict, dotted: str):
    node = scenario
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            raise ScenarioError(f"unknown parameter path {dotted!r}")
        parent, node = node, node[key]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ScenarioError(f"parameter path {dotted!r} does not address a numeric field")
    return parent, key


def scan_scenario(scenario: dict, param: str, values, base_dir: Path = Path(".")) -> list[dict]:
    """Witness quantities per swept value; fails before any output on a bad point.

    Every variant is validated before any state is built.  The source state
    does not depend on the kit or the jitter, so its cov0 is built once per
    distinct normalized state and each row is apply_jitter plus
    evaluate_witness, the same algebra that gives `run` its witness (or
    witness_observed).  No dispersed amplitude is built, so a kit whose
    dispersed marginal would wrap or alias on the grid (which `run`
    rejects) still gets its closed-form row.

    lhs/rhs/margin and the product refer to the jitter-observed covariance,
    so jitter sweeps show the feasibility degradation directly.
    """
    _resolve_numeric_path(scenario, param)
    variants = []
    for value in values:
        variant = copy.deepcopy(scenario)
        node, leaf = _resolve_numeric_path(variant, param)
        node[leaf] = float(value)  # normalize_scenario turns it back into an int for integer fields
        variants.append(normalize_scenario(variant))
    cov0_by_state: dict = {}
    rows = []
    for value, variant in zip(values, variants):
        key = canonical_json(variant["state"])
        if key not in cov0_by_state:
            _, cov0_by_state[key] = _build_state(variant["state"], base_dir, 0)
        cov_obs = apply_jitter(cov0_by_state[key], _jitter_var(variant))
        report = evaluate_witness(cov_obs, _kit_from(variant))
        rows.append({"value": float(value), **_fields(report)})
    return rows


_SCAN_COLUMNS = ("value", "lhs_ps2", "rhs_ps2", "margin_ps2", "product")


def write_scan_csv(rows: list[dict], path) -> None:
    columns = [np.array([row[key] for row in rows], dtype=np.float64) for key in _SCAN_COLUMNS]
    spc._write_table(path, (",".join(_SCAN_COLUMNS),), columns)


# ---------------------------------------------------------------------------
# Rendering: hand-rolled SVG so output is deterministic byte for byte.

_WIDTH, _MARGIN = 640, 70  # px: the width of either plot, and the inset of its frame
_CELLS = 128  # heat-map cells along each axis of the t1/t2 plot
_TAU_BINS = 64
# A title's markup characters as entities, and the code points XML 1.0 forbids as U+FFFD.
_TITLE_XML = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;"} | dict.fromkeys([*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF], "\ufffd"))


def _bin_edges(lo: float, hi: float, bins: int, what: str) -> np.ndarray:
    """np.linspace(lo, hi, bins + 1), or ValueError unless its bins have a finite, normal width and increase.

    Every plot's span is checked here, on Python floats, whose arithmetic never warns.
    """
    width = (hi - lo) / bins
    if math.isfinite(width) and width >= sys.float_info.min:
        edges = np.linspace(lo, hi, bins + 1)
        if (edges[1:] > edges[:-1]).all():
            return edges
    raise ValueError(f"{what} from {lo!r} to {hi!r} cannot be cut into {bins} bins of equal width")


def _scatter_edges(batch: sp.EventBatch) -> np.ndarray:
    """The cell edges of either axis of the t1/t2 plot: the batch window, or the data range, padded by 5%."""
    if batch.window is not None:
        lo, hi = batch.window
    else:
        lo = float(min(batch.t1.min(), batch.t2.min()))
        hi = float(max(batch.t1.max(), batch.t2.max()))
    pad = (hi - lo) * 0.05 if lo != hi else (0.5 if lo == 0.0 else abs(lo) * 0.1)
    return _bin_edges(lo - pad, hi + pad, _CELLS, "the t1/t2 axes")


def _tau_edges(tau: np.ndarray) -> np.ndarray:
    """The bar edges of the tau histogram: np.histogram's, over the range of tau (padded by 0.5 if it is one point)."""
    lo, hi = float(tau.min()), float(tau.max())
    pad = 0.5 if lo == hi else 0.0
    return _bin_edges(lo - pad, hi + pad, _TAU_BINS, "tau")


def _write_binned_svg(path, height, title, lo, hi, counts, rect, columns, texts) -> None:
    """Write a plot _WIDTH px wide: its frame, one `rect % values` per non-empty bin of counts, then its labels.

    The rects come in bin order.  Each of the columns broadcasts to counts'
    shape and gives one value of every rect; one % of the repeated template
    formats each value as a per-bin % would.  Three ticks label the x axis
    from lo to hi, and the texts follow them.
    """
    full = counts > 0
    values = np.column_stack([np.broadcast_to(column, counts.shape)[full] for column in columns])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" viewBox="0 0 {_WIDTH} {height}">\n'
        f"<title>{title.translate(_TITLE_XML)}</title>\n"
        f'<rect x="0" y="0" width="{_WIDTH}" height="{height}" fill="white"/>\n'
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH - 2 * _MARGIN}" height="{height - 2 * _MARGIN}" '
        'fill="none" stroke="black" stroke-width="1"/>\n',
        rect * len(values) % tuple(values.ravel().tolist()),
    ]
    for frac in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{_MARGIN + frac * (_WIDTH - 2 * _MARGIN):.1f}" y="{height - _MARGIN + 24}" font-size="13" '
            f'text-anchor="middle">{lo + frac * (hi - lo):.6g}</text>\n'
        )
    parts += texts
    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(parts))


def render_scatter(batch: sp.EventBatch, path, edges: np.ndarray) -> None:
    """The (t1, t2) pairs as a heat map, edges on both axes, each non-empty cell shaded by its count over the peak's."""
    span = _WIDTH - 2 * _MARGIN
    lo, hi = float(edges[0]), float(edges[-1])
    counts = np.histogram2d(batch.t1, batch.t2, bins=(edges, edges))[0]
    peak = max(int(counts.max()), 1)
    cell = span / _CELLS
    # The left edge of column i; measured up from the bottom, the same offset places row j.
    left = _MARGIN + (edges[:-1] - lo) * (span / (hi - lo))
    texts = [
        f'<text x="{_WIDTH / 2:.1f}" y="{_WIDTH - 18}" font-size="15" text-anchor="middle">t1 (ps)</text>\n',
        f'<text x="20" y="{_WIDTH / 2:.1f}" font-size="15" text-anchor="middle" '
        f'transform="rotate(-90 20 {_WIDTH / 2:.1f})">t2 (ps)</text>\n',
        *(
            f'<text x="{_MARGIN - 8}" y="{_WIDTH - _MARGIN - frac * span:.1f}" font-size="13" '
            f'text-anchor="end">{lo + frac * (hi - lo):.6g}</text>\n'
            for frac in (0.0, 0.5, 1.0)
        ),
        f'<text x="{_MARGIN}" y="{_MARGIN - 10}" font-size="13">peak cell: {peak} events</text>\n',
    ]
    rect = f'<rect x="%.2f" y="%.2f" width="{cell:.2f}" height="{cell:.2f}" fill="#1f77b4" fill-opacity="%.3g"/>\n'
    columns = (left[:, None], (_WIDTH - cell - left)[None, :], counts / peak)
    _write_binned_svg(path, _WIDTH, f"detection times: {batch.source}", lo, hi, counts, rect, columns, texts)


def render_tau_hist(batch: sp.EventBatch, path, edges: np.ndarray) -> None:
    """The tau = t1 - t2 of the pairs as a histogram on the bar edges, each bar as tall as its count over the peak's."""
    height = 420
    lo, hi = edges[0], edges[-1]
    counts = np.histogram(batch.tau, bins=_TAU_BINS, range=(lo, hi))[0]  # on these same edges
    peak = max(int(counts.max()), 1)
    x = _MARGIN + (edges - lo) / (hi - lo) * (_WIDTH - 2 * _MARGIN)
    bar = counts / peak * (height - 2 * _MARGIN)
    texts = [
        f'<text x="{_WIDTH / 2:.1f}" y="{height - 18}" font-size="15" text-anchor="middle">tau = t1 - t2 (ps)</text>\n',
        f'<text x="{_MARGIN}" y="{_MARGIN - 10}" font-size="13">peak bin: {peak} events</text>\n',
    ]
    rect = '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#ff7f0e"/>\n'
    columns = (x[:-1], height - _MARGIN - bar, x[1:] - x[:-1], bar)
    _write_binned_svg(path, height, f"tau histogram: {batch.source}", lo, hi, counts, rect, columns, texts)


def render_record(record_path, out_dir=None) -> list[Path]:
    record_path = Path(record_path)
    record = _read_json(record_path)
    sampling = record.get("sampling") if isinstance(record, dict) else None
    events = sampling.get("events") if isinstance(sampling, dict) else None
    before = events.get("before") if isinstance(events, dict) else None
    if not isinstance(before, str):
        raise ScenarioError(f"{record_path} contains no sampled events to render")
    events_path = record_path.parent / before
    if not events_path.exists():
        raise ScenarioError(f"events file {events_path} is missing")
    batch = sp.events_from_csv(events_path)
    try:  # both plots' spans, before any file is written
        scatter_edges = _scatter_edges(batch)
        tau_edges = _tau_edges(batch.tau)
    except ValueError as err:
        raise ValueError(f"{events_path}: {err}") from None
    out_dir = Path(out_dir) if out_dir is not None else record_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    scatter = out_dir / "scatter.svg"
    hist = out_dir / "tau_hist.svg"
    render_scatter(batch, scatter, scatter_edges)
    render_tau_hist(batch, hist, tau_edges)
    return [scatter, hist]


# ---------------------------------------------------------------------------
# Entry points.

def _out_dir(args, scenario: dict) -> Path:
    """--out, then the scenario's outputs.dir, then NLDC_OUT_DIR, then ./nldc_out."""
    if args.out:
        return Path(args.out)
    return Path(scenario["outputs"].get("dir", os.environ.get(ENV_OUT_DIR, "nldc_out")))


def _emit_error(kind: str, err: Exception) -> None:
    """One JSON line on stderr, with the ratio, limit and worst omega an error carries."""
    payload = {"error": kind, "message": str(err)}
    for key in ("ratio", "limit", "worst_omega"):
        value = getattr(err, key, None)
        if value is not None:
            payload[_UNIT_KEYS.get(key, key)] = float(value)
    sys.stderr.write(json.dumps(_plain(payload), allow_nan=False) + "\n")


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    out_dir = _out_dir(args, scenario)
    record = run_scenario(scenario, out_dir, base_dir=Path(args.scenario).parent)
    witness = record["witness"]
    if witness.get("evaluable"):
        line = (
            f"witness: lhs={witness['lhs_ps2']:.6g} ps^2 rhs={witness['rhs_ps2']:.6g} ps^2 "
            f"margin={witness['margin_ps2']:.6g} ps^2 violated={witness['violated']}"
        )
    else:
        line = f"witness: non-evaluable ({witness['reason']})"
    print(line)
    print(f"runrecord: {out_dir / 'runrecord.json'}")
    return 0


def _cmd_scan(args) -> int:
    scenario = load_scenario(args.scenario)
    values = []
    for entry in filter(None, (v.strip() for v in args.values.split(","))):
        try:
            value = float(entry)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ScenarioError(f"--values entry {entry!r} is not a finite number")
        values.append(value)
    if not values:
        raise ScenarioError("scan needs at least one value")
    rows = scan_scenario(scenario, args.param, values, base_dir=Path(args.scenario).parent)
    out_dir = _out_dir(args, scenario)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"scan_{args.param.replace('.', '_')}.csv"
    write_scan_csv(rows, path)
    print(f"scan: {path}")
    return 0


def _cmd_render(args) -> int:
    paths = render_record(args.runrecord, args.out)
    for p in paths:
        print(f"rendered: {p}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error too ends in one error line and exit 2, as in `main`
        raise ScenarioError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _Parser(
        prog="nldc",
        description="Twin-beam dispersion-cancellation witness toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write a RunRecord")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--out", help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_scan = sub.add_parser("scan", help="sweep one numeric scenario field")
    p_scan.add_argument("scenario", help="scenario JSON file")
    p_scan.add_argument("--param", required=True, help="dotted path, e.g. kit.beta_L_ps2")
    p_scan.add_argument("--values", required=True, help="comma-separated numbers")
    p_scan.add_argument("--out", help="output directory")
    p_scan.set_defaults(func=_cmd_scan)

    p_render = sub.add_parser("render", help="render SVG plots from a sampled RunRecord")
    p_render.add_argument("runrecord", help="runrecord.json produced by run")
    p_render.add_argument("--out", help="output directory (default: next to the record)")
    p_render.set_defaults(func=_cmd_render)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except PreconditionError as err:
        _emit_error(type(err).__name__, err)
        return 3
    except (ScenarioError, ValueError, OSError) as err:
        _emit_error(type(err).__name__, err)
        return 2


def entry() -> None:
    sys.exit(main())
