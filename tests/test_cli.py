"""Command line behaviour: scenario validation, run records, scans, SVG.

Most tests drive cli.main(argv) in process and parse the JSON artifacts.
One test covers the entry point wiring without needing an install: it
checks that `[project.scripts]` in pyproject.toml maps `nldc` to
`nldc.cli:entry`, then runs that callable and `python -m nldc` in
subprocesses with the checkout's `src` on PYTHONPATH, and also the
installed `nldc` script when one is on PATH.  Exit code contract: 0
success, 2 scenario/validation problems, 3 numerical precondition
failures.
"""

import ast
import copy
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tomllib
import types
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldc import _schema, biphoton, cli, sampler, stationary
from nldc.moments import DispersionKit
from nldc.spectral import (
    _CHUNK_ROWS,
    FrequencyGrid,
    cross_to_csv,
    gaussian_cross,
    gaussian_spectrum,
    spectrum_to_csv,
)
from oracles import density_from_binary, random_kits, tau_marginal


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=1))
    return path


def _covariance_scenario(**overrides):
    scenario = {
        "state": {
            "covariance": {
                "var_tau_ps2": 0.25,
                "var_omega_rad2_ps2": 16.0,
                "cov_tau_omega": 0.3,
                "mean_tau_ps": 0.1,
                "mean_omega_rad_ps": -0.2,
            }
        },
        "kit": {"beta_L_ps2": 0.5, "delay_1_ps": 0.25, "delay_2_ps": -0.75},
    }
    scenario.update(overrides)
    return scenario


def _biphoton_scenario(n_events=2000, seed=7):
    return {
        "state": {
            "biphoton": {
                "pump_sigma_rad_ps": 1e-4,
                "pm_sigma_rad_ps": 10.0,
                "grid": {"n": 256, "domega_rad_ps": 0.25},
            }
        },
        "kit": {"beta_L_ps2": 32.0},
        "sampler": {"n_events": n_events, "seed": seed},
    }


def _stationary_scenario(**stationary):
    """A stationary scenario, its state's fields overridden by stationary."""
    return {
        "state": {
            "stationary": {
                "grid": {"n": 256, "domega_rad_ps": 0.25},
                "s1": {"gaussian": {"peak": 1.0, "sigma_rad_ps": 1.0}},
                "s2": {"gaussian": {"peak": 1.0, "sigma_rad_ps": 1.0}},
                "cross": "classical-extremal",
                "window_T_ps": 14.0,
                **stationary,
            }
        },
        "kit": {"beta_L_ps2": 0.8},
    }


def _run(tmp_path, scenario, name="scenario.json", out="out"):
    path = _write(tmp_path, name, scenario)
    out_dir = tmp_path / out
    rc = cli.main(["run", str(path), "--out", str(out_dir)])
    return rc, out_dir


def _no_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


def _strict_json(text):
    """json.loads that fails on Infinity and NaN, as strict parsers do."""
    return json.loads(text, parse_constant=_no_constant)


def _record(out_dir):
    return _strict_json((out_dir / "runrecord.json").read_text())


def _stderr_error(capsys):
    err = capsys.readouterr().err.strip()
    return _strict_json(err.splitlines()[-1])


# ---------------------------------------------------------------------------
# Validation failures.

def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert _stderr_error(capsys)["error"] == "ScenarioError"


def test_unknown_key_exits_2(tmp_path, capsys):
    scenario = _covariance_scenario()
    scenario["surprise"] = 1
    rc, _ = _run(tmp_path, scenario)
    assert rc == 2
    assert "surprise" in _stderr_error(capsys)["message"]


def test_missing_state_exits_2(tmp_path, capsys):
    rc, _ = _run(tmp_path, {"kit": {"beta_L_ps2": 1.0}})
    assert rc == 2
    assert _stderr_error(capsys)["error"] == "ScenarioError"


def test_sampler_with_bare_covariance_exits_2(tmp_path, capsys):
    scenario = _covariance_scenario(sampler={"n_events": 100, "seed": 1})
    rc, _ = _run(tmp_path, scenario)
    assert rc == 2
    assert "covariance" in _stderr_error(capsys)["message"]


@pytest.mark.parametrize("spec", ["s1", "cross"])
@pytest.mark.parametrize("comment", ["# n=8", "# n=8 junk"], ids=["no_domega", "junk"])
def test_spectrum_csv_with_a_malformed_grid_line_exits_2(tmp_path, capsys, spec, comment):
    (tmp_path / "bad.csv").write_text(f"{comment}\nomega_rad_ps,value\n0,1\n")
    scenario = _stationary_scenario()
    scenario["state"]["stationary"][spec] = {"csv": "bad.csv"}
    rc, _ = _run(tmp_path, scenario)
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = _strict_json(lines[0])
    assert err["error"] == "ValueError" and str(tmp_path / "bad.csv") in err["message"]
    assert "'# n=<int> domega_rad_ps=<float>'" in err["message"]


@pytest.mark.parametrize("spec", ["s1", "cross"])
@pytest.mark.parametrize("defect", ["empty_body", "wrong_header"])
def test_spectrum_csv_with_a_bad_body_exits_2(tmp_path, capsys, spec, defect):
    grid = "# n=256 domega_rad_ps=0.25\n"
    header = {"s1": "omega_rad_ps,value", "cross": "omega_rad_ps,re,im"}[spec]
    if defect == "empty_body":
        text = f"{grid}{header}\n"
    else:
        ncols = header.count(",") + 1
        rows = "".join(f"{(k - 128) * 0.25!r}{',0' * (ncols - 1)}\n" for k in range(256))
        text = f"{grid}omega,{header.split(',', 1)[1]}\n{rows}"
    (tmp_path / "bad.csv").write_text(text)
    scenario = _stationary_scenario()
    scenario["state"]["stationary"][spec] = {"csv": "bad.csv"}
    rc, _ = _run(tmp_path, scenario)
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1  # the error line alone, no numpy warning
    err = _strict_json(lines[0])
    assert err["error"] == "ValueError" and str(tmp_path / "bad.csv") in err["message"]
    assert ("found shape (0, 1)" if defect == "empty_body" else repr(header)) in err["message"]


@pytest.mark.parametrize(
    "first_line, body_rows, message",
    [
        # parses once its first two characters are dropped, but is not "# n=..."
        ("% n=256 domega_rad_ps=0.25", 256, "the first line must read '# n=<int> domega_rad_ps=<float>'"),
        ("# n=256 domega_rad_ps=0.25", 255, "expected 256 rows, got 255"),
    ],
    ids=["foreign_comment", "short_body"],
)
def test_spectrum_csv_off_its_grid_line_exits_2_naming_the_file(tmp_path, capsys, first_line, body_rows, message):
    rows = "".join(f"{(k - 128) * 0.25!r},1\n" for k in range(body_rows))
    (tmp_path / "bad.csv").write_text(f"{first_line}\nomega_rad_ps,value\n{rows}")
    scenario = _stationary_scenario(s1={"csv": "bad.csv"})
    rc, _ = _run(tmp_path, scenario)
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = _strict_json(lines[0])
    assert err["error"] == "ValueError"
    assert str(tmp_path / "bad.csv") in err["message"] and message in err["message"]


def _quantum_cross(peak=1.2):
    return {"gaussian": {"peak": peak, "sigma_rad_ps": 1.0}}


def test_spectra_read_from_csv_run_as_their_gaussian_scenario(tmp_path):
    grid = FrequencyGrid(n=256, domega=0.25)
    spectrum_to_csv(gaussian_spectrum(grid, 1.0, 1.0), tmp_path / "s.csv")
    cross_to_csv(gaussian_cross(grid, 1.2, 1.0), tmp_path / "x.csv")
    from_csv = _stationary_scenario(s1={"csv": "s.csv"}, s2={"csv": "s.csv"}, cross={"csv": "x.csv"})
    rc, csv_out = _run(tmp_path, from_csv, name="csv.json", out="csv")
    assert rc == 0
    rc, gaussian_out = _run(tmp_path, _stationary_scenario(cross=_quantum_cross()), out="gaussian")
    assert rc == 0
    csv_record, gaussian_record = _record(csv_out), _record(gaussian_out)
    assert csv_record["windowed"]["regime"] == "quantum"
    for key in ("covariance_before", "covariance_after_plus", "covariance_after_minus", "windowed", "witness"):
        assert csv_record[key] == gaussian_record[key]


@pytest.mark.parametrize("spec, kind", [("s2", "spectrum"), ("cross", "cross")])
def test_spectrum_csv_on_another_grid_exits_2(tmp_path, capsys, spec, kind):
    grid = FrequencyGrid(n=128, domega=0.25)  # the scenario's grid has n = 256
    spectrum_to_csv(gaussian_spectrum(grid, 1.0, 1.0), tmp_path / "s.csv")
    cross_to_csv(gaussian_cross(grid, 1.0, 1.0), tmp_path / "x.csv")
    scenario = _stationary_scenario(**{spec: {"csv": "s.csv" if spec == "s2" else "x.csv"}})
    rc, _ = _run(tmp_path, scenario)
    assert rc == 2
    err = _stderr_error(capsys)
    assert err["error"] == "ScenarioError"
    assert f"{kind} CSV" in err["message"] and "does not match the scenario grid" in err["message"]


def test_unresolvable_grid_exits_3(tmp_path, capsys):
    scenario = _biphoton_scenario()
    del scenario["sampler"]
    # 0.5 rad/ps is neither resolved by 0.25 spacing nor narrow enough to snap.
    scenario["state"]["biphoton"]["pump_sigma_rad_ps"] = 0.5
    rc, _ = _run(tmp_path, scenario)
    assert rc == 3
    err = _stderr_error(capsys)
    assert err["error"] == "GridTooCoarseError"
    # domega = 0.25 must stay below a/3
    assert err["ratio"] == pytest.approx(1.5, rel=1e-12)
    assert err["limit"] == pytest.approx(0.5 / 3.0, rel=1e-12)


def _edge_ratio(a, b, n, domega, beta_L):
    """Edge mass over its limit for the dispersed tau marginal, by the 2D route."""
    grid = FrequencyGrid(n=n, domega=domega)
    psi = biphoton.apply_dispersion_phase(
        biphoton.build_pdc_amplitude(grid, a, b), DispersionKit(beta_L=beta_L, delay_1=0.3)
    )
    _, q = tau_marginal(biphoton.to_time_domain(psi))
    return (q[0] + q[1] + q[-2] + q[-1]) * grid.dt / 1e-6


def _branch_ratio(a, b, n, domega):
    """Mass share at |omega1 + omega2| >= n*domega/2, over its limit."""
    psi = biphoton.build_pdc_amplitude(FrequencyGrid(n=n, domega=domega), a, b)
    masses = np.abs(psi.values) ** 2
    index_sum = np.arange(n)[:, None] + np.arange(n)[None, :] - n
    return masses[np.abs(index_sum) >= n // 2].sum() / masses.sum() / 1e-9


@pytest.mark.parametrize(
    "a, b, n, domega, beta_L, error, ratio, limit",
    [
        # 3*b = 33 rad/ps against a half span of 32
        (1e-4, 11.0, 256, 0.25, 0.0, "GridTooNarrowError", 33.0 / 32.0, 32.0),
        # Var(Omega) = 10.6^2 reaches the second sum-frequency branch
        (10.6, 4.0, 64, 1.0, 0.0, "GridTooNarrowError", "branch", 1e-9),
        # beta_L = 6 shears the dispersed tau marginal off the grid
        (0.5, 10.0, 512, 0.125, 6.0, "GridTooCoarseError", "edge", 1e-6),
    ],
)
def test_precondition_error_json_carries_ratio_and_limit(
    tmp_path, capsys, a, b, n, domega, beta_L, error, ratio, limit
):
    rc, _ = _run(tmp_path, _resolved_biphoton(a=a, b=b, n=n, domega=domega, beta_L=beta_L))
    assert rc == 3
    err = _stderr_error(capsys)
    if ratio == "branch":
        ratio = _branch_ratio(a, b, n, domega)
    elif ratio == "edge":
        ratio = _edge_ratio(a, b, n, domega, beta_L)
    assert err["error"] == error
    assert ratio > 1.0
    assert err["ratio"] == pytest.approx(ratio, rel=1e-6)
    assert err["limit"] == pytest.approx(limit, rel=1e-12)


def test_stationary_spectra_cut_by_the_grid_exit_3(tmp_path, capsys):
    # Gaussian spectra of sigma 1 rad/ps on a grid spanning +-0.32 rad/ps:
    # without the span gate the run exits 0 and records var_omega 0.0673
    # rad^2/ps^2, where the spectra's own is 2.
    scenario = _stationary_scenario(grid={"n": 64, "domega_rad_ps": 0.01}, window_T_ps=20_000.0)
    scenario["kit"] = {"beta_L_ps2": 1.0}
    rc, out_dir = _run(tmp_path, scenario)
    assert rc == 3
    err = _stderr_error(capsys)
    assert err["error"] == "GridTooNarrowError"
    assert err["ratio"] == pytest.approx(3.0 / 0.32, rel=1e-12)
    assert err["limit"] == pytest.approx(0.32, rel=1e-12)
    assert not (out_dir / "runrecord.json").exists()  # no regime recorded


@pytest.mark.parametrize(
    "a, b, domega, kit",
    [
        (2.7807279988698346, 10.814759833293085, 0.4163865323905513, {"beta_L_ps2": 6.066376287275483}),
        (1.5082350005210814, 17.85729544585427, 0.43498809099439906,
         {"beta_L_ps2": -8.271627503721517, "delay_2_ps": -4.227582384191516}),
    ],
)
def test_a_biphoton_run_whose_dispersed_lines_alias_exits_3(tmp_path, capsys, a, b, domega, kit):
    # Each line's tau profile is about 1.5 cells wide, and dispersion shifts
    # it by 2*beta_L*Omega modulo the time span: the lines wrap into a comb
    # of spikes that misses the four edge cells the wrap check reads.  The
    # grid's dispersed var_tau is then about 1.5% of the moment algebra's.
    scenario = _resolved_biphoton(a=a, b=b, n=256, domega=domega)
    scenario["kit"] = kit
    scenario["sampler"] = {"n_events": 20000, "seed": 1}
    rc, out_dir = _run(tmp_path, scenario)
    assert rc == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = _strict_json(lines[0])
    assert err["error"] == "GridTooCoarseError" and err["limit"] == 1e-3
    psi = biphoton.build_pdc_amplitude(FrequencyGrid(n=256, domega=domega), a, b)
    kit = cli._kit_from(cli.normalize_scenario(scenario))
    algebra = cli.shear_covariance(biphoton.amplitude_moments(psi), kit).var_tau
    grid = biphoton.amplitude_moments(biphoton.apply_dispersion_phase(psi, kit)).var_tau
    assert err["ratio"] == pytest.approx(abs(grid - algebra) / algebra / 1e-3, rel=1e-9)
    assert err["ratio"] > 900
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "stationary, error, ratio, limit",
    [
        # The profile's RMS width is 1/sqrt(2) ps, so T = 2 ps covers 6x it 2.12 times too short.
        ({"window_T_ps": 2.0}, "WindowTooSmallError", 6.0 * math.sqrt(0.5) / 2.0, 2.0),
        # |x|^2 / ((1 + S1) S2) = 4 e^(-w^2/2) / (1 + e^(-w^2/2)) is worst at w = 0, where
        # |x(0)|^2 = 4 is twice the quantum bound (1 + S1(0)) * S2(0) = 2.
        (
            {"cross": {"gaussian": {"peak": 2.0, "sigma_rad_ps": 1.0}}},
            "AdmissibilityError",
            2.0 / (1.0 + 1e-9),
            1.0 + 1e-9,
        ),
    ],
)
def test_stationary_precondition_errors_carry_ratio_and_limit(tmp_path, capsys, stationary, error, ratio, limit):
    scenario = _stationary_scenario()
    scenario["state"]["stationary"].update(stationary)
    rc, _ = _run(tmp_path, scenario)
    assert rc == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = _strict_json(lines[0])
    assert err["error"] == error
    assert err["ratio"] >= 1.0
    assert err["ratio"] == pytest.approx(ratio, rel=1e-9)
    assert err["limit"] == pytest.approx(limit, rel=1e-15)
    # Only an admissibility error says where it is worst.
    assert err.get("worst_omega_rad_ps") == (0.0 if error == "AdmissibilityError" else None)


def _never_built(*args):
    raise AssertionError("a grid was built past the memory budget")


def _with_grid_n(scenario, n):
    kind = next(iter(scenario["state"]))
    scenario["state"][kind]["grid"]["n"] = n
    return scenario


@pytest.mark.parametrize(
    "scenario, cells, n_events",
    [
        (_with_grid_n(_biphoton_scenario(), 2**40), 2**80, 2000),
        (_biphoton_scenario(n_events=10**11), 256**2, 10**11),
        # 2^100 written as a float, which the schema takes as an integer
        (_with_grid_n(_biphoton_scenario(), 2.0**100), 2**200, 2000),
        (_with_grid_n(_stationary_scenario(), 2**40), 2**40, 0),
        # an estimate whose ratio to the budget is past the float range
        (_with_grid_n(_stationary_scenario(), 10**400), None, 0),
    ],
)
def test_memory_budget_exits_3_before_allocating(tmp_path, capsys, monkeypatch, workers, scenario, cells, n_events):
    monkeypatch.setattr(cli, "_build_grid", _never_built)
    workers(3)  # each worker of the block pool is charged its own buffers
    rc, out_dir = _run(tmp_path, scenario)
    assert rc == 3
    err = _stderr_error(capsys)
    assert err["error"] == "MemoryBudgetError"
    assert err["limit"] == cli.MEMORY_BUDGET_BYTES
    if cells is None:
        assert err["ratio"] is None and err["ratio_reason"] == "not finite: inf"
    else:
        peak = cli._BYTES_PER_CELL * cells + cli._BYTES_PER_EVENT * n_events + cli._BYTES_PER_WORKER * 3
        assert err["ratio"] == pytest.approx(peak / cli.MEMORY_BUDGET_BYTES, rel=1e-12)
    assert not out_dir.exists()


def test_scan_shares_the_memory_budget(tmp_path, capsys):
    # scan samples nothing, so the sampler's event count is not charged
    path = _write(tmp_path, "s.json", _biphoton_scenario(n_events=10**11))
    argv = ["scan", str(path), "--param", "state.biphoton.grid.n", "--out"]
    assert cli.main([*argv, str(tmp_path / "ok"), "--values", "256"]) == 0
    assert cli.main([*argv, str(tmp_path / "big"), "--values", "256,1099511627776"]) == 3
    err = _stderr_error(capsys)
    assert err["error"] == "MemoryBudgetError"
    assert err["ratio"] == pytest.approx(cli._BYTES_PER_CELL * 2**80 / cli.MEMORY_BUDGET_BYTES)
    assert not (tmp_path / "big").exists()


@pytest.mark.parametrize(
    "bad",
    [
        {"state": {"covariance": {"var_tau_ps2": 1.0, "var_omega_rad2_ps2": 1.0}}},
        {"state": {}, "kit": {"beta_L_ps2": 1.0}},
        {"state": {"biphoton": {"pump_sigma_rad_ps": -1.0, "pm_sigma_rad_ps": 1.0,
                                "grid": {"n": 4, "domega_rad_ps": 0.1}}},
         "kit": {"beta_L_ps2": 1.0}},
        {"state": {"stationary": {"grid": {"n": 64, "domega_rad_ps": 0.1},
                                  "s1": {"flat": {"value": 1.0}}, "s2": {"flat": {"value": 1.0}},
                                  "cross": "quantum-extremal", "window_T_ps": 5.0}},
         "kit": {"beta_L_ps2": 1.0}},
    ],
)
def test_validation_messages_match_jsonschema_validate(bad):
    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(bad, cli.SCENARIO_SCHEMA)
    with pytest.raises(cli.ScenarioError) as got:
        cli.normalize_scenario(bad)
    path = ".".join(str(p) for p in ref.value.absolute_path) or "<root>"
    assert str(got.value) == f"scenario invalid at {path}: {ref.value.message}"


# Scenarios of all three kinds that between them hold every key the schema
# names, so that each schema node is walked.
_FULL_SCENARIOS = [
    {
        **_biphoton_scenario(),
        "kit": {"beta_L_ps2": 32.0, "delay_1_ps": 0.5, "delay_2_ps": -0.5},
        "jitter_sigma_ps": 0.1,
        "outputs": {"dir": "out", "events_csv": True, "tau_profile_csv": False,
                    "density_binary": False},
    },
    {
        "state": {"stationary": {
            "grid": {"n": 256, "domega_rad_ps": 0.25},
            "s1": {"gaussian": {"peak": 1.0, "sigma_rad_ps": 1.0, "center_rad_ps": 0.5}},
            "s2": {"flat": {"value": 1.0}},
            "cross": {"csv": "cross.csv"},
            "window_T_ps": 14.0,
        }},
        "kit": {"beta_L_ps2": 0.8},
        "sampler": {"n_events": 100, "seed": 0},
    },
    _stationary_scenario(),
    _covariance_scenario(),
]
_MUTANT_KEYS = ["extra", "alpha", "n", "flat", "gaussian", "peak"]
_MUTANT_VALUES = [True, False, 256.0, 2.5, 0, -1, -0.5, "x", {}, "classical-extremal"]


def _objects(node):
    """node and every object nested in it."""
    yield node
    for value in node.values():
        if isinstance(value, dict):
            yield from _objects(value)


@st.composite
def _mutated_scenarios(draw):
    """A full scenario with one to three keys replaced, deleted or added."""
    doc = copy.deepcopy(draw(st.sampled_from(_FULL_SCENARIOS)))
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(list(_objects(doc))))
        key = draw(st.sampled_from(sorted(node) + _MUTANT_KEYS))
        if key in node and draw(st.booleans()):
            del node[key]
        else:
            node[key] = copy.deepcopy(draw(st.sampled_from(_MUTANT_VALUES)))
    return doc


def _reference_error(validator, instance):
    """What jsonschema.validate reports, short of its per-call schema check."""
    ref = jsonschema.exceptions.best_match(validator.iter_errors(instance))
    return None if ref is None else (tuple(ref.absolute_path), ref.message)


_ORACLE = jsonschema.Draft202012Validator(cli.SCENARIO_SCHEMA)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_mutated_scenarios())
def test_validation_matches_jsonschema_on_mutated_scenarios(doc):
    assert _schema.best_error(doc, cli.SCENARIO_SCHEMA) == _reference_error(_ORACLE, doc)


def _schema_nodes(schema):
    yield schema
    for sub in [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]:
        yield from _schema_nodes(sub)


def test_full_scenarios_are_valid_and_walk_every_schema_node(monkeypatch):
    walked = set()
    walk = _schema._walk

    def spy(instance, schema, path, out):
        walked.add(id(schema))
        walk(instance, schema, path, out)

    monkeypatch.setattr(_schema, "_walk", spy)
    for doc in _FULL_SCENARIOS:
        assert _schema.best_error(doc, cli.SCENARIO_SCHEMA) is None
    assert {id(node) for node in _schema_nodes(cli.SCENARIO_SCHEMA)} <= walked


def test_scenario_schema_is_valid_draft_2020_12():
    jsonschema.Draft202012Validator.check_schema(cli.SCENARIO_SCHEMA)
    assert jsonschema.validators.validator_for(cli.SCENARIO_SCHEMA) is jsonschema.Draft202012Validator


@pytest.mark.parametrize(
    "schema",
    [{"maximum": 1}, {"type": "array"}, {"additionalProperties": {"type": "string"}}, {"const": 1}],
)
def test_schema_walker_rejects_what_it_does_not_implement(schema):
    with pytest.raises(NotImplementedError):
        _schema.best_error(1, schema)


@pytest.mark.parametrize("instance", [3, 2.5, "x"])
def test_overlapping_one_of_matches_jsonschema(instance):
    schema = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
    oracle = jsonschema.Draft202012Validator(schema)
    assert _schema.best_error(instance, schema) == _reference_error(oracle, instance)


def test_integer_fields_accept_integral_floats_only(tmp_path, capsys):
    scenario = _biphoton_scenario(n_events=200.0, seed=3.0)
    scenario["state"]["biphoton"]["grid"]["n"] = 256.0
    normalized = cli.normalize_scenario(scenario)
    assert type(normalized["state"]["biphoton"]["grid"]["n"]) is int
    assert type(normalized["sampler"]["n_events"]) is int
    assert type(normalized["sampler"]["seed"]) is int
    rc, out_dir = _run(tmp_path, scenario)
    assert rc == 0
    assert _record(out_dir)["sampling"]["estimates"]["before"]["n"] == 200

    scenario["state"]["biphoton"]["grid"]["n"] = 256.5
    rc, _ = _run(tmp_path, scenario, out="half")
    assert rc == 2
    err = _stderr_error(capsys)
    assert err["error"] == "ScenarioError" and "grid.n" in err["message"]


@pytest.mark.parametrize(
    "scenario, field",
    [
        (_covariance_scenario(jitter_sigma_ps=1e160), "jitter_sigma_ps"),
        (_covariance_scenario(kit={"beta_L_ps2": 1e160}), "beta_L"),
        (
            {
                "state": {
                    "covariance": {
                        "var_tau_ps2": 1e308,
                        "var_omega_rad2_ps2": 1e308,
                        "cov_tau_omega": 1e308,
                    }
                },
                "kit": {"beta_L_ps2": 1.0},
            },
            "cov_tau_omega",
        ),
        # JSON integers past the float range, read as the first check reads them
        (_covariance_scenario(kit={"beta_L_ps2": 10**400}), "kit.beta_L_ps2"),
        (_stationary_scenario(window_T_ps=10**400), "state.stationary.window_T_ps"),
    ],
)
def test_overflowing_inputs_exit_2_naming_the_field(tmp_path, capsys, scenario, field):
    # Each of these squares, or converts, past the float range; that used to
    # escape as an OverflowError traceback (exit 1).
    for argv in (["run"], ["scan", "--param", "kit.delay_1_ps", "--values", "0,1"]):
        path = _write(tmp_path, "big.json", scenario)
        rc = cli.main([argv[0], str(path), *argv[1:], "--out", str(tmp_path / "o")])
        assert rc == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = _strict_json(lines[0])
        assert err["error"] in ("ScenarioError", "ValueError")
        assert field in err["message"]


def test_number_fields_written_as_integers_come_out_as_floats():
    scenario = _biphoton_scenario()
    scenario["kit"] = {"beta_L_ps2": 32, "delay_1_ps": -1}
    kit = cli.normalize_scenario(scenario)["kit"]
    assert kit == {"beta_L_ps2": 32.0, "delay_1_ps": -1.0, "delay_2_ps": 0.0}
    assert all(type(value) is float for value in kit.values())


def _with_widths(pump=1e-4, pm=10.0):
    scenario = _biphoton_scenario()
    scenario["state"]["biphoton"].update(pump_sigma_rad_ps=pump, pm_sigma_rad_ps=pm)
    return scenario


@pytest.mark.parametrize(
    "scenario, rc, message",
    [
        # sigma^2 overflows: `2.0 * sigma ** 2` used to end in an OverflowError traceback (exit 1).
        (_stationary_scenario(s2={"gaussian": {"peak": 1, "sigma_rad_ps": 1e308}}), 2,
         "sigma = 1e+308 rad/ps is out of range: sigma^2 rounds to inf"),
        # 2*sigma^2 underflows to 0: numpy warned of an invalid divide before "spectrum values must be finite".
        (_stationary_scenario(s2={"gaussian": {"peak": 1, "sigma_rad_ps": 1e-300}}), 2,
         "sigma = 1e-300 rad/ps is out of range: sigma^2 rounds to 0.0"),
        # A delta-ridge width whose exponent overflows to -inf off the ridge: numpy warned of the overflow.
        (_with_widths(pump=1e-155), 0, None),
        (_with_widths(pm=1e-155), 3, "tau marginal wraps the time grid"),
        # 4*width^2 underflows to 0: numpy warned of a divide by zero before "amplitude must be finite".
        (_with_widths(pump=1e-162), 2, "pump_sigma = 1e-162 rad/ps is out of range: pump_sigma^2 rounds to 0.0"),
        (_with_widths(pm=1e-162), 2, "pm_sigma = 1e-162 rad/ps is out of range: pm_sigma^2 rounds to 0.0"),
    ],
    ids=["sigma-1e308", "sigma-1e-300", "pump-1e-155", "pm-1e-155", "pump-1e-162", "pm-1e-162"],
)
def test_extreme_gaussian_widths_exit_quietly(tmp_path, capsys, scenario, rc, message):
    # Every warning is an error under pytest, so a numpy warning fails the run itself.
    assert _run(tmp_path, scenario)[0] == rc
    lines = capsys.readouterr().err.strip().splitlines()
    if message is None:
        assert lines == []
    else:
        assert len(lines) == 1 and message in _strict_json(lines[0])["message"]


def test_overflowing_dispersion_phase_exits_2_quietly(tmp_path):
    # beta_L = 1e308 on a resolved n = 128 grid: numpy used to print four
    # RuntimeWarnings, then fail with a message that did not name beta_L.
    path = _write(tmp_path, "phase.json", _resolved_biphoton(n=128, beta_L=1e308))
    proc = _checkout_subprocess(
        [sys.executable, "-m", "nldc", "run", str(path), "--out", str(tmp_path / "o")], tmp_path
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    err = _strict_json(lines[0])
    assert err["error"] == "ValueError"
    assert "beta_L = 1e+308 ps^2" in err["message"]


def test_non_finite_error_ratio_is_null_with_a_reason(tmp_path, capsys):
    # domega = 1e-320 makes the half-span ratio overflow to inf.
    scenario = _resolved_biphoton(n=128, domega=1e-320)
    rc, _ = _run(tmp_path, scenario)
    assert rc == 3
    err = _stderr_error(capsys)
    assert err["error"] == "GridTooNarrowError"
    assert err["ratio"] is None
    assert err["ratio_reason"] == "not finite: inf"
    assert err["limit"] > 0.0


# Schema-valid grid spacings and spectra whose squares, sums or products
# pass the float range.  Each ends in one strict-JSON line (or exits 0 with
# nothing on stderr) and no numpy warning.
_SWEEP_DOMEGAS = (1e-320, 1e-300, 1e-160, 1e-150, 1e100, 1e150, 1e152, 1e153, 1e154, 1e160, 1e200, 1e308)


def _sweep_state(kind, n, domega):
    grid = {"n": n, "domega_rad_ps": domega}
    if kind == "biphoton":
        return {"biphoton": {"pump_sigma_rad_ps": 1e-3, "pm_sigma_rad_ps": 1e-3, "grid": grid}}
    return {
        "stationary": {
            "grid": grid,
            "s1": {"gaussian": {"peak": 1.0, "sigma_rad_ps": 1.0}},
            "s2": {"gaussian": {"peak": 1.0, "sigma_rad_ps": 1.0}},
            "cross": "classical-extremal",
            "window_T_ps": 20.0,
        }
    }


def _quiet_outcome(tmp_path, capsys, scenario, argv):
    """(exit code, stderr lines, warning messages, quiet) of one command.

    Quiet is no warning, and exit 0 with nothing on stderr or exit 2 or 3
    with one line, which must parse as strict JSON.
    """
    path = _write(tmp_path, "extreme.json", scenario)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([argv[0], str(path), *argv[1:], "--out", str(tmp_path / "o")])
    lines = capsys.readouterr().err.strip().splitlines()
    quiet = not caught and ((rc == 0 and not lines) or (rc in (2, 3) and len(lines) == 1))
    if quiet and lines:
        _strict_json(lines[0])
    return rc, lines, [str(w.message) for w in caught], quiet


def test_every_schema_valid_grid_spacing_ends_quietly(tmp_path, capsys):
    noisy = []
    for kind in ("biphoton", "stationary"):
        for n in (8, 64, 1024):
            for domega in _SWEEP_DOMEGAS:
                scenario = {"state": _sweep_state(kind, n, domega), "kit": {"beta_L_ps2": 1.0}}
                for argv in (["run"], ["scan", "--param", "kit.beta_L_ps2", "--values", "0,1"]):
                    rc, lines, caught, quiet = _quiet_outcome(tmp_path, capsys, scenario, argv)
                    if not quiet:
                        noisy.append((kind, n, domega, argv[0], rc, lines, caught))
    assert noisy == []


def test_frequency_and_time_spans_whose_squares_overflow_exit_2(tmp_path, capsys):
    wide = {"state": _sweep_state("biphoton", 1024, 1e152), "kit": {"beta_L_ps2": 1.0}}
    long = {"state": _sweep_state("stationary", 8, 1e-160), "kit": {"beta_L_ps2": 1.0}}
    for scenario, message in (
        (wide, "the squared frequency span (n*domega)^2 must be finite, got inf"),
        (long, "the squared time span (n*dt)^2 must be finite, got inf"),
    ):
        rc, lines, caught, quiet = _quiet_outcome(tmp_path, capsys, scenario, ["run"])
        assert (rc, quiet) == (2, True)
        assert _strict_json(lines[0])["message"] == message


def _extreme_spectra(s1, s2, cross="classical-extremal"):
    """A stationary scenario on n = 1024, domega = 0.0625, T = 20 ps."""
    return _stationary_scenario(
        grid={"n": 1024, "domega_rad_ps": 0.0625}, s1=s1, s2=s2, cross=cross, window_T_ps=20.0
    )


def _flat(value):
    return {"flat": {"value": value}}


def _peak(peak, center=0.0):
    return {"gaussian": {"peak": peak, "sigma_rad_ps": 1.0, "center_rad_ps": center}}


@pytest.mark.parametrize(
    "scenario, rc, message",
    [
        (_extreme_spectra(_flat(1e150), _flat(1e150)), 0, None),
        (_extreme_spectra(_peak(1e150), _peak(1e150)), 0, None),
        # |g|^2 overflows
        (_extreme_spectra(_flat(1e154), _flat(1e154)), 2, "signal must be finite"),
        # the signal's sum overflows
        (_extreme_spectra(_peak(1e154), _peak(1e154)), 2, "the integrated signal must be finite, got inf"),
        # S1 * S2 of the classical-extremal cross overflows
        (_extreme_spectra(_flat(1e155), _flat(1e155)), 2, "cross-spectrum values must be finite"),
        (_extreme_spectra(_flat(1e308), _flat(1e308)), 2, "cross-spectrum values must be finite"),
        (_extreme_spectra(_peak(1e155), _peak(1e155)), 2, "cross-spectrum values must be finite"),
        (_extreme_spectra(_peak(1e308), _peak(1e308)), 2, "cross-spectrum values must be finite"),
        # |x|^2 overflows in both admissibility checks: an infinite ratio
        (_extreme_spectra(_peak(1), _peak(1), _flat(1e155)), 3, "violates the quantum bound: worst ratio inf"),
        (_extreme_spectra(_peak(1), _peak(1), _flat(1e308)), 3, "violates the quantum bound: worst ratio inf"),
        # bound and |x|^2 both overflow: inf <= inf passes no cell, and inf/inf is undefined
        (_extreme_spectra(_flat(1e200), _flat(1e200), _flat(1e200)), 3, "violates the quantum bound: worst ratio nan"),
        (_extreme_spectra(_flat(1e308), _flat(1e308), _flat(1e308)), 3, "violates the quantum bound: worst ratio nan"),
        # the spectral moments of one beam overflow, then its flux
        (_extreme_spectra(_flat(1e305), _peak(1)), 2, "var_omega must be finite and >= 0, got nan"),
        (_extreme_spectra(_flat(1e308), _peak(1)), 2, "background must be finite and >= 0, got inf"),
        # (omega - center)^2 overflows: an all-zero spectrum
        (_extreme_spectra(_peak(1, 1e200), _peak(1, 1e200)), 3, "model has neither background nor signal weight"),
        (_extreme_spectra(_peak(1, 1e308), _peak(1, 1e308)), 3, "model has neither background nor signal weight"),
        (_extreme_spectra(_peak(1), _peak(1), _peak(1, -1e308)), 0, None),
    ],
    ids=[
        "flat-1e150", "peak-1e150", "flat-1e154", "peak-1e154", "flat-1e155", "flat-1e308", "peak-1e155",
        "peak-1e308", "cross-1e155", "cross-1e308", "all-1e200", "all-1e308", "s1-1e305", "s1-1e308",
        "center-1e200", "center-1e308", "cross-center-minus-1e308",
    ],
)
def test_extreme_spectrum_magnitudes_and_centres_end_quietly(tmp_path, capsys, scenario, rc, message):
    scenario["sampler"] = {"n_events": 1000, "seed": 3}
    outcome = _quiet_outcome(tmp_path, capsys, scenario, ["run"])
    assert outcome[0] == rc and outcome[3], outcome
    if message is not None:
        assert message in _strict_json(outcome[1][0])["message"]


def test_infinite_significance_is_written_as_null(tmp_path, monkeypatch):
    real = sampler.empirical_witness

    def zero_stderr(*args):
        report = real(*args)
        return sampler.EmpiricalWitnessReport(
            report.lhs, report.rhs, report.margin, 0.0, math.copysign(math.inf, report.margin),
            report.violated,
        )

    monkeypatch.setattr(sampler, "empirical_witness", zero_stderr)
    rc, out_dir = _run(tmp_path, _biphoton_scenario(n_events=200, seed=5))
    assert rc == 0
    empirical = _record(out_dir)["sampling"]["empirical_witness"]
    assert empirical["significance"] is None
    assert empirical["significance_reason"] in ("not finite: inf", "not finite: -inf")
    assert empirical["margin_stderr_ps2"] == 0.0


def test_non_standard_json_constants_in_a_scenario_exit_2(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(_covariance_scenario(jitter_sigma_ps=math.inf)))
    assert "Infinity" in path.read_text()
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = _stderr_error(capsys)
    assert err["error"] == "ScenarioError" and "Infinity" in err["message"]


def test_parseval_failure_exits_3(tmp_path, capsys, monkeypatch):
    # A broken kernel exits 3 in either transform: the 1D one behind the
    # moments of every biphoton run, and the 2D one behind the density dump.
    # One that scales every mass by 1.01^2 misses it by 0.0201; one that
    # gives NaN misses it by NaN, written as null.
    cases = [(factor, kernel, outputs) for factor in (1.01, math.nan)
             for kernel, outputs in (("_to_time_rows", {}), ("to_time_2d", {"density_binary": True}))]
    for factor, kernel, outputs in cases:
        with monkeypatch.context() as patch:
            real = getattr(biphoton, kernel)
            # to_time_2d returns a power, so it is scaled by factor^2.
            scale = factor if kernel == "_to_time_rows" else factor**2
            patch.setattr(biphoton, kernel, lambda *args, real=real, scale=scale: real(*args) * scale)
            scenario = _biphoton_scenario()
            del scenario["sampler"]
            scenario["outputs"] = outputs
            rc, _ = _run(tmp_path, scenario, out=f"{kernel}-{factor}")
        assert rc == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = _strict_json(lines[0])
        assert err["error"] == "ParsevalError"
        assert "Parseval" in err["message"]
        if math.isnan(factor):
            assert err["ratio"] is None and err["ratio_reason"] == "not finite: nan"
        else:
            assert err["ratio"] == pytest.approx((factor**2 - 1.0) / biphoton.NORM_RTOL, rel=1e-6)
        assert err["limit"] == biphoton.NORM_RTOL


@pytest.mark.parametrize("count, ratio", [(1, 2.0), (0, None)])
def test_batch_too_small_exits_3_with_its_numbers(tmp_path, capsys, monkeypatch, count, ratio):
    # The schema asks for n_events >= 2, so only a broken sampler reaches
    # the estimator's check; a batch of no events gives an infinite ratio.
    short = sampler.EventBatch(t1=np.zeros(1), t2=np.zeros(1), seed=0, source="one event")
    batch = short if count else types.SimpleNamespace(n=0)
    monkeypatch.setattr(sampler, "sample_biphoton", lambda *args: batch)
    rc, _ = _run(tmp_path, _biphoton_scenario(n_events=100))
    assert rc == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = _strict_json(lines[0])
    assert err["error"] == "BatchTooSmallError"
    assert err["ratio"] == ratio
    if ratio is None:
        assert err["ratio_reason"] == "not finite: inf"
    assert err["limit"] == 2.0


# ---------------------------------------------------------------------------
# Run records.

def _key_paths(node, prefix=""):
    """The dotted path of every leaf of a record."""
    paths = set()
    for key, value in node.items():
        if isinstance(value, dict):
            paths |= _key_paths(value, f"{prefix}{key}.")
        else:
            paths.add(prefix + key)
    return paths


def _paths(spec):
    """The paths of "block: key key ..." lines, each block.key; a line with no block lists top keys."""
    paths = set()
    for line in spec.strip().splitlines():
        block, _, keys = line.rpartition(":")
        paths |= {f"{block}.{key}" if block else key for key in keys.split()}
    return paths


_RECORD_PATHS = """
: created_utc scenario_hash schema_version state_kind tool_version
scenario: jitter_sigma_ps
scenario.kit: beta_L_ps2 delay_1_ps delay_2_ps
scenario.outputs: density_binary events_csv tau_profile_csv
covariance_before: cov_tau_omega mean_omega_rad_ps mean_tau_ps var_omega_rad2_ps2 var_tau_ps2
covariance_after_plus: cov_tau_omega mean_omega_rad_ps mean_tau_ps var_omega_rad2_ps2 var_tau_ps2
covariance_after_minus: cov_tau_omega mean_omega_rad_ps mean_tau_ps var_omega_rad2_ps2 var_tau_ps2
separability: product separable_consistent
witness: evaluable lhs_ps2 margin_ps2 product rhs_ps2 violated
outputs: runrecord
"""
_JITTER_PATHS = """
jitter: sigma_ps var_ps2
jitter.feasibility: dispersion_ok dispersion_ratio linewidth_ok linewidth_product
witness_observed: evaluable lhs_ps2 margin_ps2 product rhs_ps2 violated
"""
_SAMPLING_PATHS = """
scenario.sampler: n_events seed
sampling: n_events seed
sampling.estimates.before: mean_tau_ps n stderr_ps2 var_tau_ps2
sampling.estimates.plus: mean_tau_ps n stderr_ps2 var_tau_ps2
sampling.estimates.minus: mean_tau_ps n stderr_ps2 var_tau_ps2
sampling.empirical_witness: evaluable lhs_ps2 margin_ps2 margin_stderr_ps2 rhs_ps2 significance violated
sampling.events: before minus plus
outputs.events: before minus plus
"""
_BIPHOTON_PATHS = """
scenario.state.biphoton: pm_sigma_rad_ps pump_sigma_rad_ps
scenario.state.biphoton.grid: domega_rad_ps n
fft: symmetrized_var_tau_ps2
"""
_STATIONARY_PATHS = """
scenario.state.stationary: window_T_ps
scenario.state.stationary.grid: domega_rad_ps n
scenario.state.stationary.s1.gaussian: center_rad_ps peak sigma_rad_ps
windowed: background regime signal_fraction variance_ps2
outputs: tau_profile
"""


def _record_case(kind):
    """(scenario, the literal key paths of its run record)."""
    if kind in ("biphoton", "zero-stderr"):
        scenario = {**_biphoton_scenario(n_events=300, seed=5), "jitter_sigma_ps": 0.05}
        scenario["outputs"] = {"density_binary": True}
        paths = _RECORD_PATHS + _JITTER_PATHS + _SAMPLING_PATHS + _BIPHOTON_PATHS + "outputs: density_before"
        if kind == "zero-stderr":
            paths += "\nsampling.empirical_witness: significance_reason"
        return scenario, paths
    if kind == "stationary":
        scenario = _stationary_scenario()
        scenario["state"]["stationary"].update(
            s2={"flat": {"value": 0.5}}, cross={"gaussian": {"peak": 0.3, "sigma_rad_ps": 0.8}}
        )
        scenario["sampler"] = {"n_events": 300, "seed": 3}
        return scenario, _RECORD_PATHS + _SAMPLING_PATHS + _STATIONARY_PATHS + """
scenario.state.stationary.s2.flat: value
scenario.state.stationary.cross.gaussian: center_rad_ps peak sigma_rad_ps
"""
    if kind == "classical-extremal":
        return {**_stationary_scenario(), "jitter_sigma_ps": 0.2}, (
            _RECORD_PATHS + _JITTER_PATHS + _STATIONARY_PATHS + """
scenario.state.stationary: cross
scenario.state.stationary.s2.gaussian: center_rad_ps peak sigma_rad_ps
"""
        )
    return _covariance_scenario(jitter_sigma_ps=0.1), _RECORD_PATHS + _JITTER_PATHS + """
scenario.state.covariance: cov_tau_omega mean_omega_rad_ps mean_tau_ps var_omega_rad2_ps2 var_tau_ps2
"""


@pytest.mark.parametrize("kind", ["biphoton", "stationary", "classical-extremal", "covariance", "zero-stderr"])
def test_run_record_has_exactly_its_key_paths(tmp_path, monkeypatch, kind):
    if kind == "zero-stderr":
        real = sampler.empirical_witness
        monkeypatch.setattr(
            sampler, "empirical_witness",
            lambda *args: dataclasses.replace(real(*args), margin_stderr=0.0, significance=math.inf),
        )
    scenario, paths = _record_case(kind)
    rc, out_dir = _run(tmp_path, scenario)
    assert rc == 0
    assert sorted(_key_paths(_record(out_dir))) == sorted(_paths(paths))


def test_normalize_fills_every_schema_default():
    biphoton = {
        "pump_sigma_rad_ps": 1e-4, "pm_sigma_rad_ps": 10.0, "grid": {"n": 256.0, "domega_rad_ps": 0.25},
    }
    stationary = {
        "grid": {"n": 256, "domega_rad_ps": 0.25},
        "s1": {"gaussian": {"peak": 1.0, "sigma_rad_ps": 1.0}},
        "s2": {"flat": {"value": 1.0}},
        "cross": {"gaussian": {"peak": 0.5, "sigma_rad_ps": 1.0}},
        "window_T_ps": 14.0,
    }
    covariance = {"var_tau_ps2": 0.25, "var_omega_rad2_ps2": 16.0}
    defaults = {
        "kit": {"beta_L_ps2": 1.0, "delay_1_ps": 0.0, "delay_2_ps": 0.0},
        "jitter_sigma_ps": 0.0,
        "outputs": {"events_csv": True, "tau_profile_csv": True, "density_binary": False},
    }
    minimal = {"kit": {"beta_L_ps2": 1.0}}
    assert cli.normalize_scenario({**minimal, "state": {"biphoton": biphoton}}) == {
        **defaults,
        "state": {"biphoton": {
            "pump_sigma_rad_ps": 1e-4, "pm_sigma_rad_ps": 10.0, "grid": {"n": 256, "domega_rad_ps": 0.25},
        }},
    }
    assert cli.normalize_scenario({**minimal, "state": {"stationary": stationary}}) == {
        **defaults,
        "state": {"stationary": {
            "grid": {"n": 256, "domega_rad_ps": 0.25},
            "s1": {"gaussian": {"peak": 1.0, "sigma_rad_ps": 1.0, "center_rad_ps": 0.0}},
            "s2": {"flat": {"value": 1.0}},
            "cross": {"gaussian": {"peak": 0.5, "sigma_rad_ps": 1.0, "center_rad_ps": 0.0}},
            "window_T_ps": 14.0,
        }},
    }
    assert cli.normalize_scenario({**minimal, "state": {"covariance": covariance}}) == {
        **defaults,
        "state": {"covariance": {
            "var_tau_ps2": 0.25, "var_omega_rad2_ps2": 16.0,
            "cov_tau_omega": 0.0, "mean_tau_ps": 0.0, "mean_omega_rad_ps": 0.0,
        }},
    }


def test_covariance_record_shears_and_scores(tmp_path, capsys):
    rc, out_dir = _run(tmp_path, _covariance_scenario())
    assert rc == 0
    rec = _record(out_dir)
    assert rec["state_kind"] == "covariance"
    assert rec["schema_version"] == 1
    assert rec["scenario_hash"].startswith("sha256:")

    # Hand-propagated shear: 2*beta_L = 1, delays 0.25 and -0.75.
    plus = rec["covariance_after_plus"]
    assert plus["var_tau_ps2"] == pytest.approx(0.25 + 4 * 0.5 * 0.3 + 16.0, rel=1e-15)
    assert plus["cov_tau_omega"] == pytest.approx(0.3 + 16.0, rel=1e-15)
    assert plus["var_omega_rad2_ps2"] == 16.0
    assert plus["mean_tau_ps"] == pytest.approx(0.1 + 0.25 - (-0.75) + 1.0 * (-0.2), rel=1e-12)
    assert plus["mean_omega_rad_ps"] == -0.2

    assert rec["separability"]["product"] == pytest.approx(4.0, rel=1e-15)
    assert rec["separability"]["separable_consistent"] is True
    w = rec["witness"]
    assert w["evaluable"] is True
    assert w["lhs_ps2"] == pytest.approx(0.25 + 16.0, rel=1e-15)
    assert w["rhs_ps2"] == pytest.approx(0.25 + 1.0 / 0.25, rel=1e-15)
    assert w["violated"] is False
    assert "sampling" not in rec

    stdout = capsys.readouterr().out
    assert "witness:" in stdout and "violated=False" in stdout


def test_a_non_evaluable_witness_is_recorded_and_printed(tmp_path, capsys):
    scenario = _covariance_scenario()
    scenario["state"]["covariance"].update(var_tau_ps2=0.0, cov_tau_omega=0.0)
    rc, out_dir = _run(tmp_path, scenario)
    assert rc == 0
    witness = _record(out_dir)["witness"]
    assert set(witness) == {"evaluable", "reason"} and witness["evaluable"] is False
    assert "var_tau = 0" in witness["reason"]
    captured = capsys.readouterr()
    assert f"witness: non-evaluable ({witness['reason']})" in captured.out.splitlines()
    assert captured.err == ""


def test_a_dark_beam_with_a_quantum_cross_runs(tmp_path, capsys):
    # S1 = 0: no background, and the zero-spectrum branch of the Omega moments.
    scenario = _stationary_scenario(s1=_flat(0.0), cross=_quantum_cross(0.9))
    scenario["sampler"] = {"n_events": 2000, "seed": 4}
    rc, out_dir = _run(tmp_path, scenario)
    assert rc == 0 and capsys.readouterr().err == ""
    record = _record(out_dir)
    assert record["windowed"]["regime"] == "quantum"
    assert record["windowed"]["background"] == 0.0 and record["windowed"]["signal_fraction"] == 1.0
    before = record["covariance_before"]
    assert before["var_omega_rad2_ps2"] == 0.0 and before["mean_omega_rad_ps"] == 0.0
    assert record["witness"]["evaluable"] is True


def test_biphoton_run_cancels_dispersion_and_samples(tmp_path):
    rc, out_dir = _run(tmp_path, _biphoton_scenario())
    assert rc == 0
    rec = _record(out_dir)
    # Opposite-sign media on an anticorrelated pair: no broadening at all.
    assert rec["fft"]["symmetrized_var_tau_ps2"] == pytest.approx(
        rec["covariance_before"]["var_tau_ps2"], rel=1e-12
    )
    assert rec["witness"]["violated"] is True
    assert rec["separability"]["separable_consistent"] is False

    sampling = rec["sampling"]
    assert sampling["n_events"] == 2000
    emp = sampling["empirical_witness"]
    assert emp["evaluable"] is True and emp["violated"] is True
    assert emp["significance"] > 5.0
    for label in ("before", "plus", "minus"):
        assert sampling["estimates"][label]["n"] == 2000
        lines = (out_dir / f"events_{label}.csv").read_text().splitlines()
        assert lines[1] == "t1_ps,t2_ps"
        assert len(lines) == 2 + 2000


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_sampling_run_transforms_twice_and_disperses_once(tmp_path, monkeypatch):
    # The source is dispersed once, with the kit.  The two densities
    # (before and plus) are the only transforms; the minus arm is the plus
    # arm exchanged.  The before transform takes the source's storage, so
    # the source is built again to be dispersed.  Two line passes read the
    # moments: cov0 from the source, and both arms from the plus amplitude.
    # The minus draw reads the plus density, transposed.
    transforms = _count_calls(monkeypatch, biphoton, "to_time_domain")
    dispersions = _count_calls(monkeypatch, biphoton, "apply_dispersion_phase")
    builds = _count_calls(monkeypatch, biphoton, "build_pdc_amplitude")
    line_passes = _count_calls(monkeypatch, biphoton, "_sum_frequency_lines")
    densities = []
    draw = sampler.sample_biphoton
    monkeypatch.setattr(sampler, "sample_biphoton", lambda density, *args: draw(densities.append(density) or density, *args))
    scenario = _biphoton_scenario(n_events=100, seed=4)
    scenario["outputs"] = {"density_binary": True}
    rc, _ = _run(tmp_path, scenario)
    assert rc == 0
    assert len(transforms) == 2 and len(dispersions) == 1
    assert len(builds) == 2 and len(line_passes) == 2
    before, plus, minus = densities
    assert np.shares_memory(minus.values, plus.values) and not np.shares_memory(plus.values, before.values)


@pytest.mark.parametrize("n", [256, 512])
def test_exchanged_minus_arm_matches_the_direct_route(tmp_path, n):
    # The run takes the minus arm from the plus arm exchanged; the direct
    # route disperses the source with the swapped kit.  With delays the two
    # phases add their terms in another order, so the records agree to
    # rounding, and the minus events are identical on these seeds.
    for case, (a, b, domega, kit) in enumerate(random_kits(n)):
        scenario = _resolved_biphoton(a=a, b=b, n=n, domega=domega, beta_L=kit.beta_L)
        scenario["kit"].update(delay_1_ps=kit.delay_1, delay_2_ps=kit.delay_2)
        scenario["sampler"] = {"n_events": 5000, "seed": 100 + case}
        rc, out_dir = _run(tmp_path, scenario, out=f"case{case}")
        assert rc == 0
        got = _record(out_dir)["covariance_after_minus"]

        source = biphoton.build_pdc_amplitude(FrequencyGrid(n=n, domega=domega), a, b)
        direct = biphoton.apply_dispersion_phase(source, kit.swapped())
        want = cli._fields(biphoton.amplitude_moments(direct))
        for key in ("var_tau_ps2", "var_omega_rad2_ps2", "cov_tau_omega"):
            assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key
        for key, var in (("mean_tau_ps", "var_tau_ps2"), ("mean_omega_rad_ps", "var_omega_rad2_ps2")):
            assert abs(got[key] - want[key]) <= 1e-12 * math.sqrt(want[var]), key

        batch = sampler.sample_biphoton(
            biphoton.to_time_domain(direct), 5000, sampler.derive_seed(100 + case, "minus")
        )
        sampler.events_to_csv(batch, tmp_path / "direct.csv")
        assert (out_dir / "events_minus.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()


def test_minus_amplitude_is_the_plus_amplitude_exchanged_without_delays():
    # With no delays the swapped phase is the plus phase negated, which is
    # exact, so the minus amplitude the shortcut stands for, the plus one
    # transposed, is the direct one bit for bit.
    source = biphoton.build_pdc_amplitude(FrequencyGrid(n=256, domega=0.25), 1.0, 4.0)
    kit = DispersionKit(beta_L=0.37)
    plus = biphoton.apply_dispersion_phase(source, kit)
    direct = biphoton.apply_dispersion_phase(source, kit.swapped())
    assert np.array_equal(plus.values.T, direct.values)


def test_unsampled_biphoton_run_makes_no_2d_transform(tmp_path, monkeypatch):
    # The moments come from the line route; only the density dump (and the
    # sampler) need the joint time density.
    transforms = _count_calls(monkeypatch, biphoton, "to_time_2d")
    densities = _count_calls(monkeypatch, biphoton, "to_time_domain")
    builds = _count_calls(monkeypatch, biphoton, "build_pdc_amplitude")
    scenario = _biphoton_scenario()
    del scenario["sampler"]
    rc, out_dir = _run(tmp_path, scenario)
    assert rc == 0
    assert transforms == [] and densities == [] and len(builds) == 1
    assert _record(out_dir)["fft"]["symmetrized_var_tau_ps2"] == pytest.approx(0.01, rel=1e-6)
    scenario["outputs"] = {"density_binary": True}
    rc, out_dir = _run(tmp_path, scenario, out="dump")
    assert rc == 0
    assert len(transforms) == 1 and len(densities) == 1 and len(builds) == 3
    assert (out_dir / "density_before.bin").exists()


def test_sampled_stationary_run_builds_one_profile(tmp_path, monkeypatch):
    # The profile comes from one 1D transform, shared by the covariance,
    # the windowed block, the tau-profile CSV and all three samplers.  Its
    # signal moments are read once too: the wrap check counted here and the
    # window check after it run in that one pass.
    transforms = _count_calls(monkeypatch, stationary, "to_time_1d")
    wrap_checks = _count_calls(monkeypatch, stationary, "_require_unwrapped")
    separability = _count_calls(monkeypatch, cli, "separability_check")
    scenario = _stationary_scenario()
    scenario["sampler"] = {"n_events": 500, "seed": 3}
    rc, out_dir = _run(tmp_path, scenario)
    assert rc == 0
    assert (out_dir / "tau_profile.csv").exists()
    assert _record(out_dir)["sampling"]["estimates"]["minus"]["n"] == 500
    assert len(transforms) == 1
    assert len(wrap_checks) == 1
    assert len(separability) == 1


def test_stationary_run_reports_windowed_mixture(tmp_path):
    rc, out_dir = _run(tmp_path, _stationary_scenario())
    assert rc == 0
    rec = _record(out_dir)
    assert rec["state_kind"] == "stationary"
    windowed = rec["windowed"]
    assert windowed["regime"] == "classical"
    assert 0.0 < windowed["signal_fraction"] < 1.0
    assert windowed["variance_ps2"] == rec["covariance_before"]["var_tau_ps2"]
    assert rec["witness"]["violated"] is False
    assert rec["outputs"]["tau_profile"] == "tau_profile.csv"
    profile = (out_dir / "tau_profile.csv").read_text().splitlines()
    assert profile[1] == "tau_ps,signal,background,window_ps"
    assert len(profile) == 2 + 256


def test_jitter_feasibility_flags_slow_dispersion(tmp_path):
    scenario = {
        "state": {"covariance": {"var_tau_ps2": 0.01, "var_omega_rad2_ps2": 1e-8}},
        "kit": {"beta_L_ps2": 32.0},
        "jitter_sigma_ps": 50.0,
    }
    rc, out_dir = _run(tmp_path, scenario)
    assert rc == 0
    rec = _record(out_dir)
    jitter = rec["jitter"]
    assert jitter["sigma_ps"] == 50.0
    assert jitter["var_ps2"] == 2500.0
    feas = jitter["feasibility"]
    assert feas["linewidth_ok"] is True
    assert feas["linewidth_product"] == pytest.approx(2500.0 * 1e-8, rel=1e-12)
    assert feas["dispersion_ok"] is False
    assert feas["dispersion_ratio"] == pytest.approx(64.0 / 2500.01, rel=1e-12)
    observed = rec["witness_observed"]
    assert observed["lhs_ps2"] == pytest.approx(2500.01 + 64.0 ** 2 * 1e-8, rel=1e-12)


def test_density_binary_output_round_trips(tmp_path):
    scenario = _biphoton_scenario(n_events=100, seed=3)
    scenario["outputs"] = {"density_binary": True}
    rc, out_dir = _run(tmp_path, scenario)
    assert rc == 0
    rec = _record(out_dir)
    assert rec["outputs"]["density_before"] == "density_before.bin"
    density = density_from_binary(out_dir / "density_before.bin")
    assert density.grid.n == 256


# ---------------------------------------------------------------------------
# Scans.

def test_jitter_scan_margin_is_non_increasing(tmp_path):
    scenario = {
        "state": {"covariance": {"var_tau_ps2": 0.01, "var_omega_rad2_ps2": 1e-8}},
        "kit": {"beta_L_ps2": 32.0},
        "jitter_sigma_ps": 0.0,
    }
    path = _write(tmp_path, "scan.json", scenario)
    out_dir = tmp_path / "scanout"
    rc = cli.main([
        "scan", str(path),
        "--param", "jitter_sigma_ps",
        "--values", "0,10,25,50",
        "--out", str(out_dir),
    ])
    assert rc == 0
    csv_path = out_dir / "scan_jitter_sigma_ps.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "value,lhs_ps2,rhs_ps2,margin_ps2,product"
    assert len(lines) == 5
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    values = [r[0] for r in rows]
    margins = [r[3] for r in rows]
    assert values == [0.0, 10.0, 25.0, 50.0]
    assert all(a >= b for a, b in zip(margins, margins[1:]))
    assert margins[0] > 0.0


def test_pump_width_scan_raises_the_product(tmp_path):
    scenario = {
        "state": {
            "biphoton": {
                "pump_sigma_rad_ps": 0.5,
                "pm_sigma_rad_ps": 2.5,
                "grid": {"n": 256, "domega_rad_ps": 0.15},
            }
        },
        "kit": {"beta_L_ps2": 1.0},
    }
    path = _write(tmp_path, "pump.json", scenario)
    out_dir = tmp_path / "pumpscan"
    rc = cli.main([
        "scan", str(path),
        "--param", "state.biphoton.pump_sigma_rad_ps",
        "--values", "0.5,0.9,1.2,2.0",
        "--out", str(out_dir),
    ])
    assert rc == 0
    lines = (out_dir / "scan_state_biphoton_pump_sigma_rad_ps.csv").read_text().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    products = [r[4] for r in rows]
    margins = [r[3] for r in rows]
    assert all(a < b for a, b in zip(products, products[1:]))
    assert all(m > 0.0 for m in margins)
    assert all(p < 1.0 for p in products)


def test_zero_dispersion_margin_is_exactly_zero(tmp_path):
    scenario = _covariance_scenario()
    path = _write(tmp_path, "zero.json", scenario)
    out_dir = tmp_path / "zeroscan"
    rc = cli.main([
        "scan", str(path), "--param", "kit.beta_L_ps2", "--values", "0", "--out", str(out_dir),
    ])
    assert rc == 0
    lines = (out_dir / "scan_kit_beta_L_ps2.csv").read_text().splitlines()
    row = [float(x) for x in lines[1].split(",")]
    assert row[3] == 0.0


def _resolved_biphoton(a=0.5, b=2.5, n=256, domega=0.15, beta_L=1.0):
    return {
        "state": {
            "biphoton": {
                "pump_sigma_rad_ps": a,
                "pm_sigma_rad_ps": b,
                "grid": {"n": n, "domega_rad_ps": domega},
            }
        },
        "kit": {"beta_L_ps2": beta_L, "delay_1_ps": 0.3},
    }


def _scan(tmp_path, scenario, param, values, out="scanout"):
    path = _write(tmp_path, f"{out}.json", scenario)
    out_dir = tmp_path / out
    rc = cli.main(["scan", str(path), "--param", param, "--values", values, "--out", str(out_dir)])
    if rc != 0:
        return rc, None
    lines = (out_dir / f"scan_{param.replace('.', '_')}.csv").read_text().splitlines()
    return rc, [[float(x) for x in line.split(",")] for line in lines[1:]]


@pytest.mark.parametrize(
    "param, values, builds",
    [
        ("kit.beta_L_ps2", "0,0.5,1,2", 1),
        ("jitter_sigma_ps", "0,0.5,1", 1),
        ("state.biphoton.pump_sigma_rad_ps", "0.5,0.6,0.5", 2),
    ],
)
def test_scan_builds_each_distinct_state_once(tmp_path, monkeypatch, param, values, builds):
    amplitudes = _count_calls(monkeypatch, biphoton, "build_pdc_amplitude")
    moments = _count_calls(monkeypatch, biphoton, "amplitude_moments")
    phases = _count_calls(monkeypatch, biphoton, "apply_dispersion_phase")
    densities = _count_calls(monkeypatch, biphoton, "to_time_domain")
    transforms_2d = _count_calls(monkeypatch, biphoton, "to_time_2d")
    rc, rows = _scan(tmp_path, _resolved_biphoton(), param, values)
    assert rc == 0
    assert len(rows) == len(values.split(","))
    assert len(amplitudes) == builds
    assert len(moments) == builds
    # The line route reads the moments with no dispersion and no 2D transform.
    assert phases == [] and densities == [] and transforms_2d == []


@pytest.mark.parametrize(
    "param, values",
    [
        ("kit.beta_L_ps2", "0,0.5,2"),
        ("jitter_sigma_ps", "0,0.5,1"),
        ("state.biphoton.pump_sigma_rad_ps", "0.5,0.6"),
    ],
)
def test_scan_rows_equal_run_witness_bit_for_bit(tmp_path, param, values):
    scenario = _resolved_biphoton()
    scenario["jitter_sigma_ps"] = 0.0
    rc, rows = _scan(tmp_path, scenario, param, values)
    assert rc == 0
    for k, row in enumerate(rows):
        variant = copy.deepcopy(scenario)
        node, leaf = cli._resolve_numeric_path(variant, param)
        node[leaf] = row[0]
        rc, out_dir = _run(tmp_path, variant, name=f"v{k}.json", out=f"run{k}")
        assert rc == 0
        rec = _record(out_dir)
        witness = rec.get("witness_observed", rec["witness"])  # present when jitter > 0
        assert row[1:] == [witness["lhs_ps2"], witness["rhs_ps2"], witness["margin_ps2"], witness["product"]]


def test_scan_csv_bytes_match_the_row_loop(tmp_path):
    # '%.17g' % x == f'{x:.17g}' for every float, the signed zero, the
    # smallest subnormal and the largest magnitudes included.
    values = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0, 2.0 ** 60, 1.5]
    rows = [dict(zip(cli._SCAN_COLUMNS, values[k:] + values[:k])) for k in range(len(values))]
    path = tmp_path / "scan.csv"
    cli.write_scan_csv(rows, path)
    loop = "".join(",".join(f"{row[key]:.17g}" for key in cli._SCAN_COLUMNS) + "\n" for row in rows)
    assert path.read_bytes() == (",".join(cli._SCAN_COLUMNS) + "\n" + loop).encode()
    assert b"\n-0,4.9406564584124654e-324," in path.read_bytes()


def test_scan_validates_every_value_before_building(tmp_path, capsys, monkeypatch):
    amplitudes = _count_calls(monkeypatch, biphoton, "build_pdc_amplitude")
    rc, _ = _scan(tmp_path, _resolved_biphoton(), "jitter_sigma_ps", "0,-1,2")
    assert rc == 2
    err = _stderr_error(capsys)
    assert err["error"] == "ScenarioError" and "jitter_sigma_ps" in err["message"]
    assert amplitudes == []
    assert not (tmp_path / "scanout").exists()


def test_beta_scan_past_the_wrap_point_stays_algebraic(tmp_path, capsys):
    # At beta_L = 6 the dispersed tau marginal wraps the 512-point grid, so
    # run refuses the scenario; the scan never disperses on the grid and
    # gives the closed-form row.
    scenario = _resolved_biphoton(a=0.5, b=10.0, n=512, domega=0.125, beta_L=0.0)
    rc, rows = _scan(tmp_path, scenario, "kit.beta_L_ps2", "6")
    assert rc == 0
    value, lhs, rhs, margin, product = rows[0]
    assert value == 6.0
    assert lhs == pytest.approx(36.0100, rel=1e-5)
    assert rhs == pytest.approx(14400.006, rel=1e-7)
    assert margin == rhs - lhs

    scenario["kit"]["beta_L_ps2"] = 6.0
    rc, _ = _run(tmp_path, scenario)
    assert rc == 3
    assert _stderr_error(capsys)["error"] == "GridTooCoarseError"


def test_saturated_state_sheared_near_zero_var_tau_runs_and_scans(tmp_path):
    # A state on the Cauchy-Schwarz boundary whose shear cancels var_tau to
    # about 1e-12: the rounding of the sheared var_tau must not turn into a
    # Cauchy-Schwarz error about a state the scenario never wrote.
    scenario = {
        "state": {"covariance": {"var_tau_ps2": 1, "var_omega_rad2_ps2": 1, "cov_tau_omega": -1}},
        "kit": {"beta_L_ps2": 0.4999995},
    }
    rc, out_dir = _run(tmp_path, scenario)
    assert rc == 0
    plus = _record(out_dir)["covariance_after_plus"]
    assert plus["var_tau_ps2"] == pytest.approx(1e-12, rel=1e-4)
    assert plus["cov_tau_omega"] ** 2 <= plus["var_tau_ps2"] * plus["var_omega_rad2_ps2"]
    rc, rows = _scan(tmp_path, scenario, "kit.beta_L_ps2", "0.4999995,0.5")
    assert rc == 0
    assert [row[0] for row in rows] == [0.4999995, 0.5]


def test_integer_leaves_scan(tmp_path, capsys):
    scenario = _biphoton_scenario(n_events=100, seed=1)
    rc, rows = _scan(tmp_path, scenario, "state.biphoton.grid.n", "256,512")
    assert rc == 0
    assert [row[0] for row in rows] == [256.0, 512.0]
    rc, rows = _scan(tmp_path, scenario, "sampler.seed", "1,2", out="seeds")
    assert rc == 0
    assert rows[0][1:] == rows[1][1:]
    rc, _ = _scan(tmp_path, scenario, "sampler.n_events", "100.5", out="half")
    assert rc == 2
    assert "n_events" in _stderr_error(capsys)["message"]


def test_scan_rejects_bad_parameter_paths(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", _covariance_scenario())
    rc = cli.main([
        "scan", str(path), "--param", "kit.nope", "--values", "1,2", "--out", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert "kit.nope" in _stderr_error(capsys)["message"]
    rc = cli.main([
        "scan", str(path), "--param", "state.covariance", "--values", "1", "--out", str(tmp_path / "y"),
    ])
    assert rc == 2
    assert "numeric" in _stderr_error(capsys)["message"]


@pytest.mark.parametrize("entry", ["nan", "inf", "1e999", "abc"])
def test_scan_rejects_values_that_are_not_finite_numbers(tmp_path, capsys, entry):
    path = _write(tmp_path, "cov.json", _covariance_scenario())
    out_dir = tmp_path / "scan"
    rc = cli.main([
        "scan", str(path), "--param", "jitter_sigma_ps", "--values", f"0.1, {entry}", "--out", str(out_dir),
    ])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = _strict_json(lines[0])
    assert err["error"] == "ScenarioError"
    assert "--values" in err["message"] and repr(entry) in err["message"]
    assert not out_dir.exists()


def test_scan_with_no_values_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "cov.json", _covariance_scenario())
    out_dir = tmp_path / "scan"
    rc = cli.main(["scan", str(path), "--param", "jitter_sigma_ps", "--values", " , ,", "--out", str(out_dir)])
    assert rc == 2
    err = _stderr_error(capsys)
    assert err == {"error": "ScenarioError", "message": "scan needs at least one value"}
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# Rendering.

def test_render_produces_deterministic_svgs(tmp_path):
    rc, out_dir = _run(tmp_path, _biphoton_scenario(n_events=300, seed=5))
    assert rc == 0
    record_path = out_dir / "runrecord.json"
    rc = cli.main(["render", str(record_path)])
    assert rc == 0
    scatter = (out_dir / "scatter.svg").read_text()
    hist = (out_dir / "tau_hist.svg").read_text()
    assert scatter.startswith("<svg") and hist.startswith("<svg")
    assert "t1 (ps)" in scatter
    assert "tau = t1 - t2 (ps)" in hist

    again = tmp_path / "again"
    rc = cli.main(["render", str(record_path), "--out", str(again)])
    assert rc == 0
    assert (again / "scatter.svg").read_text() == scatter
    assert (again / "tau_hist.svg").read_text() == hist


_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="{height}" viewBox="0 0 640 {height}">\n'
    "<title>{title}</title>\n"
    '<rect x="0" y="0" width="640" height="{height}" fill="white"/>\n'
    '<rect x="70" y="70" width="500" height="{inner}" fill="none" stroke="black" stroke-width="1"/>\n'
)


def _heat_map_oracle(batch):
    """The heat map's bytes, written cell by cell from np.histogram2d on its edges, and those counts."""
    size, margin, cells = 640, 70, 128
    span = size - 2 * margin
    if batch.window is not None:
        lo, hi = batch.window
    else:
        lo = float(min(batch.t1.min(), batch.t2.min()))
        hi = float(max(batch.t1.max(), batch.t2.max()))
    pad = (0.5 if lo == 0.0 else abs(lo) * 0.1) if lo == hi else (hi - lo) * 0.05
    lo, hi = lo - pad, hi + pad
    edges = np.linspace(lo, hi, cells + 1)
    counts = np.histogram2d(batch.t1, batch.t2, bins=(edges, edges))[0]
    peak = int(counts.max())
    cell = span / cells
    parts = [_HEADER.format(height=size, inner=span, title=f"detection times: {batch.source}")]
    for i in range(cells):
        for j in range(cells):
            if counts[i, j]:
                x = margin + (edges[i] - lo) * (span / (hi - lo))
                y = size - cell - (margin + (edges[j] - lo) * (span / (hi - lo)))
                parts.append(
                    f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell:.2f}" height="{cell:.2f}" '
                    f'fill="#1f77b4" fill-opacity="{counts[i, j] / peak:.3g}"/>\n'
                )
    ticks = [(frac, lo + frac * (hi - lo)) for frac in (0.0, 0.5, 1.0)]
    parts += [
        f'<text x="{margin + frac * span:.1f}" y="{size - margin + 24}" font-size="13" '
        f'text-anchor="middle">{v:.6g}</text>\n'
        for frac, v in ticks
    ]
    parts.append(f'<text x="{size / 2:.1f}" y="{size - 18}" font-size="15" text-anchor="middle">t1 (ps)</text>\n')
    parts.append(
        f'<text x="20" y="{size / 2:.1f}" font-size="15" text-anchor="middle" '
        f'transform="rotate(-90 20 {size / 2:.1f})">t2 (ps)</text>\n'
    )
    parts += [
        f'<text x="{margin - 8}" y="{size - margin - frac * span:.1f}" font-size="13" '
        f'text-anchor="end">{v:.6g}</text>\n'
        for frac, v in ticks
    ]
    parts.append(f'<text x="{margin}" y="{margin - 10}" font-size="13">peak cell: {peak} events</text>\n')
    parts.append("</svg>\n")
    return "".join(parts).encode("utf-8"), counts


def _plot_batch(rows, window, equal=False):
    rng = np.random.default_rng(rows)
    t1 = rng.uniform(-4.0, 9.0, rows)
    t2 = rng.uniform(-4.0, 9.0, rows)
    if window is None:
        t1 = t1 * 37.5 - 1e3  # an unwindowed batch sets its axes from the data
    if equal:
        t1 = t2 = np.full(rows, 2.5)  # so the data range is one point, and the axes are padded around it
    return sampler.EventBatch(t1=t1, t2=t2, seed=1, source="oracle", window=window)


@pytest.mark.parametrize(
    "rows, window, equal",
    [
        pytest.param(1, (-4.0, 9.0), False, id="1-row"),
        pytest.param(3, (-4.0, 9.0), False, id="3-rows"),
        pytest.param(_CHUNK_ROWS + 1, (-4.0, 9.0), False, id="chunk-plus-1-rows"),
        pytest.param(500, None, False, id="unwindowed"),
        pytest.param(50, None, True, id="equal-times"),
    ],
)
def test_render_scatter_counts_match_histogram2d(tmp_path, rows, window, equal):
    batch = _plot_batch(rows, window, equal)
    path = tmp_path / "scatter.svg"
    cli.render_scatter(batch, path, cli._scatter_edges(batch))
    expected, counts = _heat_map_oracle(batch)
    assert path.read_bytes() == expected
    assert counts.sum() == rows  # the axes hold every event
    assert path.read_text().count("fill-opacity") == np.count_nonzero(counts) <= 128 * 128


def _tau_hist_oracle(batch):
    """The bytes of render_tau_hist's former per-bar loop."""
    width, height, margin = 640, 420, 70
    tau = batch.tau
    counts, edges = np.histogram(tau, bins=64)
    peak = max(int(counts.max()), 1)
    span_x = width - 2 * margin
    span_y = height - 2 * margin
    lo, hi = edges[0], edges[-1]
    if hi == lo:
        hi = lo + 1.0
    parts = [_HEADER.format(height=height, inner=span_y, title=f"tau histogram: {batch.source}")]
    for i, c in enumerate(counts):
        if c == 0:
            continue
        x0 = margin + (edges[i] - lo) / (hi - lo) * span_x
        x1 = margin + (edges[i + 1] - lo) / (hi - lo) * span_x
        h = c / peak * span_y
        parts.append(
            f'<rect x="{x0:.2f}" y="{height - margin - h:.2f}" width="{x1 - x0:.2f}" '
            f'height="{h:.2f}" fill="#ff7f0e"/>\n'
        )
    for frac in (0.0, 0.5, 1.0):
        v = lo + frac * (hi - lo)
        x = margin + frac * span_x
        parts.append(
            f'<text x="{x:.1f}" y="{height - margin + 24}" font-size="13" '
            f'text-anchor="middle">{v:.6g}</text>\n'
        )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 18}" font-size="15" '
        'text-anchor="middle">tau = t1 - t2 (ps)</text>\n'
    )
    parts.append(f'<text x="{margin}" y="{margin - 10}" font-size="13">peak bin: {peak} events</text>\n')
    parts.append("</svg>\n")
    return "".join(parts).encode("utf-8")


@pytest.mark.parametrize(
    "rows, window, equal",
    [
        pytest.param(_CHUNK_ROWS + 1, (-4.0, 9.0), False, id="windowed"),
        pytest.param(500, None, False, id="unwindowed"),
        pytest.param(50, None, True, id="equal-tau"),
    ],
)
def test_render_tau_hist_matches_the_bar_loop(tmp_path, rows, window, equal):
    batch = _plot_batch(rows, window, equal)
    path = tmp_path / "tau_hist.svg"
    cli.render_tau_hist(batch, path, cli._tau_edges(batch.tau))
    assert path.read_bytes() == _tau_hist_oracle(batch)


def test_render_requires_sampled_events(tmp_path, capsys):
    rc, out_dir = _run(tmp_path, _covariance_scenario())
    assert rc == 0
    rc = cli.main(["render", str(out_dir / "runrecord.json")])
    assert rc == 2
    assert "events" in _stderr_error(capsys)["message"]


# First lines of an events CSV that do not follow its metadata format.
_BAD_EVENTS_COMMENTS = {"seed_only": "# seed=3", "bad_seed": "# seed=x window=none source=y"}


@pytest.mark.parametrize("doctor", ["list", "no_before", *_BAD_EVENTS_COMMENTS])
def test_render_rejects_malformed_records(tmp_path, capsys, doctor):
    rc, out_dir = _run(tmp_path, _biphoton_scenario(n_events=100, seed=2))
    assert rc == 0
    record_path = out_dir / "runrecord.json"
    events = out_dir / "events_before.csv"
    record = _record(out_dir)
    if doctor == "list":
        record_path.write_text(json.dumps([record]))
    elif doctor == "no_before":
        del record["sampling"]["events"]["before"]
        record_path.write_text(json.dumps(record))
    else:
        _, *rest = events.read_text().splitlines(keepends=True)
        events.write_text(_BAD_EVENTS_COMMENTS[doctor] + "\n" + "".join(rest))
    rc = cli.main(["render", str(record_path)])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = _strict_json(lines[0])
    if doctor in _BAD_EVENTS_COMMENTS:
        assert err["error"] == "ValueError" and str(events) in err["message"]
        assert "'# seed=<int> window=<lo,hi|none> source=<text>'" in err["message"]
    else:
        assert err["error"] == "ScenarioError" and "events" in err["message"]


@pytest.mark.parametrize("columns, shape", [(0, "(0, 1)"), (1, "(100, 1)"), (3, "(100, 3)")])
def test_render_rejects_an_events_body_without_two_columns(tmp_path, capsys, columns, shape):
    rc, out_dir = _run(tmp_path, _biphoton_scenario(n_events=100, seed=2))
    assert rc == 0
    events = out_dir / "events_before.csv"
    head, header, *rows = events.read_text().splitlines(keepends=True)
    t1, t2 = zip(*(row.rstrip("\n").split(",") for row in rows))
    body = {0: [], 1: t1, 3: [f"{a},{b},{a}" for a, b in zip(t1, t2)]}[columns]
    events.write_text(head + header + "".join(f"{line}\n" for line in body))
    capsys.readouterr()
    rc = cli.main(["render", str(out_dir / "runrecord.json")])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1  # the error line alone, no numpy warning
    err = _strict_json(lines[0])
    assert err["error"] == "ValueError"
    assert str(events) in err["message"] and f"found shape {shape}" in err["message"]
    assert not (out_dir / "scatter.svg").exists()


@pytest.mark.parametrize("body", [["0,0", "5e-324,0"], ["-1e308,0", "1e308,0"]], ids=["subnormal", "overflow"])
def test_render_rejects_times_whose_span_has_no_room_for_the_bins(tmp_path, capsys, body):
    # The first span is too narrow for bins of normal width, the second
    # overflows; the plots' bins are checked before either file is written.
    rc, out_dir = _run(tmp_path, _biphoton_scenario(n_events=100, seed=2))
    assert rc == 0
    events = out_dir / "events_before.csv"
    events.write_text("# seed=2 window=none source=doctored\nt1_ps,t2_ps\n" + "".join(f"{row}\n" for row in body))
    capsys.readouterr()
    rc = cli.main(["render", str(out_dir / "runrecord.json"), "--out", str(tmp_path / "plots")])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1  # the error line alone, no numpy warning
    err = _strict_json(lines[0])
    assert err["error"] == "ValueError" and str(events) in err["message"]
    assert "bins of equal width" in err["message"]
    assert not (tmp_path / "plots").exists()


def test_render_fails_when_events_file_vanished(tmp_path, capsys):
    rc, out_dir = _run(tmp_path, _biphoton_scenario(n_events=100, seed=2))
    assert rc == 0
    (out_dir / "events_before.csv").unlink()
    rc = cli.main(["render", str(out_dir / "runrecord.json")])
    assert rc == 2
    assert "missing" in _stderr_error(capsys)["message"]


# ---------------------------------------------------------------------------
# Determinism and configuration plumbing.

def test_repeated_runs_are_identical_apart_from_timestamp(tmp_path):
    scenario = _biphoton_scenario(n_events=500, seed=12)
    rc1, dir1 = _run(tmp_path, scenario, out="first")
    rc2, dir2 = _run(tmp_path, scenario, out="second")
    assert rc1 == rc2 == 0
    rec1, rec2 = _record(dir1), _record(dir2)
    rec1.pop("created_utc")
    rec2.pop("created_utc")
    assert rec1 == rec2
    for label in ("before", "plus", "minus"):
        name = f"events_{label}.csv"
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()


def test_normalize_is_idempotent_and_hash_is_stable():
    scenario = _covariance_scenario()
    once = cli.normalize_scenario(scenario)
    twice = cli.normalize_scenario(once)
    assert once == twice
    assert cli.scenario_hash(once) == cli.scenario_hash(copy.deepcopy(once))
    bumped = copy.deepcopy(once)
    bumped["kit"]["beta_L_ps2"] = 0.75
    assert cli.scenario_hash(bumped) != cli.scenario_hash(once)


def test_output_directory_precedence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("NLDC_OUT_DIR", str(env_dir))

    scenario = _covariance_scenario()
    path = _write(tmp_path, "prec.json", scenario)
    assert cli.main(["run", str(path)]) == 0
    assert (env_dir / "runrecord.json").exists()

    scenario_dir = tmp_path / "from_scenario"
    scenario["outputs"] = {"dir": str(scenario_dir)}
    path = _write(tmp_path, "prec2.json", scenario)
    assert cli.main(["run", str(path)]) == 0
    assert (scenario_dir / "runrecord.json").exists()

    flag_dir = tmp_path / "from_flag"
    assert cli.main(["run", str(path), "--out", str(flag_dir)]) == 0
    assert (flag_dir / "runrecord.json").exists()

    scan = ["scan", "--param", "kit.beta_L_ps2", "--values", "1"]
    csv_name = "scan_kit_beta_L_ps2.csv"
    assert cli.main([*scan, str(path), "--out", str(flag_dir)]) == 0
    assert (flag_dir / csv_name).exists()
    assert cli.main([*scan, str(path)]) == 0
    assert (scenario_dir / csv_name).exists()
    plain = _write(tmp_path, "prec3.json", _covariance_scenario())
    assert cli.main([*scan, str(plain)]) == 0
    assert (env_dir / csv_name).exists()

    monkeypatch.delenv("NLDC_OUT_DIR")
    assert cli.main(["run", str(plain)]) == 0
    assert cli.main([*scan, str(plain)]) == 0
    assert (tmp_path / "nldc_out" / "runrecord.json").exists()
    assert (tmp_path / "nldc_out" / csv_name).exists()


REPO_ROOT = Path(__file__).resolve().parent.parent

# Imports `module:attr` (argv[1]) and calls it as the console script would,
# with argv[0] "nldc" and the remaining arguments as the command line.
_CALL_SCRIPT = """
import importlib, sys
module, _, attr = sys.argv[1].partition(":")
sys.argv = ["nldc", *sys.argv[2:]]
getattr(importlib.import_module(module), attr)()
"""


def _checkout_subprocess(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, env=env)


def test_loading_a_scenario_does_not_import_jsonschema(tmp_path):
    path = _write(tmp_path, "s.json", _stationary_scenario())
    code = "import sys; from nldc import cli; cli.load_scenario(sys.argv[1]); print('jsonschema' in sys.modules)"
    proc = _checkout_subprocess([sys.executable, "-c", code, str(path)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_export_list_is_every_name_the_package_binds():
    # The names nldc/__init__.py binds by its imports and assignments (not
    # the submodules that importing them loads), each exported once.
    import nldc

    bound = set()
    for node in ast.parse(Path(nldc.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(target.id for target in node.targets)
    bound.discard("__all__")
    assert sorted(nldc.__all__) == sorted(bound)
    namespace: dict = {}
    exec("from nldc import *", namespace)
    assert set(namespace) - {"__builtins__"} == bound


def test_console_script_entry_point(tmp_path):
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["nldc"] == "nldc.cli:entry"

    good = _write(tmp_path, "cli.json", _covariance_scenario())
    bad = _write(tmp_path, "nokit.json", {"state": _covariance_scenario()["state"]})
    script = [sys.executable, "-c", _CALL_SCRIPT, scripts["nldc"]]
    launchers = {"script": script, "module": [sys.executable, "-m", "nldc"]}
    installed = shutil.which("nldc")
    if installed is not None:
        launchers["installed"] = [installed]
    for name, launcher in launchers.items():
        out_dir = tmp_path / f"out_{name}"
        proc = _checkout_subprocess([*launcher, "run", str(good), "--out", str(out_dir)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "witness:" in proc.stdout
        assert (out_dir / "runrecord.json").exists()

    # entry() must hand main()'s exit code to the interpreter.
    proc = _checkout_subprocess([*script, "run", str(bad), "--out", str(tmp_path / "o")], tmp_path)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ScenarioError"
