"""The command line contract over extreme covariance and stationary scenarios.

A bare covariance state has no grid, so each example runs in milliseconds.
Every covariance field, every kit field and jitter_sigma_ps is drawn from
values at the edges of the float range (and past it, as a JSON integer
that no float holds), of either sign, and each scenario goes through
`nldc run` and `nldc scan --param kit.beta_L_ps2` in process.  Whatever
the values, the command must end in one of the three exit codes: 0 with
nothing on stderr and a strict-JSON run record, or 2 or 3 with exactly one
strict-JSON error line and no output file; and it must raise no warning.
Stationary scenarios keep the same contract on grids of 8 to 256 cells:
flat or Gaussian spectra, the classical-extremal cross, the window and the
kit drawn from the same values, and half of them sampled.

`nldc render` keeps the same contract over doctored inputs: a run record
of a small biphoton run with parts of the wrong type, nested too deep or
pointing at an events file that is missing or a directory, and events
files with bad first lines, sources holding XML markup, bodies of 0 to 3
columns and times at the edges of the float range.  Exit 0 writes two
SVG files that parse as XML.
"""

import contextlib
import copy
import io
import json
import sys
import warnings
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldc import cli
from test_cli import _biphoton_scenario, _strict_json

_MAGNITUDES = (0, 5e-324, 1e-155, 1, 1e154, 1e155, 1e300, sys.float_info.max, 10 ** 400)
_COVARIANCE_FIELDS = ("var_tau_ps2", "var_omega_rad2_ps2", "cov_tau_omega", "mean_tau_ps", "mean_omega_rad_ps")
_KIT_FIELDS = ("beta_L_ps2", "delay_1_ps", "delay_2_ps")

# Half the draws are 1, and one extreme value in five is negative, so that most scenarios pass the
# schema and reach the algebra with a few extreme fields.
_extremes = st.builds(lambda m, sign: -m if sign == 0 else m, st.sampled_from(_MAGNITUDES), st.integers(0, 4))
_numbers = st.one_of(st.just(1), _extremes)


@st.composite
def _scenarios(draw):
    return {
        "state": {"covariance": {name: draw(_numbers) for name in _COVARIANCE_FIELDS}},
        "kit": {name: draw(_numbers) for name in _KIT_FIELDS},
        "jitter_sigma_ps": draw(_numbers),
    }


def _outcome(argv, out_dir):
    """(exit code, stderr lines, warning messages) of cli.main(argv + --out out_dir)."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([*argv, "--out", str(out_dir)])
    return rc, err.getvalue().splitlines(), [str(w.message) for w in caught]


def _check_contract(argv, out_dir, output):
    rc, lines, caught = _outcome(argv, out_dir)
    assert rc in (0, 2, 3) and not caught, (rc, lines, caught)
    if rc:
        assert len(lines) == 1, lines
        assert {"error", "message"} <= set(_strict_json(lines[0]))
        assert not out_dir.exists() or not any(p.is_file() for p in out_dir.rglob("*"))
    else:
        assert lines == []
        for name in output:
            assert (out_dir / name).is_file()
    return rc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_scenarios(), _numbers, _numbers, st.booleans())
def test_covariance_scenarios_keep_the_command_line_contract(tmp_path_factory, scenario, a, b, joined):
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "scenario.json"
    path.write_text(json.dumps(scenario))
    if _check_contract(["run", str(path)], root / "run", ["runrecord.json"]) == 0:
        _strict_json((root / "run" / "runrecord.json").read_text())
    # A list that starts with a minus reads as an option unless joined to its flag by "="
    values = [f"--values={a!r},{b!r}"] if joined else ["--values", f"{a!r},{b!r}"]
    scan = ["scan", str(path), "--param", "kit.beta_L_ps2", *values]
    _check_contract(scan, root / "scan", ["scan_kit_beta_L_ps2.csv"])


# A stationary scenario draws up to 13 numbers, so one in four is extreme (one in two above), so that most
# scenarios pass the schema and reach the sampler with a few extreme fields.  Each is one draw from a table
# (1, or a magnitude of one sign in five negative), as the nested draws took half the time of the property.
_EXTREME_FIELDS = tuple(sign * m for m in _MAGNITUDES for sign in (1, 1, 1, 1, -1))
_fields = st.sampled_from((1,) * (3 * len(_EXTREME_FIELDS)) + _EXTREME_FIELDS)
# Spectra: flat or Gaussian, and for the cross also the classical extreme.
_spectra = st.one_of(
    st.builds(lambda value: {"flat": {"value": value}}, _fields),
    st.builds(
        lambda *v: {"gaussian": dict(zip(("peak", "sigma_rad_ps", "center_rad_ps"), v))}, _fields, _fields, _fields
    ),
)
# Windows whose before-batch var_tau, about T^2/6 with no jitter, has a square that underflows (1e-85) or
# an error term that can overflow (1e-70).
_windows = st.one_of(st.sampled_from([1e-85, 1e-70]), _fields)
_samplers = st.fixed_dictionaries({"n_events": st.integers(2, 1000), "seed": st.integers(0, 9)})


@st.composite
def _stationary_scenarios(draw):
    scenario = {
        "state": {
            "stationary": {
                "grid": {"n": draw(st.sampled_from([8, 16, 64, 256])), "domega_rad_ps": 0.0625},
                "s1": draw(_spectra),
                "s2": draw(_spectra),
                "cross": draw(st.one_of(st.just("classical-extremal"), _spectra)),
                "window_T_ps": draw(_windows),
            }
        },
        "kit": {name: draw(_fields) for name in _KIT_FIELDS},
        "jitter_sigma_ps": draw(st.one_of(st.just(0), _fields)),
    }
    sampler = draw(st.one_of(_samplers, st.none()))
    if sampler is not None:
        scenario["sampler"] = sampler
    return scenario


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_stationary_scenarios(), _numbers, _numbers)
def test_stationary_scenarios_keep_the_command_line_contract(tmp_path_factory, scenario, a, b):
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "scenario.json"
    path.write_text(json.dumps(scenario))
    if _check_contract(["run", str(path)], root / "run", ["runrecord.json"]) == 0:
        _strict_json((root / "run" / "runrecord.json").read_text())
    scan = ["scan", str(path), "--param", "kit.beta_L_ps2", f"--values={a!r},{b!r}"]
    _check_contract(scan, root / "scan", ["scan_kit_beta_L_ps2.csv"])


@pytest.fixture(scope="module")
def sampled_record(tmp_path_factory):
    """The run record and events CSV text of one small sampled biphoton run."""
    root = tmp_path_factory.mktemp("record")
    path = root / "scenario.json"
    path.write_text(json.dumps(_biphoton_scenario(n_events=100, seed=2)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(path), "--out", str(root / "run")]) == 0
    record = json.loads((root / "run" / "runrecord.json").read_text())
    return record, (root / "run" / "events_before.csv").read_text()


def _check_render(root, record_text, events_text):
    """The render contract for a record and an events CSV written into root; both SVGs are whole on exit 0."""
    (root / "runrecord.json").write_text(record_text)
    (root / "events_before.csv").write_text(events_text)
    out_dir = root / "plots"
    plots = ["scatter.svg", "tau_hist.svg"]
    if _check_contract(["render", str(root / "runrecord.json")], out_dir, plots) == 0:
        for name in plots:
            svg = (out_dir / name).read_text()
            assert svg.startswith("<svg") and svg.endswith("</svg>\n")
            ET.fromstring(svg)  # well-formed XML


# Each doctored record sets one part of the run's record, named by its key
# path, to a value: a wrong type, lists nested past the JSON parser's depth,
# or an events path that is missing or a directory.
_DEEP = "[" * 100_000 + "]" * 100_000
_BEFORE = ("sampling", "events", "before")
_RECORD_DOCTORS = [
    *((path, value) for path in [(), ("sampling",), ("sampling", "events"), _BEFORE]
      for value in [None, 3, "x", [], [1], {}, _DEEP]),
    *((_BEFORE, value) for value in ["absent.csv", ".", ""]),
]


@pytest.mark.parametrize("path, value", _RECORD_DOCTORS,
                         ids=[f"{'.'.join(p) or 'record'}={str(v)[:8]}" for p, v in _RECORD_DOCTORS])
def test_doctored_records_keep_the_render_contract(tmp_path, sampled_record, path, value):
    record, events = sampled_record
    holder = {"root": copy.deepcopy(record)}
    node, keys = holder, ("root", *path)
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    _check_render(tmp_path, json.dumps(holder["root"]).replace(json.dumps(_DEEP), _DEEP), events)


# A doctored events file changes its first line, its header or its number
# of columns, or keeps them and draws its times.
_FIRST_LINES = (
    "# seed=2 window=-1e308,1e308 source=wide",
    "# seed=2 window=1,0 source=reversed",
    "# seed=3",
    "# seed=x window=none source=y",
    "",
)
_TIMES = (0.0, 1.0, -2.5, 5e-324, -5e-324, 1e308, -1e308, sys.float_info.max)


@st.composite
def _events(draw):
    first = f"# seed=2 window=none source={draw(st.text('doctored<&>', max_size=8))}"
    header, columns = "t1_ps,t2_ps", 2
    part = draw(st.sampled_from(["times", "times", "first line", "header", "columns"]))
    if part == "first line":
        first = draw(st.sampled_from(_FIRST_LINES))
    elif part == "header":
        header = "t1_ps"
    elif part == "columns":
        columns = draw(st.sampled_from([0, 1, 3]))
    rows = draw(st.lists(st.lists(st.sampled_from(_TIMES), min_size=columns, max_size=columns), min_size=1, max_size=4))
    return "".join(f"{line}\n" for line in [first, header, *(",".join(map(repr, row)) for row in rows)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_events())
def test_doctored_events_keep_the_render_contract(tmp_path_factory, sampled_record, events):
    record, _ = sampled_record
    _check_render(tmp_path_factory.mktemp("render"), json.dumps(record), events)
