"""The command line contract over extreme covariance scenarios.

A bare covariance state has no grid, so each example runs in milliseconds.
Every covariance field, every kit field and jitter_sigma_ps is drawn from
values at the edges of the float range (and past it, as a JSON integer
that no float holds), of either sign, and each scenario goes through
`nldc run` and `nldc scan --param kit.beta_L_ps2` in process.  Whatever
the values, the command must end in one of the three exit codes: 0 with
nothing on stderr and a strict-JSON run record, or 2 or 3 with exactly one
strict-JSON error line and no output file; and it must raise no warning.
"""

import contextlib
import io
import json
import sys
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from nldc import cli
from test_cli import _strict_json

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
        assert (out_dir / output).is_file()
    return rc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_scenarios(), _numbers, _numbers, st.booleans())
def test_covariance_scenarios_keep_the_command_line_contract(tmp_path_factory, scenario, a, b, joined):
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "scenario.json"
    path.write_text(json.dumps(scenario))
    if _check_contract(["run", str(path)], root / "run", "runrecord.json") == 0:
        _strict_json((root / "run" / "runrecord.json").read_text())
    # A list that starts with a minus reads as an option unless joined to its flag by "="
    values = [f"--values={a!r},{b!r}"] if joined else ["--values", f"{a!r},{b!r}"]
    _check_contract(["scan", str(path), "--param", "kit.beta_L_ps2", *values], root / "scan", "scan_kit_beta_L_ps2.csv")
