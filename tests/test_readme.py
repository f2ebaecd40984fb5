"""The README's examples run as written and give what their comments say."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from nldc import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(language, heading):
    """The first fenced `language` block after the README line `heading`."""
    text = README.read_text()
    fence = re.compile(rf"^```{language}\n(.*?)^```$", re.S | re.M)
    return fence.search(text, text.index(f"\n{heading}\n")).group(1)


def _matches(printed, comment):
    """Whether printed is comment, or a number that rounds to it at the comment's significant digits."""
    if printed == comment:
        return True
    digits = len(re.sub(r"e.*|\D", "", comment).lstrip("0"))
    return float(f"{float(printed):.{digits}g}") == float(comment)


def test_library_quick_tour_prints_its_commented_numbers():
    # Each print(...) line ends in a comment with what it prints, rounded.
    code = _block("python", "## Library quick tour")
    printed = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), namespace)
    comments = re.findall(r"^print\(.*\)\s*# (.+)$", code, re.M)
    lines = printed.getvalue().splitlines()
    assert len(comments) == len(lines) == 2
    for line, comment in zip(lines, comments):
        got, want = line.split(), comment.split()
        assert len(got) == len(want) and all(map(_matches, got, want)), (line, comment)
    # the sampled Var(tau) is the grid's plus the cell variance, within 5 standard errors
    stats, grid = namespace["stats"], namespace["grid"]
    assert abs(stats.var_tau - (namespace["cov"].var_tau + grid.dt ** 2 / 6.0)) <= 5.0 * stats.stderr


def test_command_line_scenario_is_valid():
    scenario = cli.normalize_scenario(json.loads(_block("json", "## Command line")))
    assert scenario["state"]["biphoton"]["grid"] == {"n": 1024, "domega_rad_ps": 0.0625}
    assert scenario["sampler"] == {"n_events": 100000, "seed": 7}
