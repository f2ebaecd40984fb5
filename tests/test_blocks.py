"""The row-block pool behind the n x n kernels and the event samplers.

The pool must deliver errors whole and late, never start a thread it does
not need, run nested and forked calls without deadlock, and leave every
output byte and every public call where a single thread would: the CLI
writes the same files on one worker as on two, and a span tracer that
wraps the package's public functions sees every call on the calling
thread.
"""

import json
import os
import signal
import sys
import threading
import time
import types

import pytest

from nldc import _blocks, cli
from nldc.biphoton import amplitude_moments, build_pdc_amplitude, to_time_domain
from nldc.spectral import FrequencyGrid


class BlockError(Exception):
    pass


# ---------------------------------------------------------------------------
# The pool.

@pytest.mark.parametrize("bad", range(4))
def test_an_error_reaches_the_caller_after_every_other_group_finished(workers, bad):
    pool = workers(3)  # groups of blocks [0], [1] and [2, 3]; the caller works [0]
    finished = []

    def fn(b0, b1):
        for block in range(b0, b1):
            if block == bad:
                raise BlockError(block)
            time.sleep(0.05)
            finished.append(block)

    with pytest.raises(BlockError) as info:
        pool.run(4, fn)
    assert info.value.args == (bad,)
    # Each group ran to its end, except the failing one, which stopped at its error.
    assert sorted(finished) == {0: [1, 2, 3], 1: [0, 2, 3], 2: [0, 1], 3: [0, 1, 2]}[bad]


def test_the_first_error_in_block_order_wins(workers):
    pool = workers(3)

    def fn(b0, b1):
        time.sleep(0.05 * (3 - b0))  # the last group fails first
        raise BlockError(b0)

    with pytest.raises(BlockError) as info:
        pool.run(3, fn)
    assert info.value.args == (0,)


def test_one_worker_starts_no_thread(workers):
    workers(1)
    before = threading.active_count()
    calls = []
    _blocks._for_row_blocks(1024, 1024, lambda r0, r1: calls.append((r0, r1, threading.current_thread())))
    assert calls == [(0, 1024, threading.current_thread())]
    psi = build_pdc_amplitude(FrequencyGrid(n=512, domega=0.0625), 0.5, 3.0)
    amplitude_moments(psi)
    to_time_domain(psi)
    assert threading.active_count() == before


def test_four_blocks_over_three_workers(workers):
    workers(3)
    calls = []
    # 16 rows of a quarter block each: 4 blocks of 4 rows.
    _blocks._for_row_blocks(16, _blocks.BLOCK_CELLS // 4, lambda r0, r1: calls.append((r0, r1, threading.current_thread())))
    assert sorted(c[:2] for c in calls) == [(0, 4), (4, 8), (8, 16)]
    assert [c[2] for c in calls if c[0] == 0] == [threading.current_thread()]


def test_a_call_from_a_pool_thread_runs_inline(workers):
    pool = workers(2)
    nested = {}

    def outer(b0, b1):
        here = threading.current_thread()
        seen = []
        pool.run(4, lambda c0, c1: seen.append((c0, c1, threading.current_thread())))
        nested[b0] = (here, seen)

    runner = threading.Thread(target=pool.run, args=(2, outer), daemon=True)
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive()
    here, seen = nested[1]  # on the pool thread: one inline group
    assert here is not runner and seen == [(0, 4, here)]
    here, seen = nested[0]  # on the calling thread: two groups, one on the pool
    assert here is runner and sorted(s[:2] for s in seen) == [(0, 2), (2, 4)]


def test_a_forked_child_starts_its_own_pool_threads(workers):
    pool = workers(2)
    pool.run(2, lambda b0, b1: None)  # the parent's pool thread is up now
    pid = os.fork()
    if pid == 0:  # the child, which must leave by os._exit alone
        code = 1
        try:
            ran = []
            _blocks._POOL.run(2, lambda b0, b1: ran.append(b0))
            code = 0 if sorted(ran) == [0, 1] else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while not (status := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on its parent's pool")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status[1]) == 0


# ---------------------------------------------------------------------------
# Through the command line: a biphoton state at n = 512 (4 blocks of grid
# cells) and a stationary one sampled in batches of 200,000 events (4 blocks
# of events).

def _biphoton_scenario():
    return {
        "state": {
            "biphoton": {
                "pump_sigma_rad_ps": 0.5,
                "pm_sigma_rad_ps": 2.5,
                "grid": {"n": 512, "domega_rad_ps": 0.075},
            }
        },
        "kit": {"beta_L_ps2": 1.0, "delay_1_ps": 0.3},
        "sampler": {"n_events": 2000, "seed": 11},
    }


def _stationary_scenario():
    gaussian = {"gaussian": {"peak": 1.0, "sigma_rad_ps": 1.0}}
    return {
        "state": {
            "stationary": {
                "grid": {"n": 1024, "domega_rad_ps": 0.0625},
                "s1": gaussian,
                "s2": gaussian,
                "cross": {"gaussian": {"peak": 1.2, "sigma_rad_ps": 1.0}},
                "window_T_ps": 20.0,
            }
        },
        "kit": {"beta_L_ps2": 5.0, "delay_1_ps": 0.3},
        "sampler": {"n_events": 200_000, "seed": 12},
    }


def _run_and_scan(base):
    """run + render and a beta_L scan of the biphoton scenario, and a run of the stationary one, under base."""
    base.mkdir()
    path = base / "scenario.json"
    path.write_text(json.dumps(_biphoton_scenario()))
    assert cli.main(["run", str(path), "--out", str(base / "run")]) == 0
    assert cli.main(["render", str(base / "run" / "runrecord.json")]) == 0
    argv = ["scan", str(path), "--param", "kit.beta_L_ps2", "--values", "0,0.5,1,2", "--out", str(base / "scan")]
    assert cli.main(argv) == 0
    path = base / "stationary.json"
    path.write_text(json.dumps(_stationary_scenario()))
    assert cli.main(["run", str(path), "--out", str(base / "stationary")]) == 0


def _files(directory):
    """{name: bytes} of a directory; the run record without its created_utc."""
    files = {}
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        if path.name == "runrecord.json":
            record = json.loads(data)
            record.pop("created_utc")
            data = json.dumps(record, sort_keys=True).encode()
        files[path.name] = data
    return files


def test_outputs_are_byte_identical_on_one_and_two_workers(tmp_path, workers):
    outputs = []
    for count in (1, 2):
        workers(count)
        _run_and_scan(tmp_path / f"workers{count}")
        outputs.append([_files(tmp_path / f"workers{count}" / d) for d in ("run", "scan", "stationary")])
    run, scan, stationary = outputs[0]
    assert {"runrecord.json", "scatter.svg", "tau_hist.svg"} <= run.keys()
    assert any(name.startswith("events_") for name in run) and "scan_kit_beta_L_ps2.csv" in scan
    assert {"events_before.csv", "events_plus.csv", "events_minus.csv"} <= stationary.keys()
    assert stationary["events_before.csv"].count(b"\n") == 2 + 200_000
    assert outputs[0] == outputs[1]


def test_every_public_call_runs_on_the_calling_thread(tmp_path, monkeypatch, workers):
    # A span tracer wraps every public function of every loaded nldc module
    # in every namespace that binds it, and keeps one span stack.
    workers(2)
    calls = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            calls.append((fn.__qualname__, threading.current_thread()))
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "nldc":
            continue
        for attr, value in list(vars(module).items()):
            if (
                isinstance(value, types.FunctionType)
                and value.__module__.split(".")[0] == "nldc"
                and not value.__name__.startswith("_")
            ):
                monkeypatch.setattr(module, attr, wrappers.setdefault(value, recording(value)))
    _run_and_scan(tmp_path / "traced")
    names = {name for name, _ in calls}
    assert {"build_pdc_amplitude", "apply_dispersion_phase", "to_time_domain", "to_time_2d", "amplitude_moments"} <= names
    assert {"sample_biphoton", "sample_stationary_sheared", "sample_tau_density"} <= names
    assert all(thread is threading.main_thread() for _, thread in calls)
