"""The row-block pool behind the n x n kernels and the event samplers, and
the forked children that format the large text tables.

The pool must deliver errors whole and late, never start a thread it does
not need, run nested and forked calls without deadlock, and leave every
output byte and every public call where a single thread would: the CLI
writes the same files on one, two and three workers, and a span tracer
that wraps the package's public functions sees every call on the calling
thread.  The table writer must reap every child it forks, report every
child that fails, kill its children when its own group fails, leave no
part behind, and hold no more memory in the calling process than one
worker does; `render` writes no such table and forks nothing.
"""

import json
import os
import signal
import sys
import threading
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from nldc import _blocks, cli
from nldc.biphoton import amplitude_moments, build_pdc_amplitude, to_time_domain
from nldc.sampler import EventBatch, events_from_csv, events_to_csv
from nldc.spectral import _CHUNK_ROWS, FrequencyGrid, _write_formatted_rows


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
    _blocks._for_blocks(1024, 1024, lambda r0, r1: calls.append((r0, r1, threading.current_thread())))
    assert calls == [(r0, r0 + 64, threading.current_thread()) for r0 in range(0, 1024, 64)]
    psi = build_pdc_amplitude(FrequencyGrid(n=512, domega=0.0625), 0.5, 3.0)
    amplitude_moments(psi)
    to_time_domain(psi)
    assert threading.active_count() == before


def test_four_blocks_over_three_workers(workers):
    workers(3)
    groups = {}  # the blocks each thread ran, in its order: one thread per group
    last_group_started = threading.Event()

    def fn(r0, r1):
        if r0 == 4:  # its thread stays busy until the group [2, 3] runs, so no thread runs both
            assert last_group_started.wait(timeout=30)
        if r0 == 8:
            last_group_started.set()
        groups.setdefault(threading.current_thread(), []).append((r0, r1))

    # 16 rows of a quarter block each: 4 blocks of 4 rows.
    _blocks._for_blocks(16, _blocks.BLOCK_CELLS // 4, fn)
    assert sorted(groups.values()) == [[(0, 4)], [(4, 8)], [(8, 12), (12, 16)]]
    assert groups[threading.current_thread()] == [(0, 4)]


def test_results_come_back_in_block_order(workers):
    workers(3)
    last_group_done = threading.Event()
    finished = []

    def fn(r0, r1):
        if r0 == 0:  # block 0, on the caller, waits until the group [2, 3] is done
            assert last_group_done.wait(timeout=30)
        finished.append(r0)
        if r0 == 12:
            last_group_done.set()
        return r0, r1

    results = _blocks._for_blocks(16, _blocks.BLOCK_CELLS // 4, fn)
    assert finished.index(12) < finished.index(0)
    assert results == [(0, 4), (4, 8), (8, 12), (12, 16)]
    # 6 rows: only the last block is short
    assert _blocks._for_blocks(6, _blocks.BLOCK_CELLS // 4, lambda r0, r1: (r0, r1)) == [(0, 4), (4, 6)]


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
# cells) sampled in batches of 40,000 events (3 chunks of CSV and SVG rows),
# and a stationary one sampled in batches of 200,000 events (4 blocks of
# events).

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
        "sampler": {"n_events": 40_000, "seed": 11},
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
    for count in (1, 2, 3):
        workers(count)
        _run_and_scan(tmp_path / f"workers{count}")
        outputs.append([_files(tmp_path / f"workers{count}" / d) for d in ("run", "scan", "stationary")])
    run, scan, stationary = outputs[0]
    assert {"runrecord.json", "scatter.svg", "tau_hist.svg"} <= run.keys()
    assert any(name.startswith("events_") for name in run) and "scan_kit_beta_L_ps2.csv" in scan
    assert {"events_before.csv", "events_plus.csv", "events_minus.csv"} <= stationary.keys()
    assert stationary["events_before.csv"].count(b"\n") == 2 + 200_000
    assert run["events_before.csv"].count(b"\n") == 2 + 40_000
    batch = events_from_csv(tmp_path / "workers1" / "run" / "events_before.csv")
    edges = cli._scatter_edges(batch)
    cells = np.count_nonzero(np.histogram2d(batch.t1, batch.t2, bins=(edges, edges))[0])
    assert 0 < run["scatter.svg"].count(b"fill-opacity") == cells  # one rect per non-empty heat-map cell
    assert outputs[0] == outputs[1] == outputs[2]


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


# ---------------------------------------------------------------------------
# The table writer: groups of row chunks formatted in forked children.

def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _events(rows=3 * _CHUNK_ROWS + 7):
    rng = np.random.default_rng(rows)
    return EventBatch(t1=rng.normal(0.0, 1e3, rows), t2=rng.normal(-5.0, 1e-3, rows), seed=5, source="t", window=None)


def _counting_forks(monkeypatch):
    """The pids os.fork returns in this process from now on."""
    real, pids = os.fork, []

    def fork():
        pid = real()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _failing_children(monkeypatch, how):
    """Make every forked child fail at its first chunk: raise, exit 3 or die by SIGKILL."""
    real, parent = np.column_stack, os.getpid()

    def column_stack(arrays):
        if os.getpid() != parent:
            if how == "raise":
                raise BlockError("in the child")
            if how == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return real(arrays)

    monkeypatch.setattr(np, "column_stack", column_stack)


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("rows", [0, 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 7])
def test_formatted_rows_match_the_serial_loop(tmp_path, monkeypatch, workers, count, rows):
    workers(count)
    forks = _counting_forks(monkeypatch)
    rng = np.random.default_rng(rows)
    cols = (rng.normal(0.0, 1e3, rows), rng.normal(-5.0, 1e-3, rows), np.arange(rows) * 0.1)
    template = "%.17g,%.17g,%.2f\n"
    path = tmp_path / "rows.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("head\n")  # still in the caller's buffer when the children fork
        _write_formatted_rows(fh, template, cols)
        fh.write("tail\n")
    expected = "head\n" + "".join(template % row for row in zip(*cols)) + "tail\n"
    assert path.read_bytes() == expected.encode("utf-8")
    chunks = -(-rows // _CHUNK_ROWS)
    assert len(forks) == max(min(count, chunks) - 1, 0)  # a table of one chunk or less forks nothing
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]
    _no_child_left()


@pytest.mark.parametrize("count", [1, 2, 3])
def test_short_groups_reach_the_file_in_order(tmp_path, workers, count):
    # Text this short stays in the text layer's buffer until a flush.
    workers(count)
    path = tmp_path / "chunks.txt"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _blocks._write_in_groups(fh, 5, lambda out, c0, c1: [out.write(f"chunk {c}\n") for c in range(c0, c1)])
        fh.write("end\n")
    assert path.read_text() == "".join(f"chunk {c}\n" for c in range(5)) + "end\n"
    _no_child_left()


@pytest.mark.parametrize("how", ["raise", "exit", "kill"])
def test_a_failing_child_fails_the_write_and_is_reaped(tmp_path, monkeypatch, workers, how):
    workers(3)
    forks = _counting_forks(monkeypatch)
    _failing_children(monkeypatch, how)
    path = tmp_path / "events.csv"
    with pytest.raises(OSError) as info:
        events_to_csv(_events(), path)
    assert str(path) in str(info.value)
    assert len(forks) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["events.csv"]
    _no_child_left()


def test_an_error_in_the_callers_own_group_reaps_every_child(tmp_path, monkeypatch, workers):
    workers(3)
    forks = _counting_forks(monkeypatch)
    real, parent = np.column_stack, os.getpid()
    markers, out = tmp_path / "markers", tmp_path / "out"
    markers.mkdir()
    out.mkdir()

    def column_stack(arrays):
        if os.getpid() == parent:
            raise BlockError("in the caller")
        time.sleep(10.0)  # still asleep when the caller fails; a child left alone writes its marker
        (markers / str(os.getpid())).touch()
        return real(arrays)

    monkeypatch.setattr(np, "column_stack", column_stack)
    with pytest.raises(BlockError):
        events_to_csv(_events(), out / "events.csv")
    assert len(forks) == 2
    assert list(markers.iterdir()) == []  # both children were killed in their first chunk
    assert [p.name for p in out.iterdir()] == ["events.csv"]
    _no_child_left()


@pytest.mark.parametrize("command", ["run"])  # render forks nothing (test_render_forks_no_process)
def test_a_failing_child_exits_2_with_one_json_line(tmp_path, capsys, monkeypatch, workers, command):
    workers(2)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_biphoton_scenario()))
    out = tmp_path / "run"
    _failing_children(monkeypatch, "raise")
    assert cli.main([command, str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0], parse_constant=lambda name: pytest.fail(f"non-standard JSON constant {name}"))
    assert err["error"] == "OSError"
    assert str(out / "events_before.csv") in err["message"]
    assert {p.name for p in out.iterdir()} <= {"events_before.csv", "runrecord.json", "events_plus.csv", "events_minus.csv"}
    _no_child_left()


def test_render_forks_no_process(tmp_path, monkeypatch, workers):
    # 40,000 events are three chunks of _CHUNK_ROWS, which a per-event table would format in children.
    workers(3)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_biphoton_scenario()))
    out = tmp_path / "run"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    forks = _counting_forks(monkeypatch)
    assert cli.main(["render", str(out / "runrecord.json")]) == 0
    assert forks == []
    assert {"scatter.svg", "tau_hist.svg"} <= {p.name for p in out.iterdir()}


def test_no_fork_warning_escapes_the_writer(tmp_path, monkeypatch, workers):
    # Python >= 3.12 warns in os.fork while other threads live, as the pool's do here.
    workers(2).run(2, lambda b0, b1: None)
    real = os.fork

    def fork():
        warnings.warn(
            f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to deadlocks in the child.",
            DeprecationWarning,
            stacklevel=2,
        )
        return real()

    monkeypatch.setattr(os, "fork", fork)
    batch = _events()
    events_to_csv(batch, tmp_path / "events.csv")  # the module's "error" filter fails on an escaped warning
    assert (tmp_path / "events.csv").read_text().count("\n") == 2 + len(batch.t1)
    _no_child_left()


def test_the_caller_holds_no_more_memory_on_two_workers(tmp_path, monkeypatch, workers):
    # Only the caller's peak counts, so a child stops tracing, which it would slow.
    real = _blocks._write_part
    monkeypatch.setattr(_blocks, "_write_part", lambda *args: (tracemalloc.stop(), real(*args)))
    batch = _events(1_000_000)
    peaks, sizes = [], []
    for count in (1, 2):
        workers(count)
        path = tmp_path / f"events{count}.csv"
        tracemalloc.start()
        try:
            events_to_csv(batch, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(path.stat().st_size)
    assert sizes[0] == sizes[1] > 30e6
    # About 2 MiB on either count: one chunk's values, tuple and text.  The
    # caller's part of the table is 19 MB of text, and so is the child's.
    # The allowance covers the writer's own bookkeeping (measured 5 KiB).
    assert peaks[0] < 4 * (1 << 20)
    assert peaks[1] <= peaks[0] + (64 << 10)
    _no_child_left()
