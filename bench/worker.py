"""One timed run of one workload, in a process of its own.

Drives `nldc.cli.main(argv)` in process, one command at a time (a closed
loop with a single client), for at most `--seconds` seconds after two
untimed warm-up cycles.  Every command's exit code and outputs are
checked, its written bytes counted and its outputs digested; the cycle
directory is then removed.  With `--trace 1` every cycle runs twice, untraced and
traced in alternating order, so the run also measures the tracing
overhead and checks that tracing leaves the outputs unchanged.

The result goes to `--report` as JSON; the spans of a traced run go next
to it.  Nothing is printed on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, cycle_rng

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _digest(path: Path) -> str:
    if path.name == "runrecord.json":
        record = json.loads(path.read_bytes())
        record.pop("created_utc", None)
        data = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def _snapshot(directory: Path) -> dict:
    if not directory.is_dir():
        return {}
    return {p.name: (st.st_size, st.st_mtime_ns) for p in directory.iterdir() for st in [p.stat()]}


def run_cycle(cli, workload, seed: int, index: int, work: Path, tracer=None) -> dict:
    """Generate cycle `index`'s scenario, run its commands, check and digest the outputs."""
    cycle_dir = work / f"cycle{index}"
    scenario_path = cycle_dir / "scenario.json"
    out_dir = cycle_dir / "out"
    scenario, commands = workload.cycle(cycle_rng(seed, workload.name, index), index, scenario_path, out_dir)
    cycle_dir.mkdir(parents=True)
    text = json.dumps(scenario, sort_keys=True, indent=1)
    scenario_path.write_text(text, encoding="utf-8")
    results = []
    for k, command in enumerate(commands):
        before = _snapshot(out_dir)
        if tracer is not None:
            tracer.command = (index, k)
        stderr = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                rc = cli.main(command.argv)
        except (Exception, SystemExit) as err:  # a crash is a failed command, not a failed benchmark
            rc = f"raised {type(err).__name__}: {err}"
        wall = time.perf_counter() - start
        if rc == 0:
            try:
                failures = command.check(out_dir)
            except Exception as err:  # an unreadable output fails the check
                failures = [f"check raised {type(err).__name__}: {err}"]
        else:
            failures = [f"exit {rc}: {stderr.getvalue().strip()}"]
        after = _snapshot(out_dir)
        written = sorted(name for name, stat in after.items() if before.get(name) != stat)
        results.append({
            "kind": command.kind,
            "wall_s": wall,
            "failures": failures,
            "bytes": sum(after[name][0] for name in written),
            "digests": {name: _digest(out_dir / name) for name in written},
        })
    shutil.rmtree(cycle_dir)
    return {
        "index": index,
        "scenario_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "traced": tracer is not None,
        "wall_s": sum(r["wall_s"] for r in results),
        "commands": results,
    }


def machine_facts(workload) -> dict:
    import numpy as np

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None
        return int(out) if out.isdigit() else None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "working_set": {
            "complex128_grid_shape": [workload.grid_n] * workload.grid_dims,
            "grid_array_bytes": 16 * workload.grid_n ** workload.grid_dims,
            "event_arrays_bytes_per_run": 3 * 2 * 8 * workload.events,  # 3 batches of (t1, t2) float64
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--report", type=Path, required=True)
    args = parser.parse_args(argv)

    from nldc import cli

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    for warm_up in (-2, -1):  # the heap, FFT plans and page cache settle over two cycles
        run_cycle(cli, workload, args.seed, warm_up, args.work)
    cycles = []
    start = time.perf_counter()
    index = 0
    last = 0.0  # wall time of the previous cycle: stop before one would overrun --seconds
    while index == 0 or time.perf_counter() - start + last <= args.seconds:
        begin = time.perf_counter()
        if tracer is None:
            cycles.append(run_cycle(cli, workload, args.seed, index, args.work))
        else:
            passes = []
            for traced in (index % 2 == 1, index % 2 == 0):  # alternate which pass goes first
                if traced:
                    tracer.install()
                try:
                    passes.append(run_cycle(cli, workload, args.seed, index, args.work, tracer if traced else None))
                finally:
                    tracer.uninstall()
            cycles.extend(passes)
        last = time.perf_counter() - begin
        index += 1
    measured = time.perf_counter() - start

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "measured_s": measured,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "machine": machine_facts(workload),
        "points_per_cycle": workload.points,
        "cycles": cycles,
    }
    if tracer is not None:
        for cycle in cycles:
            if cycle["traced"]:
                for k, command in enumerate(cycle["commands"]):
                    key = (cycle["index"], k)
                    command["layers"] = tracer.layer_totals([key])
                    command["traced_root_s"] = tracer.root_seconds(key)
                    command["self_sum_s"] = sum(v[1] for v in command["layers"].values())
        spans_path = args.report.with_name(args.report.stem + "-spans.json")
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
        report["spans"] = spans_path.name
    args.report.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
