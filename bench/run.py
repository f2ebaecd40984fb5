"""nldc benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
`src/`, nothing is installed).  The run

1. times set-up: a fresh interpreter importing `nldc.cli` and loading the
   run's first scenario, SETUP_REPEATS times after one unmeasured probe;
2. runs the workload in a child process (`worker.py`) for S seconds,
   checking every command's outputs;
3. prints a summary, writes a detailed report under `.bench_work/`, and
   prints as its last line one JSON object with `correct`, `attempted`,
   `failed` and `metrics`: the `end_to_end` metrics of BENCHMARK.json with
   `--trace 0`, its `per_layer` metrics with `--trace 1`.

Timings are medians over cycles, a cycle being one generated scenario taken
through the workload's commands.  Per-layer values are medians over traced
cycles of each cycle's total; a layer a workload never calls reads 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, cycle_rng

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
RUN_TIMEOUT_S = 170.0
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from nldc import cli; cli.load_scenario(sys.argv[2])"
)


def fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def tail(values: list) -> dict | None:
    """The highest percentile with at least ten samples above it, or None."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        return None
    return {"percentile": 100.0 * (k + 1) / len(ordered), "value": ordered[k]}


def timing_summary(values: list) -> dict:
    return {"median": statistics.median(values), "tail": tail(values), "samples": len(values)}


def time_setup(scenario_path: Path) -> list:
    argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(scenario_path)]
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)  # no timeout: it would poll in 50 ms steps
        samples.append(time.perf_counter() - start)
    return samples[1:]


def mark_trace_mismatches(cycles: list) -> None:
    """A traced pass must write exactly what the untraced pass of its cycle wrote."""
    by_index: dict = {}
    for cycle in cycles:
        by_index.setdefault(cycle["index"], {})[cycle["traced"]] = cycle
    for pair in by_index.values():
        untraced, traced = pair[False], pair[True]
        for a, b in zip(untraced["commands"], traced["commands"]):
            if a["digests"] != b["digests"]:
                b["failures"].append("outputs differ from the untraced pass")


def end_to_end(report: dict, setup: list) -> dict:
    cycles = report["cycles"]
    commands = [c for cycle in cycles for c in cycle["commands"]]
    passed = sum(1 for c in commands if not c["failures"])
    return {
        "setup_s": statistics.median(setup),
        "cycle_s": statistics.median(c["wall_s"] for c in cycles),
        "peak_rss_mb": report["peak_rss_mb"],
        "output_mb": sum(c["bytes"] for c in commands) / len(commands) / 1e6,
        "pass_ratio": passed / len(commands),
    }


def per_layer(report: dict, names: list) -> dict:
    cycles = report["cycles"]
    traced = [c for c in cycles if c["traced"]]
    untraced = [c for c in cycles if not c["traced"]]

    def per_cycle(cycle, layer, slot, kind=None):
        """Cycle total of one function (`module.function`) or of a whole module."""
        return sum(
            totals[slot]
            for cmd in cycle["commands"]
            if kind is None or cmd["kind"] == kind
            for name, totals in cmd["layers"].items()
            if name == layer or name.split(".")[0] == layer
        )

    def value(name):
        if name == "trace.overhead_s":
            plain = {c["index"]: c["wall_s"] for c in untraced}
            return statistics.median(c["wall_s"] - plain[c["index"]] for c in traced)
        head, _, stat = name.rpartition(".")
        if head.startswith("cmd.") and stat == "wall_s":
            walls = [cmd["wall_s"] for c in untraced for cmd in c["commands"] if cmd["kind"] == head[4:]]
            return statistics.median(walls) if walls else 0.0
        if stat == "calls_per_point":
            return statistics.median(per_cycle(c, head, 0) for c in traced) / report["points_per_cycle"]
        if stat == "calls_per_run":
            runs = sum(1 for cmd in traced[0]["commands"] if cmd["kind"] == "run")
            return statistics.median(per_cycle(c, head, 0, "run") for c in traced) / runs if runs else 0.0
        slot = {"calls": 0, "self_s": 1, "bytes": 2, "bytes_computed": 2}[stat]
        return statistics.median(per_cycle(c, head, slot) for c in traced)

    return {name: value(name) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nldc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nldc" / "cli.py").is_file():
        return fail(f"no nldc source tree under {ROOT / 'src'}; run from a source checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        scenario, _ = workload.cycle(cycle_rng(args.seed, workload.name, 0), 0, run_dir / "s.json", run_dir)
        scenario_path = run_dir / "setup.json"
        scenario_path.write_text(json.dumps(scenario), encoding="utf-8")
        setup = time_setup(scenario_path)

        report_path = WORK / f"report-{tag}.json"
        worker = [
            sys.executable, str(BENCH / "worker.py"), "--workload", workload.name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(run_dir), "--report", str(report_path),
        ]
        done = subprocess.run(worker, timeout=RUN_TIMEOUT_S, stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            sys.stderr.write(f"bench: worker exited with {done.returncode}\n")
            return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    report = json.loads(report_path.read_text(encoding="utf-8"))
    if args.trace:
        mark_trace_mismatches(report["cycles"])
    values = per_layer(report, [m["name"] for m in wanted]) if args.trace else end_to_end(report, setup)
    commands = [c for cycle in report["cycles"] for c in cycle["commands"]]
    failed = [c for c in commands if c["failures"]]

    report["setup_s"] = setup
    report["timings"] = {
        "setup_s": timing_summary(setup),
        "cycle_s": timing_summary([c["wall_s"] for c in report["cycles"] if not c["traced"]]),
    }
    for kind in sorted({c["kind"] for c in commands}):
        walls = [cmd["wall_s"] for c in report["cycles"] if not c["traced"] for cmd in c["commands"] if cmd["kind"] == kind]
        report["timings"][f"{kind}_s"] = timing_summary(walls)
    if args.trace:
        traced = [cmd for c in report["cycles"] if c["traced"] for cmd in c["commands"]]
        report["self_sum_over_root"] = timing_summary([cmd["self_sum_s"] / cmd["traced_root_s"] for cmd in traced])
        report["root_over_wall"] = timing_summary([cmd["traced_root_s"] / cmd["wall_s"] for cmd in traced])
    report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")

    for name, t in report["timings"].items():
        tail_text = f", p{t['tail']['percentile']:.0f} {t['tail']['value']:.4f}" if t["tail"] else ""
        print(f"{name}: median {t['median']:.4f}{tail_text} (n={t['samples']})")
    if args.trace:
        print(f"trace overhead: {values['trace.overhead_s']:.4f} s per cycle; self-time sum / root span: "
              f"median {report['self_sum_over_root']['median']:.6f}; root span / command wall: "
              f"median {report['root_over_wall']['median']:.6f}")
    for c in failed:
        print(f"FAILED {c['kind']}: {'; '.join(c['failures'])}")
    print(f"report: {report_path.relative_to(ROOT)}")
    result = {
        "correct": not failed,
        "attempted": len(commands),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
