"""Compare the outputs of two benchmark runs byte for byte.

    python3 bench/compare.py .bench_work/report-A.json .bench_work/report-B.json

Both reports must come from the same workload and seed.  For every cycle
both runs completed, the scenario hash and the sha256 of every file each
command wrote must agree.  Exits 0 when they all do, 1 otherwise.
"""

from __future__ import annotations

import json
import sys


def outputs(report: dict) -> dict:
    """{(cycle index, traced): (scenario hash, [digests per command])}."""
    return {
        (c["index"], c["traced"]): (c["scenario_sha256"], [cmd["digests"] for cmd in c["commands"]])
        for c in report["cycles"]
    }


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        sys.stderr.write(__doc__)
        return 2
    a, b = (json.load(open(p, encoding="utf-8")) for p in paths)
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        sys.stderr.write("reports differ in workload or seed\n")
        return 2
    left, right = outputs(a), outputs(b)
    common = sorted(left.keys() & right.keys())
    differing = [key for key in common if left[key] != right[key]]
    files = sum(len(d) for key in common for d in left[key][1])
    print(f"{a['workload']} seed {a['seed']}: {len(common)} cycles, {files} files compared, {len(differing)} differ")
    for index, traced in differing:
        print(f"  cycle {index}{' (traced)' if traced else ''} differs")
    return 1 if differing or not common else 0


if __name__ == "__main__":
    sys.exit(main())
