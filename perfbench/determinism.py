#!/usr/bin/env python3
"""Determinism self-check: every count metric repeats exactly across runs.

Runs the benchmark command of BENCHMARK.json twice traced and twice
untraced on one workload and seed, and compares the metrics that must not
move between runs: every per-layer count (`*.allocs`, `route.site_*`,
`route.prune_ratio`, `stage.stages`, `emit.instructions`, `emit.transfers`,
`service.*` counts) and the end-to-end `log_infidelity_mean` and
`exec_time_us_geomean`. Every run must also be correct with no failed
request.

    python3 perfbench/determinism.py --workload paper-table2 --seed 77 --seconds 40

Run it from the repository root. Exits 0 when everything repeats, 1 if not.
"""

import argparse
import json
import subprocess
import sys

TRACED_COUNTS = (
    "circuit.parse_allocs",
    "content.hash_allocs",
    "stage.allocs",
    "stage.stages",
    "route.allocs",
    "route.site_scans",
    "route.sites_pruned",
    "route.prune_ratio",
    "emit.instructions",
    "emit.transfers",
    "service.hits",
    "service.stage_hits",
    "service.misses",
)
UNTRACED_COUNTS = ("log_infidelity_mean", "exec_time_us_geomean")


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(args, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(args)} was not correct:\n{done.stderr}")
    # The traced run's span-closure summary, one line per kind of root span.
    for line in done.stderr.splitlines():
        if "roots:" in line:
            print(line)
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        command = json.load(f)["command"]
    same = True
    for trace, names in ((1, TRACED_COUNTS), (0, UNTRACED_COUNTS)):
        first, second = (run(command, args.workload, args.seed, args.seconds, trace)
                         for _ in range(2))
        for name in names:
            ok = first[name] == second[name]
            same &= ok
            print(f"{name:<24} {first[name]!r:>24} {second[name]!r:>24}"
                  f"  {'same' if ok else 'DIFFERENT'}")
    print("every count repeats" if same else "some counts differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
