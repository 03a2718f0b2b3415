#!/usr/bin/env python3
"""Determinism gate: whole-job results must match the committed record exactly.

    python3 tools/check_determinism.py [--write]

Run from the root of a source tree. For each workload the script runs

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0

and takes the `deterministic:` line the benchmark prints (fanout, assignment
digest, regime iteration counts, spilled MB, serve p99, migration MB). Each
line is compared exactly against tools/perfbench_deterministic.json; a
mismatch prints the differing keys and fails (exit 1). The four workloads take about 85 s on 4 cores after the
benchmark build.

A change that claims unchanged trajectories must leave the record as it is.
Regenerate it with --write only for a change that is meant to move results,
and say so in the change description.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "tools", "perfbench_deterministic.json")
WORKLOADS = ["shp2-k32", "shp2-k32-bsp", "shpk-k512-spill", "serve-powerlaw"]
SEED = 1
PREFIX = "deterministic: "


def run_workload(workload):
    """Returns the workload's deterministic record, or None on failure."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith(PREFIX)]
    if proc.returncode != 0 or not lines:
        print(f"{workload}: benchmark run failed (exit {proc.returncode})",
              file=sys.stderr)
        return None
    return json.loads(lines[-1][len(PREFIX):])


def diff(expected, got):
    """One line per key whose value differs between the two records."""
    keys = sorted(set(expected) | set(got))
    return [f"  {k}: expected {expected.get(k, '<missing>')!r}, "
            f"got {got.get(k, '<missing>')!r}"
            for k in keys if expected.get(k) != got.get(k)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the record instead of checking it")
    args = parser.parse_args()

    record = {"seed": SEED, "workloads": {}}
    if os.path.isfile(RECORD):
        with open(RECORD) as f:
            record = json.load(f)
    if record.get("seed") != SEED:
        sys.exit(f"{RECORD}: recorded seed {record.get('seed')} != {SEED}")

    failures = 0
    for workload in WORKLOADS:
        got = run_workload(workload)
        if got is None:
            failures += 1
            continue
        if args.write:
            record["workloads"][workload] = got
            print(f"{workload}: recorded")
            continue
        expected = record["workloads"].get(workload)
        if expected is None:
            print(f"{workload}: no recorded result in {RECORD}")
            failures += 1
        elif json.dumps(got, sort_keys=True) != json.dumps(expected,
                                                           sort_keys=True):
            print(f"{workload}: deterministic line differs from the record")
            print("\n".join(diff(expected, got)))
            failures += 1
        else:
            print(f"{workload}: identical")

    if args.write:
        with open(RECORD, "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
