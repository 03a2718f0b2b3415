#!/usr/bin/env python3
"""Whole-job partition benchmark: build, set-up, jobs, checks, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The benchmark program (perfbench/job.cc) is
built with CMake under .bench_build/. Each run:

  1. sets up SETUP_REPS times: generates the workload's graph from --seed and
     writes it as an SHPG file (setup_s is the median);
  2. for shp2-k32-bsp and shpk-k512-spill, computes the once-per-run
     reference (threaded SHP-2, or SHP-k over an in-memory load);
  3. runs whole jobs, each in a fresh process, until --seconds have passed
     (at least MIN_JOBS). With --trace 1, untraced and traced jobs alternate,
     so the tracing overhead is the difference of their medians;
  4. checks every job's validation, the reference, and that every
     deterministic count repeated exactly across the run's jobs.

The last stdout line is the JSON result: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "shp_perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")

SETUP_REPS = 9
MIN_JOBS = {0: 3, 1: 4}  # trace 1 alternates, so at least 2 of each kind
RUN_BUDGET_S = 160  # measured part of a run, build excluded; hard stop
REFERENCE = {"shp2-k32-bsp": "fanout", "shpk-k512-spill": "digest"}
FANOUT_RTOL = 1e-4


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def die(message):
    log("perfbench:", message)
    sys.exit(1)


def check_call(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        die("command failed: " + " ".join(cmd))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("library sources (CMakeLists.txt, src/) not found in " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        check_call(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    check_call(["cmake", "--build", BUILD, "--target", "shp_perfbench",
                "-j", jobs])


def step(mode, workload, seed, work, trace, stop_at):
    """Runs one program step; returns its JSON line (ok=False on a crash).

    A step killed by a signal is run once more. ThreadPool::ParallelFor can
    destroy its stack-local done_mutex while the last worker is about to
    lock it, which under heavy host contention aborts about one process in
    a few hundred. The abort is logged; it says nothing about the workload.
    """
    cmd = [BINARY, f"--mode={mode}", f"--workload={workload}",
           f"--seed={seed}", f"--dir={work}", f"--trace={trace}"]
    # The program uses explicit pools; keep the library's global pool small
    # in case anything falls back to it.
    env = dict(os.environ, SHP_BENCH_THREADS="1")
    for attempt in range(2):
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                  timeout=max(1.0, stop_at - time.monotonic()))
        except subprocess.TimeoutExpired:
            die(f"{mode} did not finish within the run's {RUN_BUDGET_S} s")
        if proc.returncode >= 0 or attempt == 1:
            break
        log(f"{mode} killed by signal {-proc.returncode}, running it again:",
            proc.stderr.strip()[-400:])
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"ok": False}
    if proc.returncode != 0:
        result["ok"] = False
        result["error"] = (result.get("error", "") + " exit "
                           + str(proc.returncode) + ": "
                           + proc.stderr.strip()[-400:])
    return result


def deterministic_mismatches(jobs):
    """Keys of the deterministic record whose values differ between jobs."""
    values = {}
    for job in jobs:
        for key, value in job.get("det", {}).items():
            values.setdefault(key, set()).add(value)
    return sorted(key for key, seen in values.items() if len(seen) > 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload " + args.workload)
    build()

    work = os.path.join(ROOT, ".bench_build", "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result = measure(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


def measure(args, spec, work):
    stop_at = time.monotonic() + RUN_BUDGET_S
    setups = [step("setup", args.workload, args.seed, work, 0, stop_at)
              for _ in range(SETUP_REPS)]
    if not all(s["ok"] for s in setups):
        die("set-up failed: " + str([s.get("error") for s in setups]))
    size = setups[0]
    print(f"{args.workload} seed {args.seed}: {size['queries']:.0f} queries, "
          f"{size['data']:.0f} data, {size['pins']:.0f} pins")

    reference = None
    if args.workload in REFERENCE:
        reference = step("verify", args.workload, args.seed, work, 0, stop_at)
        if not reference["ok"]:
            die("reference run failed: " + reference.get("error", ""))

    jobs = []  # (traced, result)
    deadline = time.monotonic() + args.seconds
    while len(jobs) < MIN_JOBS[args.trace] or time.monotonic() < deadline:
        traced = args.trace == 1 and len(jobs) % 2 == 1
        jobs.append((traced, step("job", args.workload, args.seed, work,
                                  int(traced), stop_at)))
        if traced and os.path.isfile(os.path.join(work, "trace.json")):
            os.makedirs(TRACES, exist_ok=True)
            shutil.copy(os.path.join(work, "trace.json"),
                        os.path.join(TRACES, f"{args.workload}-{args.seed}.json"))
    measured = [r for _, r in jobs if "job_s" in r]
    if not measured:
        die("no job completed: " + str([r.get("error") for _, r in jobs]))

    failed = [r for _, r in jobs if not r["ok"]]
    for r in failed:
        log("job failed validation:", r.get("error"))
    mismatched = deterministic_mismatches(measured)
    if mismatched:
        log("deterministic values differ between jobs:", ", ".join(mismatched))
    if reference is not None:
        det = measured[0]["det"]
        key = REFERENCE[args.workload]
        if key == "fanout":
            agrees = (abs(det["fanout"] - reference["fanout"])
                      <= FANOUT_RTOL * reference["fanout"])
        else:
            agrees = det["digest"] == reference["digest"]
        if not agrees:
            log(f"output disagrees with the reference on {key}:",
                det[key], "vs", reference[key])
            failed = [r for _, r in jobs]
    correct = not failed and not mismatched

    # Serving counts served queries as its operations, the others jobs.
    serve = args.workload == "serve-powerlaw"
    attempted = max(1, sum(int(r.get("queries", 0)) if serve else 1
                           for _, r in jobs))
    failed_ops = sum(int(r.get("queries", 0)) if serve else 1 for r in failed)
    print("deterministic:", json.dumps(measured[0]["det"], sort_keys=True))

    untraced = [r for t, r in jobs if not t and "job_s" in r]
    traced = [r for t, r in jobs if t and "job_s" in r]
    if not untraced or (args.trace == 1 and not traced):
        die("no completed job of each kind the metrics need")
    median = statistics.median
    if args.trace == 0:
        det = measured[0]["det"]
        values = {
            "job_s": median(r["job_s"] for r in untraced),
            "setup_s": median(s["setup_s"] for s in setups),
            "fanout": det["fanout"],
            "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
            "serve_p99_end": det["serve_p99_end"],
            "serve_p99_during": det["serve_p99_during"],
            "migration_mb": det["migration_mb"],
        }
        metric_specs = spec["end_to_end"]
        print(f"{len(untraced)} jobs, job_s " + " ".join(
            f"{r['job_s']:.3f}" for r in untraced))
    else:
        values = {key: median(r["layers"][key] for r in traced)
                  for key in traced[0]["layers"]}
        values["trace.job_s"] = median(r["job_s"] for r in traced)
        values["trace.overhead_s"] = (values["trace.job_s"]
                                      - median(r["job_s"] for r in untraced))
        metric_specs = spec["per_layer"]
        print("shares of job_s: " + ", ".join(
            f"{key[6:]} {values[key]:.4f}" for key in sorted(values)
            if key.startswith("share.")))
    missing = [m["name"] for m in metric_specs if m["name"] not in values]
    if missing:
        die("metrics not produced: " + ", ".join(missing))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }


if __name__ == "__main__":
    main()
