#!/usr/bin/env python3
"""End-to-end benchmark of the S-RAPS digital twin.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator and the `perfbench` program from this checkout (Release,
into .bench_build/perfbench), checks the program's own arithmetic
(`perfbench selftest`), generates the workload's inputs from the seed, runs
one workload for about S seconds and prints, as the last line of standard
output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run.  BENCHMARK.json names the workloads and the metrics with
their units; perfbench/metrics.json defines each metric per workload and
maps the layers to the end-to-end metrics and to the workloads they are
measured on.  fail_ratio is failed / attempted.  The lines before the last one give the environment stamp
(nproc, build type, compiler, commit, seed), notes and any failed check.
Exits non-zero when a check fails or nothing could be measured.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no simulator sources next to {HERE}: nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"],
    ]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd)} did not finish: {e}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")


def commit_id():
    """The git commit when this is a git checkout, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "no git checkout; sources sha256 " + digest.hexdigest()


def run(cmd, timeout):
    """Runs cmd with its output on stderr; the process is waited for even
    when it times out."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd[:3])} exceeded {timeout} s")


def load_contract():
    """BENCHMARK.json and perfbench/metrics.json, checked against each other.
    Returns the workload names, the end-to-end and per-layer units by name,
    and the workloads each per-layer metric is measured on."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in contract["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    measured_on = {}
    for layer in spec["layers"].values():
        measured_on.update(layer["metrics"])
    if set(measured_on) != set(per_layer):
        fail("metrics.json layers and BENCHMARK.json per_layer name different metrics: "
             f"{sorted(set(measured_on) ^ set(per_layer))}")
    for name, defs in spec["end_to_end"].items():
        if name not in end_to_end or set(defs) != set(workloads):
            fail(f"metrics.json defines end-to-end metric {name} for {sorted(defs)}; "
                 f"BENCHMARK.json has it: {name in end_to_end}, workloads {workloads}")
    if set(spec["end_to_end"]) != set(end_to_end):
        fail("metrics.json and BENCHMARK.json name different end-to-end metrics")
    return workloads, end_to_end, per_layer, measured_on


def main():
    # A SIGTERM unwinds like any error: subprocess.run kills and waits for
    # the running child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: fail("terminated"))
    workloads, end_to_end, per_layer, measured_on = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within [1, 60]")

    build()
    if run([BINARY, "selftest"], 60) != 0:
        fail("the benchmark's own arithmetic checks failed")

    work = os.path.join(ROOT, ".bench_build", "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    result_path = os.path.join(work, "result.json")
    cmd = [BINARY, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--result", result_path, "--commit", commit_id()]
    if args.trace:
        cmd += ["--spans", os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        if args.workload == "m100_cli":
            data = os.path.join(work, "m100")
            if run([BINARY, "generate-m100", "--seed", str(args.seed), "--dir", data], 120) != 0:
                fail("dataset generation failed")
            cmd += ["--data", data]
        code = run(cmd, RUN_TIMEOUT_S)
        if code != 0 or not os.path.isfile(result_path):
            fail(f"the {args.workload} run exited with code {code}")
        with open(result_path) as f:
            result = json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # The program reports what it measured.  Each metric the contract expects
    # of this workload must be there, and nothing else; a per-layer metric
    # of a layer the workload does not exercise reads 0.
    attempted, failed = result["attempted"], result["failed"]
    failures = list(result["failures"])
    got = result["metrics"]
    if args.trace:
        units = per_layer
        expected = {m for m, on in measured_on.items() if args.workload in on}
    else:
        units = end_to_end
        expected = set(units)
    metrics = {}
    if result["correct"]:
        for name in sorted(expected | set(got)):
            attempted += 1
            if name not in expected:
                failed += 1
                failures.append(f"reported {name}, which metrics.json says "
                                f"{args.workload} does not measure")
            elif name not in got:
                failed += 1
                failures.append(f"{name} was not measured")
        for name, unit in units.items():
            metrics[name] = {"value": got.get(name, 0.0), "unit": unit}

    print("env " + json.dumps(result["env"], sort_keys=True))
    for note in result["notes"]:
        print("note " + note)
    for failure in failures:
        print("FAILED " + failure)
    print(f"fail_ratio {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} operations)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics if correct else {}}))
    sys.exit(0 if correct and attempted > 0 else 1)


if __name__ == "__main__":
    main()
