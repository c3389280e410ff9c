#!/usr/bin/env python3
"""CI perf-regression gate for the engine benches.

Reads one or more google-benchmark JSON result files, takes the median of
each bench's repetitions (--benchmark_repetitions), compares the
`sim_s_per_wall_s` throughput counters against the checked-in baseline
(bench/bench_baseline.json), and fails (exit 1) when

  * a benchmark named in the baseline regressed by more than the tolerance
    (default 15 %, the CI gate of ISSUE 2), or
  * a speedup ratio named in the baseline (e.g. the event-calendar vs
    tick-loop sparse speedup) fell below its floor — ratios divide two
    measurements from the *same* run, so they hold across machines of very
    different absolute speed, and are the primary gate, or
  * a benchmark/counter named in the baseline is MISSING from the results —
    in every mode, including --update (a silently skipped bench reads as
    "no regression" when the regression is total).  Removing a bench on
    purpose requires --update --allow-missing.

Absolute throughputs differ between CI runners and laptops, so absolute
comparisons only run with --absolute (CI sets it: the runner fleet is
homogeneous enough for a 15 % band).  Regenerate the baseline after an
intentional perf change with:

    ./bench_engine_throughput --benchmark_format=json > results.json
    python3 bench/check_regression.py --update results.json

Only the Python standard library is used.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "bench_baseline.json"


def load_results(paths):
    """Merges benchmark-name -> benchmark object across result files.

    A bench run with --benchmark_repetitions=N contributes N rows under one
    name; every numeric field of the merged object is the median of those
    rows, so one noisy repetition can neither pass nor fail a gate.  The
    library's own aggregate rows (mean/median/stddev) are ignored."""
    runs = {}
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        for b in data.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue
            runs.setdefault(b["name"], []).append(b)
    merged = {}
    for name, rows in runs.items():
        bench = dict(rows[-1])
        for key, value in rows[-1].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                bench[key] = statistics.median(
                    r[key] for r in rows if isinstance(r.get(key), (int, float)))
        merged[name] = bench
    return merged


def counter_of(results, name, counter):
    bench = results.get(name)
    if bench is None:
        return None
    return bench.get(counter)


def check(baseline, results, tolerance, absolute):
    """Returns (failures, notes).  Every failure is ONE self-contained line
    prefixed `PERF-FAIL` with key=value fields (name, counter, measured,
    floor/baseline, ratio), so a CI log can be triaged with a single
    `grep PERF-FAIL` — the bench name and the measured-vs-floor ratio land
    on the same line."""
    failures = []
    notes = []
    # Absolute bands only mean something against a baseline measured on the
    # same fleet.  Until someone regenerates the baseline from a CI run
    # (--update --calibrate), absolute misses are reported but not fatal.
    calibrated = baseline.get("calibrated", False)
    for name, entry in sorted(baseline.get("benchmarks", {}).items()):
        counter = entry.get("counter", "sim_s_per_wall_s")
        want = entry["value"]
        got = counter_of(results, name, counter)
        if got is None:
            failures.append(
                f"PERF-FAIL MISSING name={name} counter={counter} "
                f"reason=benchmark-or-counter-not-in-results")
            continue
        ratio = got / want if want else float("inf")
        line = f"{name} [{counter}]: {got:.3g} vs baseline {want:.3g} ({ratio:.2f}x)"
        if absolute and got < want * (1.0 - tolerance):
            if calibrated:
                failures.append(
                    f"PERF-FAIL REGRESSED name={name} counter={counter} "
                    f"measured={got:.6g} baseline={want:.6g} "
                    f"ratio={ratio:.2f}x floor={1.0 - tolerance:.2f}x")
            else:
                notes.append(f"UNCALIBRATED baseline, not enforced: {line}")
        else:
            notes.append(f"ok        {line}")
    for rname, spec in sorted(baseline.get("ratios", {}).items()):
        counter = spec.get("counter", "sim_s_per_wall_s")
        num = counter_of(results, spec["numerator"], counter)
        den = counter_of(results, spec["denominator"], counter)
        if num is None or den is None:
            failures.append(
                f"PERF-FAIL MISSING name={rname} counter={counter} "
                f"numerator={spec['numerator']} denominator={spec['denominator']} "
                f"reason=ratio-operands-not-in-results")
            continue
        ratio = num / den if den else float("inf")
        line = f"ratio {rname}: {ratio:.2f}x (floor {spec['min']:.2f}x)"
        if ratio < spec["min"]:
            failures.append(
                f"PERF-FAIL BELOW-FLOOR name={rname} counter={counter} "
                f"measured={ratio:.2f}x floor={spec['min']:.2f}x "
                f"numerator={spec['numerator']} denominator={spec['denominator']}")
        else:
            notes.append(f"ok        {line}")
    return failures, notes


def update(baseline, results):
    """Rewrites baseline values in place.  Returns (name, counter) pairs for
    benches named in the baseline but absent from the results — the caller
    decides whether that is fatal."""
    missing = []
    for name, entry in baseline.get("benchmarks", {}).items():
        counter = entry.get("counter", "sim_s_per_wall_s")
        got = counter_of(results, name, counter)
        if got is not None:
            entry["value"] = got
        else:
            missing.append((name, counter))
    return missing


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", nargs="+", help="google-benchmark JSON output files")
    ap.add_argument("--baseline", default=str(BASELINE))
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional throughput drop (default 0.15)")
    ap.add_argument("--absolute", action="store_true",
                    help="also gate absolute throughputs, not just ratios")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from these results and exit")
    ap.add_argument("--allow-missing", action="store_true",
                    help="with --update: keep (do not fail on) baseline benches "
                         "absent from the results, e.g. after deleting a bench")
    ap.add_argument("--calibrate", action="store_true",
                    help="with --update: mark the baseline as measured on the "
                         "enforcing fleet, making absolute misses fatal")
    args = ap.parse_args(argv)

    with open(args.baseline) as f:
        baseline = json.load(f)
    results = load_results(args.results)

    if args.update:
        missing = update(baseline, results)
        if missing and not args.allow_missing:
            for name, counter in missing:
                print(f"PERF-FAIL MISSING name={name} counter={counter} "
                      f"reason=benchmark-or-counter-not-in-results",
                      file=sys.stderr)
            print("\nbaseline NOT updated: a bench named in the baseline did "
                  "not run.  Re-run it, or pass --allow-missing if it was "
                  "removed on purpose.", file=sys.stderr)
            return 1
        for name, counter in missing:
            print(f"warning: {name} [{counter}] not in results; keeping old value")
        if args.calibrate:
            baseline["calibrated"] = True
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    failures, notes = check(baseline, results, args.tolerance, args.absolute)
    for line in notes:
        print(line)
    for line in failures:
        print(line, file=sys.stderr)
    if failures:
        print(f"\nperf gate FAILED ({len(failures)} issue(s)); if intentional, "
              f"regenerate with: python3 bench/check_regression.py --update "
              f"<results.json>", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
