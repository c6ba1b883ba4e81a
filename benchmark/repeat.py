#!/usr/bin/env python3
"""Runs the benchmark the way the acceptance driver does and judges it by its
own bounds.

For every workload in BENCHMARK.json it makes `--sets` sets of `--seeds` untraced
runs (seeds 1..n), then prints, per end-to-end metric:

  spread   the distance between the first and third quartile of a set's values
           as a share of their median (statistics.quantiles(values, n=4));
  drift    how much worse the last set's median is than the first set's.

It exits with code 1 if a spread (except setup_s's) or a drift exceeds the
metric's bound. With --traced it also makes one traced run per workload and
set and lists the per-layer values (never judged). Run it from the repository
root; it builds through the command BENCHMARK.json names.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["correct"] is not True:
        sys.exit(f"{workload} seed {seed}: incorrect output")
    return result, time.monotonic() - started


def spread(values):
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worsening(first, last, better):
    return (last - first) / first if better == "lower" else (first - last) / first


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", help="write every run's result as JSON")
    options = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    command, seconds = benchmark["command"], benchmark["run_seconds"]
    rustc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE, text=True).stdout.strip()
    print(f"host: {platform.machine()} {platform.system()} {platform.release()}, "
          f"nproc {os.cpu_count()}, {rustc}")
    print(f"{options.sets} sets of {options.seeds} seeds, {seconds} s runs\n")

    runs, failed_bounds = [], []
    for workload in (w["name"] for w in benchmark["workloads"]):
        sets = []
        for index in range(options.sets):
            values = {m["name"]: [] for m in benchmark["end_to_end"]}
            for seed in range(1, options.seeds + 1):
                result, took = run(command, workload, seed, seconds, 0)
                runs.append({"workload": workload, "set": index, "seed": seed,
                             "trace": 0, "took_s": round(took, 1), "result": result})
                for name, metric in result["metrics"].items():
                    values[name].append(metric["value"])
                if result["failed"]:
                    print(f"  note: {workload} seed {seed}: "
                          f"{result['failed']} of {result['attempted']} lookups failed")
            sets.append(values)
            if options.traced:
                result, took = run(command, workload, 1, seconds, 1)
                runs.append({"workload": workload, "set": index, "seed": 1,
                             "trace": 1, "took_s": round(took, 1), "result": result})

        print(f"{workload}")
        print(f"  {'metric':<20} {'unit':<6} {'median':>14} {'bound':>6}  "
              + "  ".join(f"spread{i + 1}" for i in range(options.sets)) + "    drift")
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            spreads = [spread(values[name]) for values in sets]
            medians = [statistics.median(values[name]) for values in sets]
            drift = worsening(medians[0], medians[-1], metric["better"])
            verdict = ""
            if name != "setup_s" and max(spreads) > bound:
                verdict = "  SPREAD OVER BOUND"
            elif name != "setup_s" and max(spreads) > bound / 3:
                verdict = "  (spread over a third of the bound)"
            if drift > bound:
                verdict += "  DRIFT OVER BOUND"
            if "OVER" in verdict:
                failed_bounds.append(f"{workload}/{name}")
            print(f"  {name:<20} {metric['unit']:<6} {medians[0]:>14.6g} {bound:>6.3f}  "
                  + "  ".join(f"{s:>7.4f}" for s in spreads) + f"  {drift:>+7.4f}{verdict}")
        print()

    if options.traced:
        print("per-layer values of the traced runs (seed 1), one column per workload and set")
        traced = [r for r in runs if r["trace"] == 1]
        for metric in benchmark["per_layer"]:
            cells = "  ".join(f"{r['result']['metrics'][metric['name']]['value']:>12.6g}"
                              for r in traced)
            print(f"  {metric['name']:<36} {metric['unit']:<6} {cells}")
        print()
    longest = max(r["took_s"] for r in runs)
    print(f"{len(runs)} runs, {sum(r['took_s'] for r in runs):.0f} s in all, longest {longest} s")
    if options.out:
        with open(options.out, "w") as handle:
            lines = ",\n".join(json.dumps(r, separators=(",", ":")) for r in runs)
            handle.write(f"[\n{lines}\n]\n")
    if failed_bounds:
        sys.exit("over their bound: " + ", ".join(failed_bounds))
    print("every spread and drift is within its bound")


if __name__ == "__main__":
    main()
