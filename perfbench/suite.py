#!/usr/bin/env python3
"""Run every benchmark workload over several seeds, one run at a time, and
report each end-to-end metric by name and unit with its median and its
spread between runs (interquartile range over median), next to the bound
BENCHMARK.json fixes for it.

    python3 perfbench/suite.py                      # 10 seeds per workload
    python3 perfbench/suite.py --seeds 1 --seconds 5
    python3 perfbench/suite.py --write-baseline perfbench/baseline.json
    python3 perfbench/suite.py --compare perfbench/baseline.json

With --write-baseline it also makes one traced run per workload and writes
the medians, the per-layer metrics and the machine's facts to that file.
With --compare it checks that no median is worse than the file's by more
than the metric's bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr}")
    *lines, result = done.stdout.strip().splitlines()
    print("\n".join(lines), flush=True)
    return json.loads(result)


def spread(values: list) -> float:
    """Distance between the first and third quartiles, over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _machine() -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--write-baseline", metavar="PATH")
    parser.add_argument("--compare", metavar="PATH")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    report, steady = {}, True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [_run(workload, seed, args.seconds, 0) for seed in seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"seeds": seeds, "attempted": attempted, "failed": failed,
                 "correct": all(r["correct"] for r in runs), "end_to_end": {}}
        print(f"== {workload}: {len(runs)} runs, fail_ratio {failed / attempted:.6g} "
              f"({failed}/{attempted})")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            row = {"median": statistics.median(values)}
            line = f"   {name:14s} median {row['median']:.6g} {metric['unit']}"
            if len(values) > 1:
                row["spread"] = spread(values)
                ok = row["spread"] < metric["bound"] / 3
                steady = steady and ok
                line += (f"  spread {row['spread']:.4f} of bound {metric['bound']}"
                         f"{'' if ok else '  NOT STEADY'}")
            entry["end_to_end"][name] = row
            print(line)
        report[workload] = entry

    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            before = json.load(handle)["workloads"]
        for workload, entry in report.items():
            for metric in bench["end_to_end"]:
                name = metric["name"]
                old = before[workload]["end_to_end"][name]["median"]
                new = entry["end_to_end"][name]["median"]
                worse = (new - old) / old
                if metric["better"] == "higher":
                    worse = -worse
                ok = worse <= metric["bound"]
                steady = steady and ok
                print(f"{workload} {name}: {old:.6g} -> {new:.6g} {metric['unit']}, "
                      f"worse by {worse:+.4f} (bound {metric['bound']}){'' if ok else '  WORSE'}")

    if args.write_baseline:
        for workload, entry in report.items():
            traced = _run(workload, seeds[0], args.seconds, 1)
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        baseline = {"machine": _machine(), "run_seconds": args.seconds, "workloads": report}
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2)
            handle.write("\n")
    return 0 if steady and all(e["correct"] for e in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
