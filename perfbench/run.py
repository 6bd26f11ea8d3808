#!/usr/bin/env python3
"""The tdse benchmark: one seeded workload, run in-process as a closed loop
(one client, one operation at a time) for a fixed time, with every output
checked.

    python3 perfbench/run.py --workload quartic_compare --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout that holds `src/tdse`; it imports the
package from there.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
(BENCHMARK.json "end_to_end"), measured with tracing off; with --trace 1
they are the per-layer ones ("per_layer"), taken from spans recorded
around the calls into each tdse module, with untraced and traced
operations alternating so the tracing overhead can be measured.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# fresh interpreters timed for setup_s, spread evenly over the run so that a
# slow stretch of the shared machine reaches only a few of them
SETUP_SAMPLES = 41

# where a traced run writes its spans; each workload's file holds its last
# traced run
SPANS_DIR = os.path.join(ROOT, ".perfbench-spans")

# what a CLI user pays before any work: importing tdse.cli and loading the
# config, timed inside a fresh interpreter
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import tdse.cli
t1 = time.perf_counter()
tdse.cli.load_config(sys.argv[2])
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def _units(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one operation in a fresh process and report its peak RSS
    parser.add_argument("--rss-child", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _import_tdse():
    """tdse.cli from this checkout's src/, never from elsewhere on the path."""
    if not os.path.isfile(os.path.join(SRC, "tdse", "cli.py")):
        raise SystemExit(f"error: no tdse sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import tdse.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(tdse.cli.__file__))) != SRC:
        raise SystemExit(f"error: imported tdse from {tdse.cli.__file__}, not {SRC}")
    return tdse.cli


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _write_configs(workload, packets, work: str) -> list:
    paths = []
    for i, packet in enumerate(packets):
        path = os.path.join(work, f"variant{i}.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(workloads.config_text(workload, packet))
        paths.append(path)
    return paths


def _child(argv, timeout: float = 60.0) -> str:
    done = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"child {argv[1:3]} exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout.strip().splitlines()[-1]


class Setup:
    """Times SETUP_SAMPLES fresh interpreters that import tdse.cli and load
    the config, taken one at a time between operations over `seconds`."""

    def __init__(self, config: str, seconds: float):
        self.config = config
        self.interval = seconds / SETUP_SAMPLES
        self.samples = []
        self._sample()  # warms the file cache; not kept
        self.samples.clear()
        self.start = time.perf_counter()

    def _sample(self) -> None:
        line = _child([sys.executable, "-c", SETUP_CHILD, SRC, self.config])
        self.samples.append(tuple(map(float, line.split())))

    @property
    def done(self) -> bool:
        return len(self.samples) >= SETUP_SAMPLES

    def tick(self) -> None:
        """Take the next sample if it is due."""
        if not self.done and time.perf_counter() >= self.start + len(self.samples) * self.interval:
            self._sample()

    def medians(self) -> tuple:
        """Medians of (import_s, load_s, import_s + load_s)."""
        return (
            statistics.median(s[0] for s in self.samples),
            statistics.median(s[1] for s in self.samples),
            statistics.median(s[0] + s[1] for s in self.samples),
        )


def measure_peak_rss(args, work: str) -> float:
    line = _child(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--rss-child", work],
        timeout=120.0,
    )
    return float(line)


def rss_child(args) -> int:
    """One operation of variant 0 in this fresh process; prints peak RSS in MB."""
    cli_module = _import_tdse()
    workload = workloads.WORKLOADS[args.workload]
    packet = workloads.make_packets(workload, args.seed)[0]
    work = _fresh_dir(os.path.join(args.rss_child, "rss"))
    config = _write_configs(workload, [packet], work)[0]
    workloads.run_operation(workload, workloads.Cli(cli_module.main), config, work, packet)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return 0


class Loop:
    """Runs operations back to back and keeps their timings and checks."""

    def __init__(self, workload, packets, configs, work):
        self.workload = workload
        self.packets = packets
        self.configs = configs
        self.op_dir = os.path.join(work, "op")
        self.reference = {}  # variant -> output bytes of its first run
        self.attempted = 0
        self.failures = []
        self.wall = []
        self.cpu = []
        self.errors = {}  # variant -> error_final

    def run(self, variant: int, main) -> dict | None:
        """One operation; returns its output bytes, or None if it failed."""
        self.attempted += 1
        work = _fresh_dir(self.op_dir)
        cli = workloads.Cli(main)
        try:
            error = workloads.run_operation(
                self.workload, cli, self.configs[variant], work, self.packets[variant]
            )
            outputs = workloads.output_bytes(work)
            expected = self.reference.setdefault(variant, outputs)
            if outputs != expected:
                changed = sorted(k for k in outputs.keys() | expected.keys()
                                 if outputs.get(k) != expected.get(k))
                raise workloads.CheckFailed(f"outputs differ from the first repeat: {changed}")
        except workloads.CheckFailed as exc:
            self.failures.append(f"variant {variant}: {exc}")
            return None
        except Exception:  # a crash inside tdse is a failed operation too
            self.failures.append(f"variant {variant}: {traceback.format_exc(limit=-3)}")
            return None
        self.errors[variant] = error
        self.wall.append(cli.wall)
        self.cpu.append(cli.cpu)
        return outputs


def undisturbed(values: list) -> float:
    """The 10th percentile (nearest rank) of per-operation times.  Other
    tenants of a shared machine slow a varying share of a run's operations
    by up to ~1.8x; the median of a run flips with that share, while the
    fastest tenth stays within a few percent from run to run."""
    return sorted(values)[-(-len(values) // 10) - 1]


def tail(values: list) -> str:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return f"n={n}, too few samples for a tail percentile"
    p = (100 * (n - 10)) // n
    rank = -(-p * n // 100)  # nearest-rank: ceil(p/100 * n)
    value = sorted(values)[rank - 1]
    return f"p{p} {value:.6g} s, {n - rank} samples above, n={n}"


def run_untraced(loop: Loop, setup: Setup, seconds: float, cli_main) -> None:
    deadline = setup.start + seconds
    i = 0
    while time.perf_counter() < deadline or i < 2 * len(loop.packets) or not setup.done:
        loop.run(i % len(loop.packets), cli_main)
        setup.tick()
        i += 1


def run_traced(loop: Loop, setup: Setup, seconds: float, cli_main) -> tuple:
    """Alternate untraced and traced operations on the same variant; the
    traced outputs must match the untraced bytes."""
    tracer = tracing.Tracer()
    traced_wall, written = [], []
    deadline = setup.start + seconds
    i = 0
    while time.perf_counter() < deadline or i < len(loop.packets) or not setup.done:
        variant = i % len(loop.packets)
        loop.run(variant, cli_main)
        tracer.op = i
        with tracing.installed(tracer):
            outputs = loop.run(variant, tracer.wrap("cli.main", cli_main))
        if outputs is not None:
            traced_wall.append(loop.wall.pop())
            loop.cpu.pop()
            written.append((sum(v.count(b"\n") - 1 for v in outputs.values()),
                            sum(len(v) for v in outputs.values())))
        setup.tick()
        i += 1
    return tracer, traced_wall, written


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.rss_child:
        return rss_child(args)
    cli_module = _import_tdse()
    workload = workloads.WORKLOADS[args.workload]
    packets = workloads.make_packets(workload, args.seed)

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        configs = _write_configs(workload, packets, work)
        loop = Loop(workload, packets, configs, work)
        if not args.trace:
            peak_rss_mb = measure_peak_rss(args, work)
        setup = Setup(configs[0], args.seconds)
        if args.trace:
            tracer, traced_wall, written = run_traced(loop, setup, args.seconds, cli_module.main)
        else:
            run_untraced(loop, setup, args.seconds, cli_module.main)
        import_s, load_s, setup_s = setup.medians()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(loop.failures)
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} variants={len(packets)}")
    print(f"  {'fail_ratio':34s} {failed / loop.attempted:.6g} ({failed} of {loop.attempted} operations)")
    for failure in loop.failures[:10]:
        print(f"  FAILED {failure}")

    metrics = {}
    if args.trace:
        units = _units("per_layer")
        spans = os.path.join(SPANS_DIR, f"{workload.name}.csv.gz")
        tracing.write_spans(tracer.spans, spans)
        print(f"  {len(tracer.spans)} spans written to {os.path.relpath(spans, ROOT)}")
        if traced_wall and loop.wall:
            metrics = tracing.layer_metrics(tracer.spans)
            metrics["config.load_s"] = load_s
            metrics["setup.import_s"] = import_s
            metrics["cli.rows_written"] = statistics.median(r for r, _ in written)
            metrics["cli.bytes_written"] = statistics.median(b for _, b in written)
            metrics["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(loop.wall)
    else:
        units = _units("end_to_end")
        if loop.wall:
            print(f"  wall_s median {statistics.median(loop.wall):.6g} s, tail {tail(loop.wall)}")
            print(f"  cpu_s median {statistics.median(loop.cpu):.6g} s")
            metrics = {
                "wall_s": undisturbed(loop.wall),
                "cpu_s": undisturbed(loop.cpu),
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
                "error_final": statistics.median(loop.errors.values()),
            }
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")

    result = {
        "correct": failed == 0 and metrics.keys() == units.keys(),
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
