"""Tests of the benchmark's own logic: self-time arithmetic on a synthetic
span tree, failure counting, and seeded input generation."""

import csv
import gzip
import os

import pytest

import run
import tracing
import workloads
from tracing import Span


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("oracle.compare", 1.0, 3.0, 0, 0),
        Span("integrators.propagate", 2.0, 5.0, 0, 0),  # overlaps its sibling
        Span("state.velocity", 2.5, 3.5, 2, 0),  # grandchild of cli.main
        Span("reconstruction.eval", 9.0, 12.0, 0, 0),  # runs past the parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 2.0, 2.0, 1.0, 3.0])


def test_operation_metrics_split_oracle_self_time_and_count_unique_runs():
    key = ("same initial", "same potential")
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("oracle.compare", 0.0, 4.0, 0, 0, {"steps": 100, "key": key}),
        Span("integrators.propagate", 0.0, 1.0, 1, 0, {"steps": 10, "snapshots": 2}),
        Span("potential.eval", 0.5, 0.75, 2, 0),
        Span("oracle.compare", 4.0, 8.0, 0, 0, {"steps": 100, "key": key}),
        Span("reconstruction.eval", 5.0, 5.5, 4, 0, {"points": 500}),
    ]
    metrics = tracing.operation_metrics(spans, tracing.self_times(spans))
    assert metrics["oracle.runs"] == 2
    assert metrics["oracle.self_s"] == pytest.approx(3.0 + 3.5)
    assert metrics["oracle.step_us"] == pytest.approx(6.5 / 200 * 1e6)
    assert metrics["oracle.unique_run_ratio"] == 0.5
    assert metrics["integrators.self_s"] == pytest.approx(0.75)
    assert metrics["integrators.step_us"] == pytest.approx(1.0 / 10 * 1e6)
    assert metrics["reconstruction.ns_per_point"] == pytest.approx(0.5 / 500 * 1e9)
    assert metrics["cli.self_s"] == pytest.approx(2.0)
    assert metrics["initialization.fit_calls"] == 0


def test_wrappers_are_removed_after_the_traced_block():
    tdse_cli = pytest.importorskip("tdse.cli")
    original = tdse_cli.propagate
    with tracing.installed(tracing.Tracer()):
        assert tdse_cli.propagate is not original
    assert tdse_cli.propagate is original


def _fake_compare(outputs):
    """A stand-in for tdse.cli.main that writes the given compare.csv texts
    in turn and reports success."""
    texts = iter(outputs)

    def main(argv):
        out = argv[argv.index("--out") + 1]
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "compare.csv"), "w", encoding="utf-8") as handle:
            handle.write(next(texts))
        print("status=completed")
        return 0

    return main


GOOD = "t,l2_distance,d_mean_x,d_norm\n0.5,1.0e-06,0.0,0.0\n"


@pytest.mark.parametrize(
    "second, reason",
    [
        (GOOD.replace("1.0e-06", "1.1e-06"), "outputs differ"),
        (GOOD.replace("1.0e-06", "nan"), "non-finite"),
        (GOOD.replace("1.0e-06", "0.5"), "exceeds 1e-2"),
    ],
)
def test_a_corrupted_output_counts_as_a_failed_operation(tmp_path, second, reason):
    workload = workloads.QUARTIC_COMPARE
    packets = workloads.make_packets(workload, 0, count=1)
    loop = run.Loop(workload, packets, ["unused.cfg"], str(tmp_path))
    main = _fake_compare([GOOD, second])
    assert loop.run(0, main) is not None
    assert loop.run(0, main) is None
    assert (loop.attempted, len(loop.failures)) == (2, 1)
    assert reason in loop.failures[0]
    assert loop.wall and len(loop.wall) == 1


def test_a_failing_exit_code_counts_as_a_failed_operation(tmp_path):
    workload = workloads.QUARTIC_COMPARE
    loop = run.Loop(workload, workloads.make_packets(workload, 0, 1), ["x.cfg"], str(tmp_path))
    assert loop.run(0, lambda argv: 2) is None
    assert "exit 2" in loop.failures[0]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_the_same_seed_generates_the_same_configs(workload):
    w = workloads.WORKLOADS[workload]

    def configs(seed):
        return [workloads.config_text(w, p) for p in workloads.make_packets(w, seed)]

    assert configs(7) == configs(7)
    assert configs(7) != configs(8)
    for p in workloads.make_packets(w, 7):
        assert w.x0[0] <= p.x0 <= w.x0[1]
        assert w.sigma[0] <= p.sigma <= w.sigma[1]
        assert w.k0[0] <= p.k0 <= w.k0[1]


def test_tail_reports_the_highest_percentile_with_ten_samples_above():
    assert run.tail(list(range(100))) == "p90 89 s, 10 samples above, n=100"
    assert "too few" in run.tail(list(range(10)))


def test_undisturbed_is_the_nearest_rank_10th_percentile():
    assert run.undisturbed(list(range(100, 0, -1))) == 10
    assert run.undisturbed([5.0, 3.0, 4.0]) == 3.0
    assert run.undisturbed(list(range(1, 12))) == 2


def test_an_exception_inside_the_program_counts_as_a_failed_operation(tmp_path):
    def crash(argv):
        raise ZeroDivisionError("inside tdse")

    workload = workloads.DENSE_RUN
    loop = run.Loop(workload, workloads.make_packets(workload, 0, 1), ["x.cfg"], str(tmp_path))
    assert loop.run(0, crash) is None
    assert "ZeroDivisionError" in loop.failures[0]


def test_spans_are_written_once_as_a_csv_that_reads_back(tmp_path):
    spans = [Span("cli.main", 0.0, 2.0, None, 3), Span("config.load", 0.5, 1.0, 0, 3)]
    path = tmp_path / "spans" / "w.csv.gz"
    tracing.write_spans(spans, str(path))
    with gzip.open(path, "rt", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows == [["name", "start", "end", "parent", "op"],
                    ["cli.main", "0.0", "2.0", "", "3"],
                    ["config.load", "0.5", "1.0", "0", "3"]]
