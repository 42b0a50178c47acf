"""Tests for the benchmark's own code: tracer, correctness gate, digests.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from workloads import WORKLOADS, gate, markov_steps, report_digest, scenario  # noqa: E402

import sesame  # noqa: E402
from sesame import experiments  # noqa: E402
from sesame.collector import DesignMatrix  # noqa: E402
from sesame.experiments import ErrorReport  # noqa: E402

MOLDING = WORKLOADS["molding_t61"]


def _bindings() -> dict:
    """Every attribute of the package's modules, plus the wrapped methods."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "sesame" or name.startswith("sesame."):
            for attr, value in vars(mod).items():
                seen[(name, attr)] = value
    seen["predict_rows"] = vars(sesame.EnergyModel)["predict_rows"]
    seen["cumulative"] = vars(sesame.Trace)["cumulative"]
    seen["svd"] = np.linalg.svd
    return seen


def test_self_times_are_non_negative_and_sum_to_traced_wall(tmp_path):
    runner = run.Runner(MOLDING, scenario(MOLDING, None), str(tmp_path))
    tracer = Tracer(run.TARGETS)
    wall, _ = runner.run_once(tracer)
    assert runner.failed == 0
    own = tracer.self_times()
    assert min(own) >= -1e-9
    assert sum(own) == pytest.approx(tracer.wall_s(), rel=1e-9)
    # the root span is the run itself; only the wrapper call sits outside it
    assert tracer.wall_s() <= wall
    assert tracer.wall_s() == pytest.approx(wall, rel=1e-3)
    assert not tracer.absent
    metrics = run.layer_metrics(tracer, runner.sc)
    assert metrics["constructor.svd_calls"] == 7
    assert metrics["tracesim.cumulative_series"] == 4


def test_calls_through_either_binding_nest():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.1, 1.0, size=(40, 3))
    dm = DesignMatrix(interval_s=100.0, columns=("a", "b", "c"),
                      kinds=("residency",) * 3, x=x,
                      t_start_s=np.arange(40) * 100.0,
                      y=5.0 + x @ np.array([1.0, 2.0, 3.0]))
    with Tracer(run.TARGETS) as tracer:
        experiments.iterate_construction(dm, 0.0)
    names = [s.name for s in tracer.spans]
    assert names[0] == "constructor.iterate_construction"
    assert names.count("constructor.build_model") == 3
    assert all(s.parent == 0 for s in tracer.spans
               if s.name == "constructor.build_model")
    assert tracer.counts["constructor.svd_calls"] > 0


def test_originals_are_restored_also_after_an_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer(run.TARGETS):
            assert experiments.run_scenario is not before[
                ("sesame.experiments", "run_scenario")]
            raise RuntimeError("boom")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_missing_targets_are_reported_absent():
    targets = [Target("sesame.constructor", "compress_renamed", "gone.fn"),
               Target("sesame.no_such_module", "f", "gone.module"),
               Target("sesame.tracesim", "TraceSampleGone.x", "gone.method")]
    with Tracer(targets) as tracer:
        pass
    assert tracer.absent == ["gone.fn", "gone.module", "gone.method"]


def _report(rows) -> ErrorReport:
    report = ErrorReport("fake", 0)
    for rate, estimator, err in rows:
        report.add(rate, estimator, err)
    return report


def test_gate_rejects_a_wrong_report():
    sc = scenario(MOLDING, None)
    good = _report([(1.0, "molded_l2", 0.04), (100.0, "molded_l2", 0.09)])
    bad = _report([(1.0, "molded_l2", 0.20), (100.0, "molded_l2", 0.09)])
    assert gate(MOLDING, sc, good) == []
    assert len(gate(MOLDING, sc, bad)) == 1

    reg = WORKLOADS["regressogram_quadratic"]
    swapped = _report([(rate, est, err) for rate in (1.0, 100.0)
                       for est, err in (("linear_molded", 0.03),
                                        ("regressogram", 0.12))])
    assert len(gate(reg, scenario(reg, None), swapped)) == 2


def test_repetitions_at_one_seed_give_equal_digests(tmp_path):
    runner = run.Runner(MOLDING, scenario(MOLDING, 101), str(tmp_path))
    runner.run_once()
    first = runner.digest
    runner.run_once()
    assert runner.digest == first
    assert (runner.attempted, runner.failed) == (2, 0)
    # a mismatch counts as a failed run and does not raise
    runner.digest = "0" * 64
    runner.run_once()
    assert (runner.attempted, runner.failed) == (3, 1)


def test_digest_covers_names_and_bytes(tmp_path):
    (tmp_path / "report.csv").write_text("a,b\n1,2\n")
    first = report_digest(str(tmp_path))
    (tmp_path / "report.csv").write_text("a,b\n1,3\n")
    assert report_digest(str(tmp_path)) != first
    (tmp_path / "report.csv").rename(tmp_path / "other.csv")
    assert report_digest(str(tmp_path)) != first


def test_markov_steps_from_the_scenario():
    assert markov_steps(scenario(MOLDING, None)) == 210_000
    assert markov_steps(scenario(WORKLOADS["adaptation_dvs"], None)) == 405_000


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER_UNITS
