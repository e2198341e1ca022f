"""Tests of the benchmark itself: python3 -m pytest perfbench -s"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import gate
import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: each workload at a few steps and a few bath modes, for the smoke run
TINY = {
    "certify-n256": {"n_env": 8, "points": 4},
    "evolve-n8": {"n_env": 8, "points": 20},
    "onset-n64": {"n_env": 8, "points": 10},
    "sweep-n8-512": {"sweep_ns": [4, 8]},
}


@pytest.fixture(scope="module")
def tiny_references(tmp_path_factory):
    """References of the tiny workloads, made from the current sources."""
    directory = tmp_path_factory.mktemp("references")
    work = tmp_path_factory.mktemp("work")
    gate.write_references(workloads.import_cli(ROOT), work, directory, TINY)
    return directory


def _write_output(path: Path, metadata: dict, table: str) -> None:
    path.write_text("".join(f"# {k}: {v}\n" for k, v in metadata.items()) + table)


def test_self_times_subtract_the_union_of_child_intervals():
    spans = [
        tracer.Span("root", 0.0, 10.0, -1),
        tracer.Span("a", 1.0, 4.0, 0),
        tracer.Span("g", 2.0, 3.0, 1),
        tracer.Span("b", 3.0, 6.0, 0),   # overlaps a: [1, 6] is covered once
        tracer.Span("c", 9.0, 12.0, 0),  # runs past its parent: only [9, 10] counts
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_bisection_iterations_count_gibbs_calls_under_each_critical_beta():
    gibbs = "symplectic.gibbs_covariance"
    spans = [
        tracer.Span("cli.run_sweep", 0.0, 10.0, -1),
        tracer.Span("certify.critical_beta", 0.0, 4.0, 0),
        tracer.Span(gibbs, 0.0, 1.0, 1),
        tracer.Span("other", 1.0, 3.0, 1),
        tracer.Span(gibbs, 1.0, 2.0, 3),
        tracer.Span(gibbs, 2.0, 3.0, 3),
        tracer.Span("certify.critical_beta", 5.0, 6.0, 0),
        tracer.Span(gibbs, 5.0, 6.0, 6),
        tracer.Span(gibbs, 7.0, 8.0, 0),  # not under a bisection
    ]
    assert tracer.bisection_iterations(spans) == 2 + 0


def _boundary_bindings() -> dict:
    modules = [m for k, m in sys.modules.items() if k == "qbmsim" or k.startswith("qbmsim.")]
    return {(m.__name__, key): value for m in modules for key, value in vars(m).items()
            if callable(value)}


def test_tracing_restores_every_wrapped_name(tmp_path):
    cli = workloads.import_cli(ROOT)
    before = _boundary_bindings()
    config = workloads.make_config("onset-n64", 0, TINY["onset-n64"])
    config_path, out_path = tmp_path / "config.json", tmp_path / "out.csv"
    config_path.write_text(json.dumps(config))
    trace = tracer.Tracer()
    with trace.installed():
        during = _boundary_bindings()
        assert cli.emit is not before[("qbmsim.cli", "emit")]
        assert during[("qbmsim.entanglement", "symplectic_spectrum")] is not \
            before[("qbmsim.entanglement", "symplectic_spectrum")]
        with trace.call(), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(workloads.cli_argv("onset-n64", config_path, out_path)) == 0
    after = _boundary_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    metrics = trace.metrics()
    assert metrics["entanglement.lambda_of_block.calls"] > 0
    assert metrics["certify.lambda_dot_finite_difference.calls"] == 1
    assert metrics["cli.emit.bytes"] == out_path.stat().st_size


def _expected_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace, tiny_references, tmp_path):
    config = workloads.make_config(workload, 5, TINY[workload])
    ref = gate.load_reference(workload, 5, config, tiny_references)
    metrics, problems = run.measure(workload, 0.2, trace, workloads.source_dir(ROOT),
                                    config, ref, tmp_path)
    result = json.loads(json.dumps(run.result(metrics, problems)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _expected_metrics(trace)
    for name, unit in units.items():
        print(f"{workload} trace={trace} {name} = {result['metrics'][name]['value']:.6g} {unit}")


def test_full_size_run_passes_the_gate_and_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "onset-n64", "--seed", "6",
         "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(_expected_metrics(0))


def test_gate_rejects_a_reference_cell_perturbed_by_1e_9(tmp_path):
    config = workloads.make_config("evolve-n8", 2)
    ref = gate.load_reference("evolve-n8", 2, config)
    out_path = tmp_path / "out.csv"
    _write_output(out_path, ref.metadata, ref.table)
    assert gate.check_output(ref, 0, out_path) == []
    assert gate.check_output(ref, 1, out_path) != []

    lines = ref.table.splitlines(keepends=True)
    cells = lines[3].rstrip("\n").split(",")
    value = float(cells[1])
    cells[1] = repr(value + 1e-9 * max(1.0, abs(value)))
    perturbed = "".join(lines[:3] + [",".join(cells) + "\n"] + lines[4:])
    problems = gate.check_output(replace(ref, table=perturbed), 0, out_path)
    assert len(problems) == 1 and "row 2" in problems[0]


def test_gate_rejects_an_onset_derivative_perturbed_by_1e_9(tmp_path):
    config = workloads.make_config("onset-n64", 1)
    ref = gate.load_reference("onset-n64", 1, config)
    out_path = tmp_path / "out.csv"
    _write_output(out_path, dict(ref.metadata, wall_clock_s="12.5"), ref.table)
    assert gate.check_output(ref, 0, out_path) == []

    value = float(ref.metadata["lambda_dot0"])
    perturbed = repr(value + 1e-9 * max(1.0, abs(value)))
    _write_output(out_path, dict(ref.metadata, lambda_dot0=perturbed), ref.table)
    problems = gate.check_output(ref, 0, out_path)
    assert len(problems) == 1 and problems[0].startswith("metadata lambda_dot0: ")

    _write_output(out_path, dict(ref.metadata, passed="False"), ref.table)
    assert gate.check_output(ref, 0, out_path) == [
        "metadata passed: 'False', expected 'True'"]


def test_gate_matches_nan_only_with_nan():
    assert gate.compare_metadata({"lambda_dot0": "nan"}, {"lambda_dot0": "nan"}) == []
    assert gate.compare_metadata({"lambda_dot0": "nan"}, {"lambda_dot0": "0"}) != []
    assert gate.compare_metadata({"lambda_dot0": "0"}, {"lambda_dot0": "nan"}) != []
    assert gate.compare_metadata({"g": "[[1.0, 0.0]]"}, {"g": "[[1.0, 1e-9]]"}) != []
    assert gate.compare_metadata({"g": "[[1.0, 0.0]]"}, {"g": "[[1.0, 1e-11]]"}) == []
    assert gate.compare_values(float("nan"), float("nan")) == []
    assert gate.compare_values(float("inf"), float("inf")) == []
    assert gate.compare_values(1.0, float("nan")) != []


def test_gate_compares_certificate_values(tmp_path):
    config = workloads.make_config("certify-n256", 0)
    ref = gate.load_reference("certify-n256", 0, config)
    out_path = tmp_path / "out.csv"
    _write_output(out_path, ref.metadata, ref.table)
    cert = dict(ref.certificate, beta=ref.certificate["beta"] * (1 + 1e-9))
    Path(f"{out_path}.certificate.json").write_text(json.dumps(cert))
    assert gate.check_output(ref, 0, out_path) == ["certificate.beta: "
                                                    f"{cert['beta']!r}, expected "
                                                    f"{ref.certificate['beta']!r}"]


def test_references_match_the_workload_configs():
    for workload in workloads.WORKLOADS:
        for seed in range(workloads.VARIANTS):
            config = workloads.make_config(workload, seed)
            ref = gate.load_reference(workload, seed + workloads.VARIANTS, config)
            assert ref.exit_code == 0 and ref.table.count("\n") > 2
            assert ref.metadata["command"] == workloads.WORKLOADS[workload][0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evolve-n8", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
