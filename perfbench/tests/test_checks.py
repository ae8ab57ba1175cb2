import json
import shutil
import subprocess
import sys

import pytest

import run
import worker
from pressmetrics import cli


@pytest.fixture(scope="module")
def fixture_reports(tmp_path_factory):
    """One pipeline run over the bundled 50-release site."""
    base = tmp_path_factory.mktemp("fixture")
    for stage in run.ALL_STAGES:
        cli.run(stage, cli.build_config(run.fixture_config(base), {}))
    return base / "reports"


def test_fixture_reports_match_the_recorded_reference(fixture_reports):
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    digests = {"reports": worker.report_digests(fixture_reports)}
    assert run.check_digests(digests, reference, "reference") == []


def test_altered_report_in_a_copy_is_caught(fixture_reports, tmp_path):
    copy = tmp_path / "reports"
    shutil.copytree(fixture_reports, copy)
    with open(copy / "pio_ranking.csv", "a", encoding="utf-8") as fh:
        fh.write("Phantom Institute,1\n")
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    errors = run.check_digests({"reports": worker.report_digests(copy)}, reference, "reference")
    assert len(errors) == 1 and "reports/pio_ranking.csv" in errors[0]


def test_count_that_differs_from_ground_truth_is_caught():
    truth = {"fetched": 10, "press_releases": 8, "parsed": 7, "mentions_kept": 3}
    steps = [{"stage": "crawl", "counts": {"fetched": 10, "press_releases": 8}},
             {"stage": "parse", "counts": {"parsed": 6}}]
    assert run.check_counts(steps, truth) == ["parse: parsed=6 expected 7"]


def test_benchmark_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy2(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "crawl-parse",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    from spans import PER_LAYER

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.PLANS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
