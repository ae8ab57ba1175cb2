import hashlib

import pytest

import gen
import run


def tree_digests(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def crawl_parse_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("gen")
    truth = gen.generate("crawl-parse", 7, base / "a")
    return base, truth


def test_same_seed_gives_byte_identical_inputs(crawl_parse_inputs, tmp_path):
    base, truth = crawl_parse_inputs
    again = gen.generate("crawl-parse", 7, tmp_path / "b")
    assert again == truth
    assert tree_digests(tmp_path / "b") == tree_digests(base / "a")


def test_another_seed_changes_every_input_file(crawl_parse_inputs, tmp_path):
    base, _ = crawl_parse_inputs
    gen.generate("crawl-parse", 8, tmp_path / "c")
    first, other = tree_digests(base / "a"), tree_digests(tmp_path / "c")
    for name in ("tweets.jsonl", "backlinks.csv", "resolver.csv"):
        assert first[name] != other[name], name
    shared = set(first) & set(other)
    assert sum(first[p] != other[p] for p in shared) > len(shared) // 2


def test_inputs_cover_every_doi_presentation_and_non_content_kind(crawl_parse_inputs):
    _, truth = crawl_parse_inputs
    assert set(truth["doi_presentations"]) == set(gen.DOI_KINDS)
    assert set(truth["non_content"]) == set(gen.NON_CONTENT_KINDS)
    assert truth["big_pages"] == gen.WORKLOADS["crawl-parse"].releases // 2


@pytest.mark.parametrize("workload", ["crawl-parse", "reanalyze"])
def test_pipeline_counts_equal_ground_truth(workload, tmp_path):
    from pressmetrics import cli

    truth = gen.generate(workload, 3, tmp_path / "inputs")
    steps = []
    for stage in run.ALL_STAGES:
        cfg = cli.build_config(gen.pipeline_config(tmp_path / "inputs", tmp_path), {})
        steps.append({"stage": stage, "counts": cli.run(stage, cfg).counts})
    assert run.check_counts(steps, truth) == []
