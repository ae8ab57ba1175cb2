import csv
import dataclasses
import fcntl
import functools
import hashlib
import io
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import typing
from collections import Counter
from datetime import date, datetime, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from pressmetrics import (analytics, backlink_ingest, cli, harvester, mention_ingest, pagescan,
                          release_parser, store)

FOLD = "www.eksci.test/releases/"


def fixture_config(base: Path, fixtures: Path) -> cli.PipelineConfig:
    return cli.PipelineConfig(
        seed_path=FOLD,
        rate_limit=0.0,
        corpus_dir=base / "corpus",
        report_dir=base / "reports",
        fixtures_dir=fixtures / "site",
        alias_institutions=fixtures / "aliases_institutions.csv",
        alias_journals=fixtures / "aliases_journals.csv",
        doi_rewrites=fixtures / "doi_rewrites.csv",
        external_counts=fixtures / "external_counts.csv",
        tweets_file=fixtures / "tweets_main.jsonl",
        backlinks_file=fixtures / "backlinks_main.csv",
        resolver_file=fixtures / "resolver_main.csv",
    )


def run_all(cfg: cli.PipelineConfig) -> dict[str, cli.RunManifest]:
    return {command: cli.run(command, cfg) for command in cli.COMMANDS}


def pack_bodies(cfg: cli.PipelineConfig) -> list[tuple[dict, bytes]]:
    """Each crawl manifest line with the body it names, read from the page
    pack in one pass: a body starts where the bodies of the lines before end."""
    with open(cfg.pages_pack, "rb") as pack:
        return [(entry, pack.read(entry["length"]))
                for entry in store.read_jsonl(cfg.crawl_manifest)]


def alter_body(cfg: cli.PipelineConfig, url: str) -> None:
    """Change the first byte of ``url``'s body in the page pack, as an edit
    after the crawl would."""
    offset = 0
    for entry in store.read_jsonl(cfg.crawl_manifest):
        if entry["url"] == url:
            break
        offset += entry["length"]
    with open(cfg.pages_pack, "r+b") as pack:
        pack.seek(offset)
        first = pack.read(1)
        pack.seek(offset)
        pack.write(bytes([first[0] ^ 1]))


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory, fixtures_dir):
    base = tmp_path_factory.mktemp("pipeline")
    cfg = fixture_config(base, fixtures_dir)
    manifests = run_all(cfg)
    return cfg, manifests


class TestConfig:
    def test_file_plus_cli_overrides(self, tmp_path, fixtures_dir):
        config_file = tmp_path / "run.cfg"
        config_file.write_text(
            "# fixture pipeline\n"
            f"seed_path={FOLD}\n"
            "rate_limit=0.5\n"
            f"fixtures_dir={fixtures_dir / 'site'}\n"
            f"corpus_dir={tmp_path / 'corpus'}\n"
            f"report_dir={tmp_path / 'reports'}\n")
        values = cli.load_config_file(config_file)
        cfg = cli.build_config(values, {"rate_limit": 0.0, "granularity": "daily"})
        assert cfg.seed_path == FOLD
        assert cfg.rate_limit == 0.0  # CLI flag wins
        assert cfg.granularity == "daily"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            cli.build_config({"surprise": "1"}, {})
        with pytest.raises(ValueError, match="unknown config key 'max_depth'"):
            cli.build_config({"max_depth": "5"}, {})

    def test_a_repeated_key_fails_naming_both_lines(self, tmp_path):
        config_file = tmp_path / "run.cfg"
        config_file.write_text("corpus_dir=/tmp/a\n# runs on the second, silently, if accepted\n"
                               "corpus_dir = /tmp/b\n")
        with pytest.raises(ValueError) as err:
            cli.load_config_file(config_file)
        assert str(err.value) == f"{config_file}:3: key 'corpus_dir' repeats line 1"

    def test_bad_line_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("just words\n")
        with pytest.raises(ValueError):
            cli.load_config_file(bad)

    def test_every_path_field_converts_from_a_string(self):
        hints = typing.get_type_hints(cli.PipelineConfig)
        path_fields = [name for name, hint in hints.items()
                       if Path in (hint, *typing.get_args(hint))]
        assert {"corpus_dir", "fixtures_dir", "resolver_file"} <= set(path_fields)
        cfg = cli.build_config({name: f"d/{name}" for name in path_fields}, {})
        assert all(getattr(cfg, name) == Path(f"d/{name}") for name in path_fields)
        # empty is "not configured", for a path with no default only
        optional = [name for name in path_fields if getattr(cli.PipelineConfig, name) is None]
        cfg = cli.build_config({name: "" for name in optional}, {})
        assert all(getattr(cfg, name) is None for name in optional)


def copied_run(completed_run, base: Path) -> cli.PipelineConfig:
    """The completed fixture run's configuration, on a copy of its stage files and reports."""
    cfg, _ = completed_run
    copy = dataclasses.replace(cfg, corpus_dir=base / "corpus", report_dir=base / "reports")
    shutil.copytree(cfg.corpus_dir, copy.corpus_dir)
    shutil.copytree(cfg.report_dir, copy.report_dir)
    return copy


def file_tree(cfg: cli.PipelineConfig) -> dict:
    """Each stage file and report with its bytes and inode; a rewrite by rename changes the inode."""
    return {p: (p.read_bytes(), p.stat().st_ino)
            for d in (cfg.corpus_dir, cfg.report_dir) for p in d.rglob("*") if p.is_file()}


# each required config key of each stage, set to "not configured"
UNSET = [("crawl", "seed_path"), ("ingest-tweets", "tweets_file"), ("ingest-tweets", "seed_path"),
         ("ingest-links", "backlinks_file"), ("ingest-links", "seed_path"),
         ("couple", "external_counts")]
# each path a stage reads, required or configured, pointed at nothing
MISSING = [("crawl", "fixtures_dir"), ("parse", "crawl_manifest"), ("parse", "pages_pack"),
           ("parse", "doi_rewrites"), ("parse", "resolver_file"), ("ingest-tweets", "tweets_file"),
           ("ingest-tweets", "corpus_file"), ("ingest-tweets", "resolver_file"),
           ("ingest-links", "backlinks_file"), ("ingest-links", "corpus_file"),
           ("couple", "corpus_file"), ("couple", "external_counts"), ("couple", "alias_journals"),
           ("couple", "doi_journals"), ("analyze", "corpus_file"),
           ("analyze", "alias_institutions"), ("report", "summary_file")]
# stage files that analyze reads only once the stage that writes them has run
READ_IF_WRITTEN = [("analyze", "mentions_file"), ("analyze", "backlinks_attached")]


class TestPrerequisites:
    """What each stage reads, as ``cli._STAGES`` lists it, is checked before the stage starts."""

    @staticmethod
    def fails_before_the_stage(cfg: cli.PipelineConfig, stage: str, message: str) -> None:
        before = file_tree(cfg)
        with pytest.raises(cli.PipelineError) as err:
            cli.run(stage, cfg)
        assert (err.value.stage, str(err.value)) == (stage, f"[{stage}] {message}")
        assert file_tree(cfg) == before  # no output, and no run-log line

    @pytest.mark.parametrize("stage,key", UNSET)
    def test_an_unset_required_key_is_not_configured(self, completed_run, tmp_path, stage, key):
        cfg = copied_run(completed_run, tmp_path)
        setattr(cfg, key, "" if key == "seed_path" else None)
        self.fails_before_the_stage(cfg, stage, f"{key} not configured")

    @pytest.mark.parametrize("stage,key", MISSING)
    def test_a_missing_path_is_a_missing_prerequisite(self, completed_run, tmp_path, stage, key):
        cfg = copied_run(completed_run, tmp_path)
        if key in cli.PipelineConfig.__dataclass_fields__:
            setattr(cfg, key, tmp_path / "missing.csv")
        else:
            getattr(cfg, key).unlink()
        self.fails_before_the_stage(cfg, stage, f"missing prerequisite: {key} at "
                                                f"{getattr(cfg, key)} (run the producing stage first)")

    def test_the_cases_cover_every_key_in_the_stage_table(self, tmp_path, fixtures_dir):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cfg.doi_journals = tmp_path / "doi_journals.csv"
        table = {(stage, key) for stage, (_, required, optional) in cli._STAGES.items()
                 for key in required + optional}
        assert set(MISSING) | set(READ_IF_WRITTEN) == {
            (stage, key) for stage, key in table if isinstance(getattr(cfg, key), Path)}
        assert set(UNSET) == {(stage, key) for stage, (_, required, _) in cli._STAGES.items()
                              for key in required
                              if key in cli.PipelineConfig.__dataclass_fields__}
        # every file a stage reads reaches it decoded, but the page pack and the fixture site
        assert set(cli._DECODERS) == {key for _, key in MISSING + READ_IF_WRITTEN} - {
            "pages_pack", "fixtures_dir"}

    def test_a_missing_resolver_is_reported_before_the_corpus_is_read(self, completed_run,
                                                                      tmp_path):
        cfg = copied_run(completed_run, tmp_path)
        corpus = cfg.corpus_file.read_bytes()
        cfg.corpus_file.write_bytes(corpus[:-10])  # the last line cut short
        cfg.resolver_file = tmp_path / "no_resolver.csv"
        self.fails_before_the_stage(cfg, "ingest-tweets", f"missing prerequisite: resolver_file "
                                    f"at {cfg.resolver_file} (run the producing stage first)")

    @pytest.mark.parametrize("stage,key,table", [
        ("ingest-tweets", "resolver_file", "from_url,to_url\nhttps://t.sh/a,https://x.test/1\n"
                                            "https://t.sh/a,https://x.test/2\n"),
        ("ingest-links", "backlinks_file",
         "target_url,mentioning_webpages,mentioning_websites,citation_flow,trust_flow,"
         "window_start,window_end\n"
         f"https://{FOLD}2016/nfu-201601.html,30,12,12,8,2015-09-01,2021-04-01\n"
         f"https://{FOLD}2016/mit-201602.html,41,19,230,12,2015-09-01,2021-04-01\n"),
    ], ids=["ingest-tweets", "ingest-links"])
    def test_a_bad_table_row_is_reported_before_the_corpus_is_read(self, completed_run, tmp_path,
                                                                   stage, key, table):
        cfg = copied_run(completed_run, tmp_path)
        corpus = cfg.corpus_file.read_bytes()
        cfg.corpus_file.write_bytes(corpus[:-10])  # the last line cut short
        path = tmp_path / ("resolver.csv" if key == "resolver_file" else "links.csv")
        path.write_text(table, encoding="utf-8")
        setattr(cfg, key, path)
        before = file_tree(cfg)
        with pytest.raises(ValueError) as err:
            cli.run(stage, cfg)
        assert str(err.value).startswith(f"{path}:3: "), err.value
        assert file_tree(cfg) == before

    def test_unknown_command(self, tmp_path, fixtures_dir):
        with pytest.raises(cli.PipelineError):
            cli.run("transmogrify", fixture_config(tmp_path, fixtures_dir))


class TestRepeatedReleaseIds:
    @pytest.mark.parametrize("stage", ["ingest-tweets", "ingest-links", "couple", "analyze"])
    def test_a_repeated_corpus_line_fails_at_its_line(self, completed_run, tmp_path, stage):
        cfg = copied_run(completed_run, tmp_path)
        lines = cfg.corpus_file.read_text(encoding="utf-8").splitlines(keepends=True)
        cfg.corpus_file.write_text("".join(lines[:3] + [lines[1]] + lines[3:]), encoding="utf-8")
        before = file_tree(cfg)
        with pytest.raises(ValueError) as err:
            cli.run(stage, cfg)
        assert str(err.value) == (f"{cfg.corpus_file}:4: release id "
                                  f"{json.loads(lines[1])['id']!r} repeats an earlier line")
        assert file_tree(cfg) == before


class TestReleaseIdentity:
    """The corpus decoder is the one check that a URL names one release and a
    release names a DOI once, so every stage that reads the corpus refuses a
    line that breaks either, at that line, and writes nothing."""

    STAGES = ["ingest-tweets", "ingest-links", "couple", "analyze"]

    @staticmethod
    def _fails(cfg, stage: str, message: str) -> None:
        before = file_tree(cfg)
        with pytest.raises(ValueError) as err:
            cli.run(stage, cfg)
        assert str(err.value) == message
        assert file_tree(cfg) == before

    @pytest.mark.parametrize("stage", STAGES)
    def test_a_canonical_url_under_a_second_id_fails_at_its_line(self, completed_run, tmp_path,
                                                                 stage):
        cfg = copied_run(completed_run, tmp_path)
        lines = cfg.corpus_file.read_text(encoding="utf-8").splitlines(keepends=True)
        record = next(json.loads(line) for line in lines if '"csa-202007"' in line)
        url = record["canonical_url"]
        record["id"] = "zz-copy"
        with open(cfg.corpus_file, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
        self._fails(cfg, stage, f"{cfg.corpus_file}:{len(lines) + 1}: canonical URL {url!r} "
                                "repeats an earlier line")

    @pytest.mark.parametrize("stage", STAGES)
    def test_a_normalized_doi_named_twice_fails_at_its_line(self, completed_run, tmp_path, stage):
        cfg = copied_run(completed_run, tmp_path)
        lines = cfg.corpus_file.read_text(encoding="utf-8").splitlines(keepends=True)
        n = next(n for n, line in enumerate(lines) if json.loads(line)["dois"])
        record = json.loads(lines[n])
        doi = record["dois"][0]["normalized"]
        # another raw form of the same DOI
        record["dois"].append({"raw": f"doi:{doi.upper()}", "normalized": doi,
                               "repair": "stripped_wrapper"})
        lines[n] = json.dumps(record, ensure_ascii=False) + "\n"
        cfg.corpus_file.write_text("".join(lines), encoding="utf-8")
        self._fails(cfg, stage, f"{cfg.corpus_file}:{n + 1}: DOI {doi!r} repeats in 'dois'")


class TestMentionOrder:
    """ingest-tweets writes mentions.jsonl sorted by tweet id, so analyze refuses
    a line whose id is not above the line before's: a repeat, or one out of order."""

    # the edit to the file's lines, and the number of the line that then fails
    EDITS = {
        "first line appended": (lambda lines: lines + lines[:1], len),
        "second line repeated": (lambda lines: lines[:2] + lines[1:], lambda lines: 3),
        "first two lines swapped": (lambda lines: lines[1::-1] + lines[2:], lambda lines: 2),
    }

    @pytest.mark.parametrize("case", EDITS)
    def test_a_tweet_id_not_above_the_line_before_fails_at_its_line(self, completed_run,
                                                                   tmp_path, case):
        edit, failing = self.EDITS[case]
        cfg = copied_run(completed_run, tmp_path)
        lines = edit(cfg.mentions_file.read_text(encoding="utf-8").splitlines(keepends=True))
        cfg.mentions_file.write_text("".join(lines), encoding="utf-8")
        lineno = failing(lines)
        want, last = (json.loads(lines[n])["tweet_id"] for n in (lineno - 1, lineno - 2))
        before = file_tree(cfg)
        with pytest.raises(ValueError) as err:
            cli.run("analyze", cfg)
        assert str(err.value) == (f"{cfg.mentions_file}:{lineno}: tweet id {want!r} "
                                  f"does not follow {last!r}")
        assert file_tree(cfg) == before


class TestPipelineOutputs:
    def test_stage_counts(self, completed_run):
        _, manifests = completed_run
        assert manifests["crawl"].counts["fetched"] == 62
        assert manifests["crawl"].counts["press_releases"] == 50
        assert manifests["parse"].counts["parsed"] == 50
        assert manifests["ingest-tweets"].counts["retweets_dropped"] == 2
        assert manifests["couple"].counts["edges"] == 41

    def test_corpus_line_format(self, completed_run):
        cfg, _ = completed_run
        lines = list(store.read_jsonl(cfg.corpus_file))
        assert len(lines) == 50
        from pressmetrics.release_parser import CORPUS_FIELDS
        assert all(tuple(line) == CORPUS_FIELDS for line in lines)

    def test_crawl_manifest_format(self, completed_run):
        cfg, _ = completed_run
        for entry in store.read_jsonl(cfg.crawl_manifest):
            assert tuple(entry) == ("url", "status", "digest", "length", "fetched_at", "class")

    def test_content_store_one_body_per_record(self, completed_run):
        cfg, _ = completed_run
        pages = pack_bodies(cfg)
        assert len(pages) == 62
        for entry, body in pages:
            assert len(body) == entry["length"], entry["url"]
        assert sum(len(body) for _, body in pages) == cfg.pages_pack.stat().st_size

    def test_crawl_digests_match_stored_files(self, completed_run):
        cfg, manifests = completed_run
        assert manifests["crawl"].output_digests == {
            str(cfg.crawl_manifest): store.file_digest(cfg.crawl_manifest)}
        for entry, body in pack_bodies(cfg):
            assert entry["digest"] == hashlib.sha256(body).hexdigest(), entry["url"]

    def test_report_files_present(self, completed_run):
        cfg, _ = completed_run
        names = {p.name for p in cfg.report_dir.iterdir()}
        assert {"annual_output.csv", "type_distribution.csv", "keyword_frequency.csv",
                "cooccurrence_graph.json", "region_distribution.csv", "pio_ranking.csv",
                "mention_series.csv", "tweets_per_release.csv", "coverage_table.csv",
                "coupling_edges.csv", "journal_coverage.csv", "summary.json",
                "report_manifest.json"} <= names

    def test_csv_lf_endings_and_headers(self, completed_run):
        cfg, _ = completed_run
        for path in cfg.report_dir.glob("*.csv"):
            raw = path.read_bytes()
            assert b"\r\n" not in raw, path
            assert raw.decode("utf-8").splitlines()[0], path

    def test_rerun_stage_idempotent(self, completed_run):
        cfg, _ = completed_run
        watched = [cfg.crawl_manifest, cfg.corpus_file, cfg.mentions_file,
                   cfg.backlinks_attached, cfg.backlinks_outdated]
        before_corpus = {p: p.read_bytes() for p in watched}
        before_reports = {p.name: p.read_bytes() for p in cfg.report_dir.iterdir()}
        for command in cli.COMMANDS:
            cli.run(command, cfg)
        assert {p: p.read_bytes() for p in watched} == before_corpus
        assert {p.name: p.read_bytes() for p in cfg.report_dir.iterdir()} == before_reports

    def test_failed_stage_leaves_prior_output_intact(self, completed_run, tmp_path):
        cfg, _ = completed_run
        good = (cfg.report_dir / "journal_coverage.csv").read_bytes()
        broken = tmp_path / "external_counts.csv"
        broken.write_text("journal,publications_with_doi\nActa Synthetica,not-a-number\n")
        original = cfg.external_counts
        cfg.external_counts = broken
        try:
            with pytest.raises(Exception):
                cli.run("couple", cfg)
        finally:
            cfg.external_counts = original
        assert (cfg.report_dir / "journal_coverage.csv").read_bytes() == good

    def test_manifest_covers_every_report_digest(self, completed_run):
        cfg, _ = completed_run
        seen: dict[str, int] = {}
        for manifest in store.read_jsonl(cfg.run_log):
            for path, digest in manifest["output_digests"].items():
                key = f"{Path(path).name}:{digest}"
                seen[key] = seen.get(key, 0) + 1
        for path in cfg.report_dir.iterdir():
            if path.name == "report_manifest.json":
                continue
            key = f"{path.name}:{store.file_digest(path)}"
            assert seen.get(key, 0) >= 1, path.name

    def test_run_log_records_every_file_read_and_written(self, completed_run):
        cfg, _ = completed_run
        reads = {
            "crawl": [],
            "parse": [cfg.crawl_manifest, cfg.doi_rewrites, cfg.resolver_file],
            "ingest-tweets": [cfg.tweets_file, cfg.corpus_file, cfg.resolver_file],
            "ingest-links": [cfg.backlinks_file, cfg.corpus_file],
            "couple": [cfg.corpus_file, cfg.external_counts, cfg.alias_journals],
            "analyze": [cfg.corpus_file, cfg.alias_institutions, cfg.mentions_file,
                        cfg.backlinks_attached],
            "report": [cfg.report_dir / "summary.json"],
        }
        logged = list(store.read_jsonl(cfg.run_log))[:len(cli.COMMANDS)]
        assert [entry["command"] for entry in logged] == list(cli.COMMANDS)
        for entry in logged:
            assert entry["input_digests"] == {str(p): store.file_digest(p)
                                              for p in reads[entry["command"]]}, entry["command"]
            assert entry["output_digests"], entry["command"]
            for path, digest in entry["output_digests"].items():
                assert store.file_digest(path) == digest, path

    def test_summary_populations(self, completed_run):
        cfg, _ = completed_run
        summary = json.loads((cfg.report_dir / "summary.json").read_text())
        assert summary["corpus_total"] == 50
        assert summary["annual_output"] == 49
        assert summary["date_anomalous_excluded_from_series"] == 1
        assert summary["backlink_window_start"] == "2015-09-01"

    def test_counts_account_for_every_input_record(self, completed_run):
        cfg, _ = completed_run
        counts = {entry["command"]: Counter(entry["counts"])
                  for entry in list(store.read_jsonl(cfg.run_log))[:len(cli.COMMANDS)]}
        manifest_lines = len(list(store.read_jsonl(cfg.crawl_manifest)))
        tweets = len(list(store.read_jsonl(cfg.tweets_file)))
        with open(cfg.backlinks_file, newline="", encoding="utf-8") as fh:
            backlink_rows = sum(1 for row in csv.reader(fh) if row) - 1
        crawl, parse, tweet_counts, links = (counts[c] for c in (
            "crawl", "parse", "ingest-tweets", "ingest-links"))
        assert crawl["fetched"] == manifest_lines
        assert parse["parsed"] + parse["parse_errors"] + parse["skipped_non_content"] == (
            manifest_lines)
        assert sum(tweet_counts[k] for k in ("mentions_kept", "malformed_records",
                                             "retweets_dropped", "duplicate_ids",
                                             "no_corpus_url")) == tweets
        assert links["raw_records"] == backlink_rows
        assert links["aggregates"] == links["attached"] + links["outdated"] + links["rejected"]


class TestOneScanPerPage:
    def test_crawl_and_parse_scan_each_page_once(self, tmp_path, fixtures_dir, monkeypatch):
        scanned: list[bytes] = []

        def counting_scan(body):
            scanned.append(body)
            return pagescan.scan_page(body)

        monkeypatch.setattr(harvester, "scan_page", counting_scan)
        monkeypatch.setattr(release_parser, "scan_page", counting_scan)
        cfg = fixture_config(tmp_path, fixtures_dir)

        cli.run("crawl", cfg)
        entries = list(store.read_jsonl(cfg.crawl_manifest))
        bodies = {e["url"]: body for e, body in pack_bodies(cfg)}
        assert len(scanned) == len(entries)
        assert sorted(b for b in scanned if b.strip()) == sorted(
            b for b in bodies.values() if b.strip())

        scanned.clear()
        cli.run("parse", cfg)
        press = [bodies[e["url"]] for e in entries if e["class"] == "press_release"]
        assert len(press) == 50
        assert sorted(scanned) == sorted(press)


_not_utf8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


class _Interrupted(BaseException):
    """Stands in for a kill: not an Exception, so no retry or handler takes it."""


_PLAIN_PAGE = "<html><head><title>{}</title></head><body><p>{}</p></body></html>"
_RELEASE_PAGE = ('<html><head><title>{}</title><meta name="date" content="2020-01-02">'
                 '<meta name="type" content="Research"><meta name="description" content="{}">'
                 '</head><body><p>A release.</p></body></html>')


def _serve_synthetic_site(monkeypatch, pages: int, filler: int, page: str = _PLAIN_PAGE) -> None:
    """Fixtures mode serves an index linking ``pages`` pages, each ``page``
    filled in with its URL and ``filler`` bytes."""

    def synthetic(self, url):
        if url.endswith("/"):
            links = "".join(f'<a href="p{i}.html">{i}</a>' for i in range(pages))
            return 200, {}, f"<html><body>{links}</body></html>".encode()
        return 200, {}, page.format(url, "x" * filler).encode()

    monkeypatch.setattr(harvester.DirectoryFetcher, "fetch", synthetic)


class TestStreamingCrawl:
    def test_interrupted_crawl_keeps_the_pages_that_landed(self, tmp_path, fixtures_dir,
                                                           monkeypatch, completed_run):
        k = 7
        fetch = harvester.DirectoryFetcher.fetch
        calls = []

        def fetch_then_die(self, url):
            if len(calls) == k:
                raise _Interrupted()
            calls.append(url)
            return fetch(self, url)

        monkeypatch.setattr(harvester.DirectoryFetcher, "fetch", fetch_then_die)
        cfg = fixture_config(tmp_path, fixtures_dir)
        cfg.corpus_dir.mkdir(parents=True)
        cfg.crawl_manifest.write_text("an earlier crawl's manifest, which fits no pack\n")
        with pytest.raises(_Interrupted):
            cli.run("crawl", cfg)

        full = completed_run[0].crawl_manifest.read_text(encoding="utf-8").splitlines(True)
        partial = cfg.crawl_manifest.with_name("crawl_manifest.jsonl.partial")
        assert partial.read_text(encoding="utf-8").splitlines(True) == full[:k]
        landed = pack_bodies(completed_run[0])[:k]
        assert [entry["url"] for entry, _ in landed] == calls
        assert cfg.pages_pack.read_bytes() == b"".join(body for _, body in landed)
        assert not cfg.crawl_manifest.exists()
        assert cfg.run_log.read_text() == ""  # the failed stage logs no line
        monkeypatch.undo()
        cli.run("crawl", cfg)  # the lock was released
        assert len(cfg.run_log.read_text().splitlines()) == 1

    def test_crawl_killed_inside_a_body_write_commits_no_line_for_it(
            self, tmp_path, fixtures_dir, monkeypatch, completed_run):
        k = 7
        written: list[bytes] = []
        cfg = fixture_config(tmp_path, fixtures_dir)

        class DyingPack:
            """The page pack, killed inside write k + 1 once half of its body has landed."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def flush(self):
                self.fh.flush()

            def write(self, data):
                if len(written) == k:
                    self.fh.write(data[:len(data) // 2])
                    raise _Interrupted()
                written.append(data)
                return self.fh.write(data)

        def open_pack(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            return DyingPack(fh) if Path(path) == cfg.pages_pack else fh

        monkeypatch.setattr(cli, "open", open_pack, raising=False)
        with pytest.raises(_Interrupted):
            cli.run("crawl", cfg)
        monkeypatch.undo()

        partial = cfg.crawl_manifest.with_name("crawl_manifest.jsonl.partial")
        lines = list(store.read_jsonl(partial))
        assert lines == list(store.read_jsonl(completed_run[0].crawl_manifest))[:k]
        assert [e["length"] for e in lines] == [len(body) for body in written]
        committed = sum(e["length"] for e in lines)
        pack = cfg.pages_pack.read_bytes()
        assert pack[:committed] == b"".join(written)
        assert len(pack) > committed  # the torn body's half is named by no line
        assert not cfg.crawl_manifest.exists()

    def test_crawl_leaves_one_pack_and_no_page_files(self, tmp_path, fixtures_dir):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cli.run("crawl", cfg)
        assert not (cfg.corpus_dir / "pages").exists()
        assert sorted(p.name for p in cfg.corpus_dir.iterdir()) == [
            "crawl_manifest.jsonl", "pages.pack", "run_log.jsonl"]

    def test_run_log_holds_one_output_digest_whatever_the_site_size(self, tmp_path,
                                                                    monkeypatch):
        for pages in (50, 200):
            _serve_synthetic_site(monkeypatch, pages, 100)
            cfg = cli.PipelineConfig(seed_path="big.test/site/", rate_limit=0.0,
                                     corpus_dir=tmp_path / f"corpus{pages}", fixtures_dir=tmp_path)
            cli.run("crawl", cfg)
            [logged] = store.read_jsonl(cfg.run_log)
            assert logged["counts"]["fetched"] == pages + 1
            assert logged["output_digests"] == {
                str(cfg.crawl_manifest): store.file_digest(cfg.crawl_manifest)}

    def test_crawl_memory_does_not_grow_with_the_site(self, tmp_path, monkeypatch):
        def crawl_peak(pages: int) -> int:
            _serve_synthetic_site(monkeypatch, pages, 200_000)
            cfg = cli.PipelineConfig(seed_path="big.test/site/", rate_limit=0.0,
                                     corpus_dir=tmp_path / f"corpus{pages}", fixtures_dir=tmp_path)
            tracemalloc.start()
            try:
                counts = cli.run("crawl", cfg).counts
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                shutil.rmtree(cfg.corpus_dir)
            assert counts["fetched"] == pages + 1
            return peak

        small, large = crawl_peak(50), crawl_peak(200)
        assert large - small < 2 * 1024 * 1024, (small, large)

    def test_live_crawl_records_a_redirect_and_its_target(self, tmp_path, monkeypatch,
                                                          scripted_server):
        site = scripted_server
        site.pages = {"/site/": (200, {}, b'<html><a href="old.html">old</a></html>'),
                      "/site/old.html": (301, {"Location": "new.html"}, b"moved"),
                      "/site/new.html": (200, {}, b"<html><p>new</p></html>")}
        monkeypatch.setattr(harvester, "HttpFetcher",
                            functools.partial(harvester.HttpFetcher, force_scheme="http"))
        cfg = cli.PipelineConfig(seed_path=f"{site.host}/site/", rate_limit=0.0,
                                 corpus_dir=tmp_path / "corpus")
        assert cli.run("crawl", cfg).counts["fetched"] == 3
        assert [(entry["url"], entry["status"], entry["class"], body)
                for entry, body in pack_bodies(cfg)] == [
            (f"https://{site.host}/site/", 200, "other", site.pages["/site/"][2]),
            (f"https://{site.host}/site/old.html", 301, "server_message", b"moved"),
            (f"https://{site.host}/site/new.html", 200, "other", site.pages["/site/new.html"][2])]
        assert len(site.received) == 3

    def test_fixtures_pipeline_never_loads_the_http_stack(self, tmp_path, fixtures_dir):
        """Importing urllib.request, with the http.client it loads, raises the
        peak RSS of importing the package by 2.3-3.3 MB, about a tenth of a
        fixtures-mode stage's; only a live crawl needs them."""
        config_file = tmp_path / "run.cfg"
        config_file.write_text("\n".join(
            [f"seed_path={FOLD}", "rate_limit=0", f"corpus_dir={tmp_path / 'corpus'}",
             f"report_dir={tmp_path / 'reports'}", f"fixtures_dir={fixtures_dir / 'site'}",
             f"tweets_file={fixtures_dir / 'tweets_main.jsonl'}",
             f"backlinks_file={fixtures_dir / 'backlinks_main.csv'}",
             f"resolver_file={fixtures_dir / 'resolver_main.csv'}",
             f"external_counts={fixtures_dir / 'external_counts.csv'}"]) + "\n")
        code = ("import sys\n"
                "from pressmetrics import cli\n"
                "for command in cli.COMMANDS:\n"
                "    assert cli.main([command, '--config', sys.argv[1]]) == 0, command\n"
                "loaded = {'http.client', 'urllib.request'} & sys.modules.keys()\n"
                "assert not loaded, f'{loaded} imported'\n")
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code, str(config_file)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestOneDecodePerStage:
    def test_each_stage_decodes_the_corpus_once(self, tmp_path, fixtures_dir, monkeypatch):
        decoded: list[str] = []

        def counting_decode(record):
            decoded.append(record["id"])
            return release_parser.release_from_dict(record)

        cfg = fixture_config(tmp_path, fixtures_dir)
        cli.run("crawl", cfg)
        cli.run("parse", cfg)
        corpus_ids = sorted(r["id"] for r in store.read_jsonl(cfg.corpus_file))
        assert len(corpus_ids) == 50
        monkeypatch.setattr(cli, "release_from_dict", counting_decode)
        for command in ("ingest-tweets", "ingest-links", "couple", "analyze"):
            decoded.clear()
            cli.run(command, cfg)
            assert sorted(decoded) == corpus_ids, command


class TestReadersAreLookedUpWhenTheyRun:
    """A reader patched after import, as the traced benchmark patches it, sees every read."""

    def test_every_read_goes_through_the_patched_names(self, tmp_path, fixtures_dir,
                                                       monkeypatch):
        cfg = fixture_config(tmp_path, fixtures_dir)
        command = ""
        drawn: Counter = Counter()  # (stage, file name) -> records drawn through read_jsonl
        calls: list = []
        read_jsonl = store.read_jsonl
        mention_from_dict = mention_ingest.mention_from_dict
        read_raw_links_csv = backlink_ingest.read_raw_links_csv

        def patched_read_jsonl(path, *args):
            for record in read_jsonl(path, *args):
                drawn[command, Path(path).name] += 1
                yield record

        def patched_mention_from_dict(record):
            calls.append((command, "mention_from_dict"))
            return mention_from_dict(record)

        def patched_read_raw_links_csv(path, *args):
            calls.append((command, Path(path).name))
            return read_raw_links_csv(path, *args)

        monkeypatch.setattr(store, "read_jsonl", patched_read_jsonl)
        monkeypatch.setattr(mention_ingest, "mention_from_dict", patched_mention_from_dict)
        monkeypatch.setattr(backlink_ingest, "read_raw_links_csv", patched_read_raw_links_csv)
        for command in cli.COMMANDS:
            cli.run(command, cfg)

        def lines(path: Path) -> int:
            return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())

        want = {("parse", "crawl_manifest.jsonl"): lines(cfg.crawl_manifest),
                ("ingest-tweets", cfg.tweets_file.name): lines(cfg.tweets_file),
                ("analyze", "mentions.jsonl"): lines(cfg.mentions_file),
                ("analyze", "backlinks.jsonl"): lines(cfg.backlinks_attached),
                ("report", "run_log.jsonl"): len(cli.COMMANDS) - 1}  # a line per stage before it
        for stage in ("ingest-tweets", "ingest-links", "couple", "analyze"):
            want[stage, "corpus.jsonl"] = lines(cfg.corpus_file)
        assert drawn == want
        assert calls == ([("ingest-links", cfg.backlinks_file.name)]
                         + [("analyze", "mention_from_dict")] * lines(cfg.mentions_file))


class TestParse:
    def test_resolves_only_the_short_links_pages_carry(self, tmp_path, fixtures_dir,
                                                       monkeypatch):
        resolved: list[str] = []
        resolve_chain = mention_ingest.resolve_chain

        def counting_resolve(url, hops):
            resolved.append(url)
            return resolve_chain(url, hops)

        cfg = fixture_config(tmp_path, fixtures_dir)
        cli.run("crawl", cfg)
        monkeypatch.setattr(mention_ingest, "resolve_chain", counting_resolve)
        cli.run("parse", cfg)
        assert resolved == ["https://sho.rt/doi42"]
        unshortened = [d["normalized"] for r in store.read_jsonl(cfg.corpus_file)
                       for d in r["dois"] if d["repair"] == "unshortened"]
        assert unshortened == ["10.48550/fix.2020.044"]

    def test_parse_memory_does_not_grow_with_the_corpus(self, tmp_path, monkeypatch):
        def parse_peak(pages: int) -> int:
            _serve_synthetic_site(monkeypatch, pages, 20_000, _RELEASE_PAGE)
            cfg = cli.PipelineConfig(seed_path="big.test/site/", rate_limit=0.0,
                                     corpus_dir=tmp_path / f"corpus{pages}", fixtures_dir=tmp_path)
            cli.run("crawl", cfg)
            tracemalloc.start()
            try:
                counts = cli.run("parse", cfg).counts
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                shutil.rmtree(cfg.corpus_dir)
            assert counts["parsed"] == pages
            return peak

        small, large = parse_peak(50), parse_peak(200)
        assert large - small < 1024 * 1024, (small, large)

    def test_failed_parse_leaves_the_previous_corpus(self, tmp_path, fixtures_dir):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cli.run("crawl", cfg)
        cli.run("parse", cfg)
        corpus = cfg.corpus_file.read_bytes()
        run_log = cfg.run_log.read_bytes()
        entry = [e for e in store.read_jsonl(cfg.crawl_manifest)
                 if e["class"] == "press_release"][-1]
        alter_body(cfg, entry["url"])
        with pytest.raises(cli.PipelineError):
            cli.run("parse", cfg)
        assert cfg.corpus_file.read_bytes() == corpus
        partial = cfg.corpus_file.with_name("corpus.jsonl.partial").read_bytes()
        assert partial and corpus.startswith(partial)
        assert cfg.run_log.read_bytes() == run_log

    @pytest.mark.parametrize("row", [r"Acta (,10\.1234//,10.1234/",
                                     r"Acta Synthetica,10\.1234//(,10.1234/",
                                     r"Acta Synthetica,10\.1234//,\9"])
    def test_a_bad_rewrite_rule_fails_at_its_row_before_the_corpus_is_started(
            self, tmp_path, fixtures_dir, row):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cli.run("crawl", cfg)
        cfg.doi_rewrites = tmp_path / "doi_rewrites.csv"
        cfg.doi_rewrites.write_text(f"journal_pattern,find,replace\n{row}\n")
        with pytest.raises(ValueError) as err:
            cli.run("parse", cfg)
        assert str(err.value).startswith(f"{cfg.doi_rewrites}:2: ")
        assert not cfg.corpus_file.with_name("corpus.jsonl.partial").exists()
        assert not cfg.corpus_file.exists()

    def test_refuses_a_body_altered_after_the_crawl(self, tmp_path, fixtures_dir):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cli.run("crawl", cfg)
        entry = next(e for e in store.read_jsonl(cfg.crawl_manifest)
                     if e["class"] == "press_release")
        alter_body(cfg, entry["url"])
        with pytest.raises(cli.PipelineError) as err:
            cli.run("parse", cfg)
        assert err.value.stage == "parse"
        for named in (str(cfg.pages_pack), entry["url"], str(cfg.crawl_manifest)):
            assert named in str(err.value)
        assert not cfg.corpus_file.exists()

    def test_refuses_a_truncated_pack(self, tmp_path, fixtures_dir):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cli.run("crawl", cfg)
        pages = pack_bodies(cfg)
        cut = max(i for i, (e, _) in enumerate(pages) if e["class"] == "press_release")
        entry = pages[cut][0]
        offset = sum(e["length"] for e, _ in pages[:cut])
        os.truncate(cfg.pages_pack, offset + entry["length"] // 2)
        with pytest.raises(cli.PipelineError) as err:
            cli.run("parse", cfg)
        assert err.value.stage == "parse"
        for named in (str(cfg.pages_pack), entry["url"], str(cfg.crawl_manifest),
                      f"{entry['length'] // 2} of {entry['length']} bytes"):
            assert named in str(err.value)
        assert not cfg.corpus_file.exists()

    def test_refuses_a_missing_pack(self, tmp_path, fixtures_dir):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cli.run("crawl", cfg)
        cfg.pages_pack.unlink()
        with pytest.raises(cli.PipelineError) as err:
            cli.run("parse", cfg)
        assert err.value.stage == "parse"
        assert str(cfg.pages_pack) in str(err.value)
        assert not cfg.corpus_file.exists()

    def test_release_id_collision_names_both_urls(self, tmp_path, fixtures_dir):
        site = tmp_path / "site"
        shutil.copytree(fixtures_dir / "site", site)
        releases = site / "www.eksci.test" / "releases"
        shutil.copy(releases / "2016" / "nfu-201601.html", releases / "archive" / "nfu-201601.html")
        index = releases / "index.html"
        index.write_text(index.read_text(encoding="utf-8").replace(
            "</ul>", '<li><a href="/releases/archive/nfu-201601.html">copy</a></li>\n</ul>'),
            encoding="utf-8")
        cfg = fixture_config(tmp_path, fixtures_dir)
        cfg.fixtures_dir = site
        cli.run("crawl", cfg)
        with pytest.raises(cli.PipelineError) as err:
            cli.run("parse", cfg)
        assert err.value.stage == "parse"
        assert "https://www.eksci.test/releases/2016/nfu-201601.html" in str(err.value)
        assert "https://www.eksci.test/releases/archive/nfu-201601.html" in str(err.value)


class TestIngestLinks:
    def test_non_ascii_outdated_target_written_as_utf8(self, tmp_path, fixtures_dir):
        target = "https://www.eksci.test/releases/2016/café.html"
        links = tmp_path / "backlinks.csv"
        links.write_text("target_url,mentioning_webpages,mentioning_websites,citation_flow,"
                         f"trust_flow,window_start,window_end\n{target},3,2,10,5,,\n",
                         encoding="utf-8")
        cfg = fixture_config(tmp_path, fixtures_dir)
        cfg.backlinks_file = links
        cli.run("crawl", cfg)
        cli.run("parse", cfg)
        cli.run("ingest-links", cfg)
        assert cfg.backlinks_outdated.read_bytes() == (
            json.dumps({"target": target}, ensure_ascii=False) + "\n").encode("utf-8")

    def test_one_sided_window_is_summarised_per_end(self, tmp_path, fixtures_dir):
        rows = (fixtures_dir / "backlinks_main.csv").read_text(encoding="utf-8").splitlines()
        links = tmp_path / "backlinks.csv"
        links.write_text("\n".join([rows[0]] + [row.rsplit(",", 1)[0] + "," for row in rows[1:]])
                         + "\n", encoding="utf-8")
        cfg = fixture_config(tmp_path, fixtures_dir)
        cfg.backlinks_file = links
        for command in ("crawl", "parse", "ingest-links", "analyze"):
            cli.run(command, cfg)
        summary = json.loads((cfg.report_dir / "summary.json").read_text())
        assert summary["backlink_window_start"] == "2015-09-01"
        assert "backlink_window_end" not in summary

    def test_a_row_outside_the_metrics_domain_names_file_and_line(self, tmp_path, fixtures_dir,
                                                                  capsys):
        rows = (fixtures_dir / "backlinks_main.csv").read_text(encoding="utf-8").splitlines()
        fields = rows[2].split(",")
        fields[3] = "140"  # citation_flow
        links = tmp_path / "backlinks.csv"
        links.write_text("\n".join(rows[:2] + [",".join(fields)] + rows[3:]) + "\n",
                         encoding="utf-8")
        cfg = fixture_config(tmp_path, fixtures_dir)
        cli.run("crawl", cfg)
        cli.run("parse", cfg)
        config_file = tmp_path / "run.cfg"
        config_file.write_text(f"seed_path={FOLD}\ncorpus_dir={cfg.corpus_dir}\n"
                               f"backlinks_file={links}\n")
        assert cli.main(["ingest-links", "--config", str(config_file)]) == 1
        assert capsys.readouterr().err == (
            f"error: {links}:3: {fields[0]}: citation_flow=140 outside 0-100\n")
        assert not cfg.backlinks_attached.exists()


class TestIngestTweets:
    def test_malformed_line_names_file_and_line(self, tmp_path, fixtures_dir, capsys):
        first = (fixtures_dir / "tweets_main.jsonl").read_text(encoding="utf-8").splitlines()[0]
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text(first + "\n{not json\n", encoding="utf-8")
        cfg = fixture_config(tmp_path, fixtures_dir)
        cli.run("crawl", cfg)
        cli.run("parse", cfg)
        config_file = tmp_path / "run.cfg"
        config_file.write_text(f"seed_path={FOLD}\ncorpus_dir={cfg.corpus_dir}\n"
                               f"tweets_file={tweets}\n")
        assert cli.main(["ingest-tweets", "--config", str(config_file)]) == 1
        assert f"{tweets}:2: " in capsys.readouterr().err


class TestDailyGranularity:
    def test_peak_day_recorded(self, tmp_path, fixtures_dir):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cfg.granularity = "daily"
        cli.run("crawl", cfg)
        cli.run("parse", cfg)
        cli.run("analyze", cfg)
        summary = json.loads((cfg.report_dir / "summary.json").read_text())
        assert summary["peak_day"] == "2018-10-03"
        assert summary["peak_day_count"] == 3
        header = (cfg.report_dir / "annual_output.csv").read_text().splitlines()[0]
        assert header == "date,count"


class TestEmptyCorpus:
    def test_analyze_empty_corpus_emits_valid_reports(self, tmp_path, fixtures_dir):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cfg.corpus_dir.mkdir(parents=True)
        store.write_jsonl(cfg.corpus_file, [])
        cli.run("analyze", cfg)
        summary = json.loads((cfg.report_dir / "summary.json").read_text())
        assert summary["corpus_total"] == 0
        annual = (cfg.report_dir / "annual_output.csv").read_text()
        assert annual == "year,count\n"


def _synthetic_corpus(rng: random.Random, releases: int) -> list[dict]:
    """Corpus records with anomalous dates, missing types and regions, and
    institution names that differ only in case."""
    vocabulary = [f"kw{i}" for i in range(12)]
    institutions = ["Northfield University", "NORTHFIELD UNIV.", "Northfield Univ.",
                    "Halloway Medical Assn.", "Other Lab", ""]
    types = [t.value for t in release_parser.PressType] + [None]
    return [{
        "id": f"r{i}", "canonical_url": f"https://{FOLD}r{i}.html",
        "date": date(2010 + rng.randrange(5), 1 + rng.randrange(12),
                     1 + rng.randrange(28)).isoformat(),
        "date_anomaly": rng.random() < 0.1,
        "type": rng.choice(types),
        "keywords": rng.choices(vocabulary, k=rng.randrange(5)),
        "description": "", "funder": "", "journal": [],
        "institution": rng.choice(institutions), "meeting": "",
        "region": rng.choice([r.value for r in release_parser.Region]), "dois": [],
    } for i in range(releases)]


def _synthetic_mention(rng: random.Random, i: int, releases: int, urls: int = 2) -> dict:
    """A mention matching up to three ids, some beyond the corpus, plus ``urls`` outdated URLs."""
    kind = mention_ingest.MatchKind
    links = [f"https://{FOLD}r{rng.randrange(releases + 5)}.html/{'x' * 80}" for _ in range(urls)]
    created_at = datetime(2010 + rng.randrange(6), 1 + rng.randrange(12), 1, tzinfo=timezone.utc)
    ids = [f"r{rng.randrange(releases + 5)}" for _ in range(rng.randrange(4))]
    return mention_ingest.mention_to_dict(mention_ingest.TweetMention(
        tweet_id=f"t{i:06d}", created_at=created_at, author_id="a",
        matches=[mention_ingest.MatchResult(kind.MATCHED, f"https://{FOLD}{rid}.html", rid)
                 for rid in ids]
                + [mention_ingest.MatchResult(kind.OUTDATED_URL, link) for link in links]))


def _synthetic_backlink(rng: random.Random, release_id: str) -> dict:
    start = rng.choice([None, "2014-01-01", "2013-06-01", "2015-02-01"])
    return {"release_id": release_id, "target": f"https://{FOLD}{release_id}.html",
            "mentioning_webpages": 3, "mentioning_websites": 2, "citation_flow": 1,
            "trust_flow": 1, "window_start": start,
            "window_end": rng.choice([None, "2020-12-01", "2022-01-01"]),
            "websites_is_upper_bound": False, "merged_from": 1}


class TestCouple:
    def test_external_counts_that_aliases_merge_must_agree(self, tmp_path, fixtures_dir):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cfg.corpus_dir.mkdir(parents=True)
        store.write_jsonl(cfg.corpus_file, [])
        cfg.external_counts = tmp_path / "external_counts.csv"
        cfg.external_counts.write_text("journal,publications_with_doi\nJ. Fixture Sci.,40\n"
                                       "Journal of Fixture Science,100\n", encoding="utf-8")
        with pytest.raises(cli.PipelineError) as err:
            cli.run("couple", cfg)
        assert str(err.value).startswith(f"[couple] {cfg.external_counts}: 'j. fixture sci.' "
                                         f"and 'journal of fixture science' both name ")

    def test_only_coupling_edges_follow_corpus_order(self, tmp_path, completed_run):
        """Every report but coupling_edges.csv is ordered by its content. That
        one lists its rows in corpus line order, which is the crawl's
        breadth-first order, so a reversed corpus leaves it the same rows."""
        done, _ = completed_run
        cfg = copied_run(completed_run, tmp_path)
        lines = cfg.corpus_file.read_bytes().splitlines(keepends=True)
        cfg.corpus_file.write_bytes(b"".join(reversed(lines)))
        cli.run("couple", cfg)
        cli.run("analyze", cfg)
        names = sorted(p.name for p in done.report_dir.iterdir())
        assert names == sorted(p.name for p in cfg.report_dir.iterdir())
        assert "coupling_edges.csv" in names
        for name in names:
            want, got = ((d / name).read_bytes().splitlines(keepends=True)
                         for d in (done.report_dir, cfg.report_dir))
            if name == "coupling_edges.csv":
                want, got = want[:1] + sorted(want[1:]), got[:1] + sorted(got[1:])
            assert got == want, name

    def test_memory_does_not_grow_with_the_corpus(self, tmp_path, fixtures_dir):
        rng = random.Random(21)
        journals = ["Journal of Fixture Science", "Acta Synthetica", "Unlisted Letters"]

        def couple_peak(n: int) -> int:
            cfg = fixture_config(tmp_path / f"n{n}", fixtures_dir)
            cfg.corpus_dir.mkdir(parents=True)
            records = _synthetic_corpus(rng, n)
            for i, record in enumerate(records):
                record.update(description="a long description " * 200,
                              journal=[rng.choice(journals)],
                              dois=[{"raw": f"10.1000/r{i}", "normalized": f"10.1000/r{i}",
                                     "repair": "none"}])
            store.write_jsonl(cfg.corpus_file, records)
            del records
            tracemalloc.start()
            try:
                counts = cli.run("couple", cfg).counts
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert counts["edges"] == n
            return peak

        small, large = couple_peak(300), couple_peak(1200)
        assert large - small < 512 * 1024, (small, large)


class TestAnalyze:
    def test_reports_equal_the_public_statistics(self, tmp_path, fixtures_dir):
        rng = random.Random(12)
        cfg = fixture_config(tmp_path, fixtures_dir)
        cfg.corpus_dir.mkdir(parents=True)
        records = _synthetic_corpus(rng, 150)
        store.write_jsonl(cfg.corpus_file, records)
        store.write_jsonl(cfg.mentions_file, (_synthetic_mention(rng, i, 150) for i in range(400)))
        store.write_jsonl(cfg.backlinks_attached,
                          (_synthetic_backlink(rng, f"r{i}") for i in range(0, 160, 3)))
        corpus = [release_parser.release_from_dict(r) for r in records]
        mentions = [mention_ingest.mention_from_dict(r)
                    for r in store.read_jsonl(cfg.mentions_file)]
        backlinks = list(store.read_jsonl(cfg.backlinks_attached))
        aliases = release_parser.load_alias_table(cfg.alias_institutions)

        for granularity in ("yearly", "daily"):
            cfg.granularity = granularity
            cfg.report_dir = tmp_path / granularity
            cli.run("analyze", cfg)
            want = tmp_path / f"want_{granularity}"
            want.mkdir()
            series = analytics.output_series(corpus, granularity)
            types = analytics.type_distribution(corpus)
            regions = analytics.region_distribution(corpus)
            coverage = analytics.coverage_table(corpus, mentions,
                                                {r["release_id"] for r in backlinks})
            store.write_csv(want / "annual_output.csv",
                            ["year" if granularity == "yearly" else "date", "count"],
                            [[str(b), n] for b, n in series])
            store.write_csv(want / "type_distribution.csv", ["type", "count", "pct"],
                            cli._distribution_rows(types))
            store.write_csv(want / "keyword_frequency.csv", ["keyword", "occurrences"],
                            analytics.keyword_frequency(corpus))
            store.write_json(want / "cooccurrence_graph.json",
                             oracle.cograph_document(analytics.cooccurrence_graph(corpus)))
            store.write_csv(want / "region_distribution.csv", ["region", "count", "pct"],
                            cli._distribution_rows(regions))
            store.write_csv(want / "pio_ranking.csv", ["institution", "count"],
                            analytics.pio_ranking(corpus, aliases))
            store.write_csv(want / "mention_series.csv", ["year", "count"],
                            analytics.mention_series(mentions))
            store.write_csv(want / "tweets_per_release.csv", ["year", "tweets_per_release"],
                            [[y, cli._fmt(v, 2)]
                             for y, v in analytics.tweets_per_release(corpus, mentions).items()])
            store.write_csv(want / "coverage_table.csv",
                            ["year", "published", "tweeted", "pct_tweeted", "web_linked",
                             "pct_web"],
                            [[r.year, r.published, r.tweeted, cli._fmt(r.pct_tweeted, 2),
                              r.web_linked, cli._fmt(r.pct_web, 1)] for r in coverage])
            summary = {
                "corpus_total": len(corpus),
                "date_anomalous_excluded_from_series": sum(r.date_anomaly for r in corpus),
                "annual_output": sum(n for _, n in series),
                "type_distribution": sum(n for n, _ in types.values()),
                "region_distribution": sum(n for n, _ in regions.values()),
                "mentions": len(mentions),
                "coverage_table": sum(r.published for r in coverage),
                "backlink_window_start": min(r["window_start"] for r in backlinks
                                             if r["window_start"]),
                "backlink_window_end": max(r["window_end"] for r in backlinks if r["window_end"]),
            }
            if granularity == "daily":
                peak = analytics.peak_bucket(series)
                summary.update(peak_day=str(peak[0]), peak_day_count=peak[1])
            store.write_json(want / "summary.json", summary)
            got = {p.name: p.read_bytes() for p in cfg.report_dir.iterdir()}
            assert got == {p.name: p.read_bytes() for p in want.iterdir()}, granularity

    def test_memory_does_not_grow_with_the_mentions_and_backlinks(self, tmp_path, fixtures_dir):
        rng = random.Random(5)
        records = _synthetic_corpus(rng, 40)

        def analyze_peak(n: int) -> int:
            cfg = fixture_config(tmp_path / f"n{n}", fixtures_dir)
            cfg.corpus_dir.mkdir(parents=True)
            store.write_jsonl(cfg.corpus_file, records)
            store.write_jsonl(cfg.mentions_file,
                              (_synthetic_mention(rng, i, 40, urls=10) for i in range(n)))
            # ids beyond the corpus too, as a backlinks file left from an earlier corpus holds
            store.write_jsonl(cfg.backlinks_attached,
                              (_synthetic_backlink(rng, f"r{i}") for i in range(n)))
            tracemalloc.start()
            try:
                counts = cli.run("analyze", cfg).counts
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert counts["mentions"] == n
            return peak

        small, large = analyze_peak(300), analyze_peak(1200)
        assert large - small < 512 * 1024, (small, large)

    def test_memory_beyond_the_fold_does_not_grow_with_the_keyword_graph(self, tmp_path,
                                                                         fixtures_dir):
        rng = random.Random(8)
        vocabulary = [f"keyword{i:03d}" for i in range(400)]

        def traced(work) -> tuple:
            """What ``work()`` returns, and the traced peak while it ran."""
            tracemalloc.start()
            try:
                return work(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def folded(cfg) -> analytics.Fold:
            fold = analytics.Fold()
            for release in store.read_jsonl(cfg.corpus_file,
                                            convert=release_parser.release_from_dict):
                fold.add_release(release)
            return fold

        def excess(keywords: int) -> tuple[int, int]:
            """The analyze peak above the peak of folding its corpus, and the graph's edges."""
            cfg = fixture_config(tmp_path / f"k{keywords}", fixtures_dir)
            cfg.corpus_dir.mkdir(parents=True)
            records = _synthetic_corpus(rng, 300)
            for record in records:
                record["keywords"] = rng.sample(vocabulary, keywords)
            store.write_jsonl(cfg.corpus_file, records)
            edges, fold_peak = traced(lambda: len(folded(cfg).graph.edges))
            _, analyze_peak = traced(lambda: cli.run("analyze", cfg))
            return analyze_peak - fold_peak, edges

        (small, small_edges), (large, large_edges) = excess(8), excess(16)
        assert 3 * small_edges < large_edges < 5 * small_edges
        assert large - small < 512 * 1024, (small, large)

    def test_inputs_are_recorded_from_the_read_that_decodes_them(
            self, tmp_path, fixtures_dir, monkeypatch):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cfg.doi_journals = tmp_path / "doi_journals.csv"
        cfg.doi_journals.write_text("doi,journal\n10.1000/x,Journal of Tests\n")
        digested: list[str] = []
        file_digest = store.file_digest

        def recording_digest(path):
            digested.append(str(path))
            return file_digest(path)

        monkeypatch.setattr(store, "file_digest", recording_digest)
        read: set[str] = set()
        for command in cli.COMMANDS:
            digested.clear()
            inputs = cli.run(command, cfg).input_digests
            assert set(digested).isdisjoint(inputs), command
            assert inputs == {p: file_digest(p) for p in inputs}, command
            read |= set(inputs)
        assert read == {str(p) for p in (
            cfg.crawl_manifest, cfg.corpus_file, cfg.mentions_file, cfg.backlinks_attached,
            cfg.tweets_file, cfg.backlinks_file, cfg.resolver_file, cfg.doi_rewrites,
            cfg.external_counts, cfg.alias_journals, cfg.doi_journals, cfg.alias_institutions,
            cfg.report_dir / "summary.json")}

    @pytest.mark.parametrize("stage_files", [(), ("mentions_file",), ("backlinks_attached",),
                                             ("mentions_file", "backlinks_attached")])
    def test_an_optional_report_this_run_does_not_write_is_not_listed(self, completed_run,
                                                                      tmp_path, stage_files):
        # a second corpus analyzed into the report directory of a full run
        cfg, _ = completed_run
        second = cli.PipelineConfig(corpus_dir=tmp_path / "corpus", report_dir=tmp_path / "reports")
        shutil.copytree(cfg.report_dir, second.report_dir)
        second.corpus_dir.mkdir()
        for name in ("corpus_file",) + stage_files:
            shutil.copy(getattr(cfg, name), getattr(second, name))
        for command in ("analyze", "report"):
            cli.run(command, second)
        optional = {"mention_series.csv", "tweets_per_release.csv", "coverage_table.csv"}
        want = set()
        if "mentions_file" in stage_files:
            want |= {"mention_series.csv", "tweets_per_release.csv"}
        if len(stage_files) == 2:
            want.add("coverage_table.csv")
        manifest = json.loads((second.report_dir / "report_manifest.json").read_text())
        assert set(manifest["reports"]) & optional == want
        assert ("mentions" in manifest["populations"]) == ("mentions_file" in stage_files)
        assert ("coverage_table" in manifest["populations"]) == ("coverage_table.csv" in want)


def _python(code: str, *args) -> subprocess.CompletedProcess:
    """``code`` run by a new interpreter that imports this checkout's pressmetrics."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, timeout=60)


def _stringio_csv(header: list, rows: list) -> bytes:
    """What store.write_csv wrote before reports streamed, built in one StringIO."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _stringio_json(payload) -> bytes:
    """What store.write_json wrote before reports streamed, built in one StringIO."""
    buf = io.StringIO()
    json.dump(payload, buf, indent=2, ensure_ascii=False, sort_keys=True)
    buf.write("\n")
    return buf.getvalue().encode("utf-8")


_CELLS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_JSON_VALUES = st.recursive(
    st.text() | st.integers() | st.floats() | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24)


_ENUMS = (release_parser.PressType, release_parser.Region, release_parser.Repair,
          mention_ingest.MatchKind)
# every member value of the four enums as written, in other letter cases and padded
_SPELLINGS = st.sampled_from([m.value for kind in _ENUMS for m in kind]).flatmap(
    lambda v: st.sampled_from([v, v.upper(), v.title(), v.swapcase(), v.capitalize(),
                               f" {v}", f"{v} ", f"{v}\n", f"\t{v}", v.replace(" ", "  ")]))


class TestEnumMembers:
    @given(st.sampled_from(_ENUMS), _SPELLINGS | _JSON_VALUES)
    def test_a_member_is_what_the_enum_call_gives_for_a_str_and_all_else_is_refused(
            self, kind, value):
        want = None
        if type(value) is str:
            try:
                want = kind(value)  # the oracle
            except ValueError:
                pass
        if want is not None:
            assert store.member({"f": value}, "f", kind) is want
            return
        with pytest.raises(ValueError) as err:
            store.member({"f": value}, "f", kind)
        assert str(err.value).startswith(f"field 'f' is {value!r}, not one of ")


class TestStorePrimitives:
    # a block of one to three chunks puts block boundaries inside every small report
    @given(st.lists(st.text(), max_size=4), st.lists(st.lists(_CELLS, max_size=5), max_size=8),
           st.integers(1, 3))
    def test_a_streamed_csv_has_the_bytes_and_digest_of_one_string(self, header, rows, block):
        want = _stringio_csv(header, rows)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(store, "_BLOCK", block):
            path = Path(tmp) / "report.csv"
            assert store.write_csv(path, header, iter(rows)) == hashlib.sha256(want).hexdigest()
            assert path.read_bytes() == want

    @given(_JSON_VALUES, st.integers(1, 3))
    def test_a_streamed_json_document_has_the_bytes_and_digest_of_one_string(self, payload,
                                                                              block):
        want = _stringio_json(payload)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(store, "_BLOCK", block):
            path = Path(tmp) / "report.json"
            assert store.write_json(path, payload) == hashlib.sha256(want).hexdigest()
            assert path.read_bytes() == want

    def test_a_report_streams_to_its_temp_file_and_a_failure_removes_it(self, tmp_path):
        path = tmp_path / "report.csv"
        store.write_csv(path, ["n"], [[1]])
        temp_sizes = []

        def rows():
            for i in range(5000):
                if i == 4000:
                    temp_sizes.extend(p.stat().st_size for p in tmp_path.iterdir()
                                      if p.name.endswith(".tmp"))
                yield [i]
            raise RuntimeError("the row source failed")

        with pytest.raises(RuntimeError):
            store.write_csv(path, ["n"], rows())
        assert path.read_text() == "n\n1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
        [written] = temp_sizes  # the rows before the 4,000th were on disk when it was drawn
        assert written > 0

    def test_atomic_write_no_temp_leftovers(self, tmp_path):
        target = tmp_path / "out" / "file.txt"
        store.atomic_write_text(target, "payload")
        assert target.read_text() == "payload"
        assert [p.name for p in target.parent.iterdir()] == ["file.txt"]

    def test_read_mapping_accepts_a_repeat_and_refuses_a_conflict(self, tmp_path):
        path = tmp_path / "table.csv"
        def pair(row):
            return row["key"], row["value"]

        path.write_text("key,value\na,1\nb,2\na,1\n")
        assert store.read_mapping(path, pair) == {"a": "1", "b": "2"}
        path.write_text("key,value\na,1\nb,2\na,1\n\na,3\n")
        with pytest.raises(ValueError) as err:
            store.read_mapping(path, pair)
        assert str(err.value) == f"{path}:6: 'a' maps to '3', but to '1' on line 2"

    def test_read_jsonl_digests_every_byte_it_reads(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_bytes(b'{"a": 1}\n\n  \n{"a": 2}\r\n{"a": "\xc3\xa9"}')
        digests: dict = {}
        assert list(store.read_jsonl(path, digests)) == [{"a": 1}, {"a": 2}, {"a": "\u00e9"}]
        assert digests == {str(path): store.file_digest(path)}
        path.write_bytes(b'{"a": 1}\n\n{not json\n')
        with pytest.raises(ValueError) as err:
            list(store.read_jsonl(path, digests))
        assert str(err.value) == (f"{path}:3: Expecting property name enclosed in double quotes "
                                  f"at column 2")

    # (CSV bytes, read_csv rows or the error after "<path>:", read_mapping table or error)
    CSV_CASES = {
        "lf": (b"key,value\na,1\n\nb,2\n", [{"key": "a", "value": "1"}, {"key": "b", "value": "2"}],
               {"a": "1", "b": "2"}),
        "crlf": (b"key,value\r\na,1\r\n\r\nb,2\r\n",
                 [{"key": "a", "value": "1"}, {"key": "b", "value": "2"}], {"a": "1", "b": "2"}),
        "lone cr": (b"key,value\ra,1\r\rb,2\r",
                    [{"key": "a", "value": "1"}, {"key": "b", "value": "2"}], {"a": "1", "b": "2"}),
        "bom": (b"\xef\xbb\xbfkey,value\na,\xc3\xa9\n", [{"\ufeffkey": "a", "value": "\u00e9"}],
                "2: missing column 'key'"),
        "quoted cr": (b'key,value\na,"x\ry"\nb,2\n',
                      [{"key": "a", "value": "x\ry"}, {"key": "b", "value": "2"}],
                      {"a": "x\ry", "b": "2"}),
        "quoted crlf": (b'key,value\r\na,"x\r\ny"\r\nb,2\r\n',
                        [{"key": "a", "value": "x\r\ny"}, {"key": "b", "value": "2"}],
                        {"a": "x\r\ny", "b": "2"}),
        "short row after quoted cr": (b'key,value\na,"x\ry"\nb,2\nc\n',
                                      "5: expected 2 fields, got 1", "5: expected 2 fields, got 1"),
        "short row after lone cr": (b"key,value\ra,1\rb\r", "3: expected 2 fields, got 1",
                                    "3: expected 2 fields, got 1"),
        "not utf-8": (b"key,value\na,1\n\xff,2\n", f"3: {_not_utf8}", f"3: {_not_utf8}"),
        "not utf-8 after lone cr": (b"key,value\ra,1\r\xff,2\r", f"3: {_not_utf8}",
                                    f"3: {_not_utf8}"),
        "not utf-8 in a quoted field": (b'key,value\na,"x\n\xffy"\nb,2\n', f"3: {_not_utf8}",
                                        f"3: {_not_utf8}"),
        "field over the csv limit": (b"key,value\na," + b"x" * 140_000 + b"\nb,2\n",
                                     "2: field larger than field limit (131072)",
                                     "2: field larger than field limit (131072)"),
    }
    # (JSON Lines bytes, records or the error after "<path>:"); only "\n" ends a line
    JSONL_CASES = {
        "lf": (b'{"a": 1}\n\n{"a": 2}\n', [{"a": 1}, {"a": 2}]),
        "crlf": (b'{"a": 1}\r\n\r\n{"a": 2}\r\n', [{"a": 1}, {"a": 2}]),
        "lone cr": (b'{"a": 1}\r{"a": 2}\r', "1: Extra data at column 10"),
        "not utf-8": (b'{"a": 1}\n\xff\n', f"2: {_not_utf8}"),
    }

    @staticmethod
    def _read_and_digest(path, read, expected):
        """``read(path, digests)`` gives ``expected``, or fails with it after
        "<path>:"; the digest it records is the file's."""
        digests: dict = {}
        if isinstance(expected, str):
            with pytest.raises(ValueError) as err:
                read(path, digests)
            assert str(err.value) == f"{path}:{expected}"
            assert digests == {}
        else:
            assert read(path, digests) == expected
            assert digests == {str(path): store.file_digest(path)}

    @pytest.mark.parametrize("case", CSV_CASES)
    def test_csv_readers_split_lines_as_text_mode_and_digest_the_file(self, tmp_path, case):
        data, rows, table = self.CSV_CASES[case]
        path = tmp_path / "table.csv"
        path.write_bytes(data)
        self._read_and_digest(path, lambda p, d: store.read_csv(p, dict, d), rows)
        self._read_and_digest(path, lambda p, d: store.read_mapping(
            p, lambda row: (row["key"], row["value"]), d), table)

    @pytest.mark.parametrize("case", JSONL_CASES)
    def test_read_jsonl_splits_on_lf_only_and_digests_the_file(self, tmp_path, case):
        data, records = self.JSONL_CASES[case]
        path = tmp_path / "in.jsonl"
        path.write_bytes(data)
        self._read_and_digest(path, lambda p, d: list(store.read_jsonl(p, d)), records)

    def test_read_json_digests_the_bytes_it_parses(self, tmp_path):
        path = tmp_path / "summary.json"
        path.write_bytes(b'{\r\n  "a": "\xc3\xa9"\r\n}\n')
        self._read_and_digest(path, store.read_json, {"a": "\u00e9"})

    @pytest.mark.parametrize("data", [b"\xff", b'{"a": ', b"[" * 100_000],
                             ids=["not utf-8", "truncated", "nested too deep"])
    def test_json_readers_name_the_file_of_a_malformed_document(self, tmp_path, data):
        path = tmp_path / "summary.json"
        path.write_bytes(data)
        digests: dict = {}
        with pytest.raises(ValueError) as err:
            store.read_json(path, digests)
        assert str(err.value).startswith(f"{path}: ")
        assert digests == {}
        with pytest.raises(ValueError) as err:
            list(store.read_jsonl(path, digests))
        assert str(err.value).startswith(f"{path}:1: ")

    @given(st.binary() | st.lists(st.sampled_from(
        [b"{", b"}", b"[", b"]", b'"', b",", b":", b"1", b"a", b" ", b"\n", b"\r", b"\x00",
         b"\xff", b"\xc3", b"\xa9"])).map(b"".join))
    def test_readers_return_or_name_the_file(self, data):
        readers = {
            "read_jsonl": lambda path: list(store.read_jsonl(path)),
            "read_csv": lambda path: store.read_csv(path, dict),
            "read_mapping": lambda path: store.read_mapping(
                path, lambda row: next(iter(row.items()))),
            "read_json": store.read_json,
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input"
            path.write_bytes(data)
            for name, read in readers.items():
                try:
                    read(path)
                except ValueError as err:
                    assert str(err).startswith(f"{path}:"), (name, str(err))

    # (stage, the stage input, its line, the edit to that line's record, the error's detail)
    BAD_RECORDS = {
        "backlink window end not zero-padded": ("analyze", "backlinks_attached", 2,
                                                lambda r: r.update(window_end="2016-5-1"),
                                                "not a YYYY-MM-DD date: '2016-5-1'"),
        "mention without tweet_id": ("analyze", "mentions_file", 3,
                                     lambda r: r.pop("tweet_id"), "missing field 'tweet_id'"),
        "manifest line without class": ("parse", "crawl_manifest", 4,
                                        lambda r: r.pop("class"), "missing field 'class'"),
        "manifest line with a fractional length": ("parse", "crawl_manifest", 4,
                                                   lambda r: r.update(length=1.5),
                                                   "length 1.5 is not a byte count"),
        "manifest line with a negative length": ("parse", "crawl_manifest", 4,
                                                 lambda r: r.update(length=-1),
                                                 "length -1 is not a byte count"),
        "corpus date out of range, couple": ("couple", "corpus_file", 5,
                                             lambda r: r.update(date="2016-13-45"),
                                             "month must be in 1..12"),
        "corpus date out of range, ingest-links": ("ingest-links", "corpus_file", 5,
                                                   lambda r: r.update(date="2016-13-45"),
                                                   "month must be in 1..12"),
        "corpus date in basic format": ("couple", "corpus_file", 5,
                                        lambda r: r.update(date="20160501"),
                                        "not a YYYY-MM-DD date: '20160501'"),
        "backlink without release_id": ("analyze", "backlinks_attached", 2,
                                        lambda r: r.pop("release_id"),
                                        "missing field 'release_id'"),
        "corpus line without funder": ("couple", "corpus_file", 5, lambda r: r.pop("funder"),
                                       "missing field 'funder'"),
        "corpus date_anomaly as a string": ("analyze", "corpus_file", 5,
                                            lambda r: r.update(date_anomaly="false"),
                                            "field 'date_anomaly' is 'false', not a bool"),
        "corpus keywords as a string": ("analyze", "corpus_file", 5,
                                        lambda r: r.update(keywords="abc"),
                                        "field 'keywords' is 'abc', not a list"),
        "mention without author_id": ("analyze", "mentions_file", 3,
                                      lambda r: r.pop("author_id"), "missing field 'author_id'"),
        "match without url": ("analyze", "mentions_file", 3, lambda r: r["matches"][0].pop("url"),
                              "missing field 'url'"),
        "match with a numeric url": ("analyze", "mentions_file", 3,
                                     lambda r: r["matches"][0].update(url=5),
                                     "field 'url' is 5, not a str"),
        "matched entry without release_id": ("analyze", "mentions_file", 3,
                                             lambda r: r["matches"][0].pop("release_id"),
                                             "missing field 'release_id'"),
        "matched entry with a null release_id": ("analyze", "mentions_file", 3,
                                                 lambda r: r["matches"][0].update(release_id=None),
                                                 "field 'release_id' is None, not a str"),
        "outdated entry with a release_id": (
            "analyze", "mentions_file", 3,
            lambda r: r["matches"][0].update(kind="outdated_url", release_id="x"),
            "an outdated_url match has release_id 'x'"),
        "out-of-scope entry with a null release_id": (
            "analyze", "mentions_file", 3,
            lambda r: r["matches"][0].update(kind="out_of_scope", release_id=None),
            "an out_of_scope match has release_id None"),
        **{f"mention time {stamp}": ("analyze", "mentions_file", 3,
                                     lambda r, stamp=stamp: r.update(created_at=stamp),
                                     f"not a YYYY-MM-DDTHH:MM:SS time: {stamp!r}")
           for stamp in ("2016-03-20T09:00:00+0000", "20160320T090000Z",
                         "2016-W11-7T09:00:00Z", "2016-03-20T09:00:00.1Z")},
    }

    @pytest.mark.parametrize("case", BAD_RECORDS)
    def test_a_stage_input_with_a_bad_record_fails_with_its_file_and_line(
            self, tmp_path, fixtures_dir, case):
        stage, attr, lineno, edit, detail = self.BAD_RECORDS[case]
        cfg = fixture_config(tmp_path, fixtures_dir)
        for command in ("crawl", "parse", "ingest-tweets", "ingest-links"):
            cli.run(command, cfg)
        path = getattr(cfg, attr)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[lineno - 1])
        edit(record)
        lines[lineno - 1] = json.dumps(record) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError) as err:  # which main prints as "error: <message>"
            cli.run(stage, cfg)
        assert str(err.value) == f"{path}:{lineno}: {detail}"


def _other_type(value):
    """A JSON value of another type than ``value``."""
    if value is None or isinstance(value, str):
        return 7
    if isinstance(value, (bool, int)):
        return json.dumps(value)
    return "x"


def _in_record(edit):
    """A line edit that applies ``edit`` to the line's JSON record."""
    def change(raw: bytes) -> bytes:
        record = json.loads(raw)
        edit(record)
        return (json.dumps(record) + "\n").encode("utf-8")
    return change


def _first(pick):
    """The index of the first JSON Lines line whose record ``pick`` accepts."""
    return lambda lines: next(n for n, line in enumerate(lines) if pick(json.loads(line)))


def _cut_in_half(raw: bytes) -> bytes:
    return raw[:len(raw) // 2] + b"\n"


def _with_a_byte_not_utf8(raw: bytes) -> bytes:
    return raw[:5] + b"\xff" + raw[5:]


def _jsonl_cases(name: str, stages: tuple, pick, keys: tuple, edits: dict) -> dict:
    """Mutations of one line of a JSON Lines input: truncated, not UTF-8, each
    key the stages read dropped or given another JSON type, then ``edits``."""
    changes = {"truncated": _cut_in_half, "not utf-8": _with_a_byte_not_utf8}
    for key in keys:
        changes[f"without {key}"] = _in_record(lambda r, key=key: r.pop(key))
        changes[f"{key} retyped"] = _in_record(
            lambda r, key=key: r.update({key: _other_type(r[key])}))
    changes.update({edit: _in_record(change) for edit, change in edits.items()})
    return {f"{name}, {edit}": (name, stages, _first(pick), change)
            for edit, change in changes.items()}


def _table_cases(name: str, stages: tuple) -> dict:
    """Mutations of a CSV table: its first row truncated before its last field,
    given a byte that is not UTF-8 or a field over csv's limit, or its header
    without its first column."""
    changes = {"truncated": (1, lambda raw: raw[:raw.rindex(b",")] + b"\n"),
               "not utf-8": (1, _with_a_byte_not_utf8),
               "over-long field": (1, lambda raw: b"x" * 140_000 + raw),
               "without its first column": (0, lambda raw: raw[raw.index(b",") + 1:])}
    return {f"{name}, {edit}": (name, stages, lambda lines, n=n: n, change)
            for edit, (n, change) in changes.items()}


class TestMutatedStageInputs:
    """One line of one stage input of the fixture run is mutated; each stage
    that reads the input, run through ``main``, exits 1 with one error line
    that names the file, and with no traceback. The tweet archive is left out:
    a malformed tweet is skipped and counted."""

    # case -> (input: a PipelineConfig path or "summary", stages that read it,
    #          the index of the line mutated, the mutation of that line)
    CASES = {
        **_jsonl_cases("crawl_manifest", ("parse",), lambda r: r["class"] == "press_release",
                       ("url", "digest", "length", "class"),
                       {"class relabelled": lambda r: r.update({"class": "press-release"})}),
        **_jsonl_cases("corpus_file", ("ingest-tweets", "ingest-links", "couple", "analyze"),
                       lambda r: r["dois"] and r["journal"],
                       ("id", "canonical_url", "date", "date_anomaly", "type", "keywords",
                        "description", "funder", "journal", "institution", "meeting", "region",
                        "dois"),
                       {"keyword a number": lambda r: r.update(keywords=[5]),
                        "journal a number": lambda r: r.update(journal=[5]),
                        "doi raw a number": lambda r: r["dois"][0].update(raw=5),
                        "doi normalized a number": lambda r: r["dois"][0].update(normalized=5),
                        "doi without repair": lambda r: r["dois"][0].pop("repair"),
                        "type no press type": lambda r: r.update(type="rumour"),
                        "region no region": lambda r: r.update(region="Atlantis"),
                        "doi repair no repair": lambda r: r["dois"][0].update(repair="guessed")}),
        **_jsonl_cases("mentions_file", ("analyze",),
                       lambda r: r["matches"][0]["kind"] == "matched",
                       ("tweet_id", "created_at", "author_id", "matches"),
                       {"match kind retyped": lambda r: r["matches"][0].update(kind=5),
                        "match kind misspelt": lambda r: r["matches"][0].update(kind="matchd"),
                        "match without url": lambda r: r["matches"][0].pop("url"),
                        "match url retyped": lambda r: r["matches"][0].update(url=5),
                        "matched entry without release_id":
                            lambda r: r["matches"][0].pop("release_id"),
                        "matched entry relabelled outdated_url":
                            lambda r: r["matches"][0].update(kind="outdated_url"),
                        "matched entry relabelled out_of_scope":
                            lambda r: r["matches"][0].update(kind="out_of_scope")}),
        **_jsonl_cases("backlinks_attached", ("analyze",), lambda r: True,
                       ("release_id", "window_start", "window_end"),
                       {"release_id a list": lambda r: r.update(release_id=["x"]),
                        "window_end not zero-padded": lambda r: r.update(window_end="2016-5-1"),
                        "window_start not a date": lambda r: r.update(window_start="garbage")}),
        **_table_cases("alias_institutions", ("analyze",)),
        **_table_cases("alias_journals", ("couple",)),
        **_table_cases("doi_rewrites", ("parse",)),
        "doi_rewrites, journal pattern unbalanced": (
            "doi_rewrites", ("parse",), lambda lines: 1,
            lambda raw: raw.replace(b"Acta Synthetica,", b"Acta (,")),
        "doi_rewrites, find unbalanced": (
            "doi_rewrites", ("parse",), lambda lines: 1, lambda raw: raw.replace(b"//,", b"//(,")),
        "doi_rewrites, replace names a missing group": (
            "doi_rewrites", ("parse",), lambda lines: 1,
            lambda raw: raw[:raw.rindex(b",") + 1] + b"\\9\n"),
        **_table_cases("external_counts", ("couple",)),
        "external_counts, a negative count": (
            "external_counts", ("couple",), lambda lines: 1,
            lambda raw: raw.replace(b",1200\n", b",-5\n")),
        **_table_cases("backlinks_file", ("ingest-links",)),
        **_table_cases("resolver_file", ("parse", "ingest-tweets")),
        "summary, truncated": ("summary", ("report",), lambda lines: 1, _cut_in_half),
        "summary, not utf-8": ("summary", ("report",), lambda lines: 1, _with_a_byte_not_utf8),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_a_mutated_line_fails_with_its_file(self, completed_run, fixtures_dir, tmp_path,
                                                capsys, case):
        name, stages, where, change = self.CASES[case]
        done, _ = completed_run
        cfg = fixture_config(tmp_path, fixtures_dir)
        shutil.copytree(done.corpus_dir, cfg.corpus_dir,
                        ignore=shutil.ignore_patterns(done.run_log.name))
        cfg.report_dir.mkdir()
        shutil.copy(done.report_dir / "summary.json", cfg.report_dir)
        if name == "summary":
            path = cfg.report_dir / "summary.json"
        else:
            path = getattr(cfg, name)
            if not path.is_relative_to(tmp_path):  # a fixture table: mutate a copy
                path = Path(shutil.copy(path, tmp_path))
                setattr(cfg, name, path)
        lines = path.read_bytes().splitlines(keepends=True)
        n = where(lines)
        lines[n] = change(lines[n])
        path.write_bytes(b"".join(lines))
        config_file = tmp_path / "run.cfg"
        config_file.write_text("".join(f"{f.name}={getattr(cfg, f.name)}\n"
                                       for f in dataclasses.fields(cfg)
                                       if getattr(cfg, f.name) is not None))
        for stage in stages:
            assert cli.main([stage, "--config", str(config_file)]) == 1, stage
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"{path}:" in err and err.count("\n") == 1, err
            if path.suffix == ".jsonl":  # a JSON Lines input names the mutated line too
                assert f"{path}:{n + 1}: " in err, err


class TestRunLock:
    """The run log is the lock: a stage runs holding an exclusive flock on it."""

    def test_a_live_holder_blocks_the_run(self, tmp_path, fixtures_dir, capsys):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cfg.corpus_dir.mkdir(parents=True)
        # another open file description conflicts, even within this process
        with open(cfg.run_log, "a") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with pytest.raises(RuntimeError, match="locked by another run"):
                cli.run("crawl", cfg)
            assert cli.main(["report", "--corpus-dir", str(cfg.corpus_dir),
                             "--report-dir", str(cfg.report_dir)]) == 1
            assert capsys.readouterr().err == (
                f"error: output directory is locked by another run: {cfg.run_log}\n")
            assert [p.name for p in cfg.corpus_dir.iterdir()] == ["run_log.jsonl"]
            assert not cfg.report_dir.exists()
            assert cfg.run_log.read_text() == ""
        cli.run("crawl", cfg)
        assert len(cfg.run_log.read_text().splitlines()) == 1

    def test_a_killed_holder_does_not_block(self, tmp_path, fixtures_dir):
        cfg = fixture_config(tmp_path, fixtures_dir)
        k = 7
        # a crawl SIGKILLed, as the OOM killer would, while it holds the lock
        code = ("import os, signal, sys\n"
                "from pathlib import Path\n"
                "from pressmetrics import cli, harvester\n"
                "fetch, calls = harvester.DirectoryFetcher.fetch, []\n"
                "def fetch_then_die(self, url):\n"
                f"    if len(calls) == {k}:\n"
                "        os.kill(os.getpid(), signal.SIGKILL)\n"
                "    calls.append(url)\n"
                "    return fetch(self, url)\n"
                "harvester.DirectoryFetcher.fetch = fetch_then_die\n"
                "cli.run('crawl', cli.PipelineConfig(seed_path=sys.argv[1], rate_limit=0.0,\n"
                "        corpus_dir=Path(sys.argv[2]), fixtures_dir=Path(sys.argv[3])))\n")
        proc = _python(code, FOLD, cfg.corpus_dir, cfg.fixtures_dir)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        partial = cfg.crawl_manifest.with_name("crawl_manifest.jsonl.partial")
        assert len(partial.read_text().splitlines()) == k
        manifest = cli.run("crawl", cfg)
        assert manifest.counts["fetched"] == 62
        assert "stale_locks_broken" not in manifest.counts
        assert cfg.run_log.read_text() == manifest.to_json() + "\n"

    def test_a_lock_file_of_the_previous_version_is_ignored(self, tmp_path, fixtures_dir):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cfg.corpus_dir.mkdir(parents=True)
        old_lock = cfg.corpus_dir / ".pressmetrics.lock"
        old_lock.write_text(json.dumps({"pid": os.getpid(), "host": os.uname().nodename}))
        cli.run("crawl", cfg)
        assert len(cfg.run_log.read_text().splitlines()) == 1
        assert old_lock.exists()  # neither read nor removed

    def test_analyze_logs_its_populations_as_its_counts(self, tmp_path, fixtures_dir):
        cfg = fixture_config(tmp_path, fixtures_dir)
        for command in ("crawl", "parse", "ingest-links"):
            cli.run(command, cfg)
        counts = cli.run("analyze", cfg).counts
        assert (counts["backlink_window_start"], counts["backlink_window_end"]) == (
            "2015-09-01", "2021-04-01")
        assert json.loads(cfg.run_log.read_text().splitlines()[-1])["counts"] == counts
        assert counts == json.loads((cfg.report_dir / "summary.json").read_text())


def analyzed_copy(done: cli.PipelineConfig, fixtures_dir: Path, base: Path) -> cli.PipelineConfig:
    """A copy of the completed run's stage files under ``base``, without its run
    log, that couple, analyze and report have run on into their own report directory."""
    cfg = fixture_config(base, fixtures_dir)
    shutil.copytree(done.corpus_dir, cfg.corpus_dir,
                    ignore=shutil.ignore_patterns(done.run_log.name))
    for command in ("couple", "analyze", "report"):
        cli.run(command, cfg)
    return cfg


def report_via_main(cfg: cli.PipelineConfig, report_dir: Path, capsys) -> tuple[int, str]:
    """``report`` run through ``main`` on ``cfg``'s corpus into ``report_dir``: status, stderr."""
    status = cli.main(["report", "--corpus-dir", str(cfg.corpus_dir),
                       "--report-dir", str(report_dir)])
    return status, capsys.readouterr().err


class TestReport:
    def test_a_killed_writers_temp_file_is_not_listed(self, completed_run):
        cfg, _ = completed_run
        listed = (cfg.report_dir / "report_manifest.json").read_bytes()
        # a writer killed between its temp-file write and the rename
        code = ("import os, signal, sys\n"
                "from pressmetrics import store\n"
                "os.replace = lambda *args: os.kill(os.getpid(), signal.SIGKILL)\n"
                "store.write_csv(sys.argv[1], ['year', 'count'], [['2016', 1]])\n")
        proc = _python(code, cfg.report_dir / "annual_output.csv")
        assert proc.returncode == -signal.SIGKILL
        [leftover] = [p for p in cfg.report_dir.iterdir() if p.name.endswith(".tmp")]
        try:
            assert leftover.name.startswith("annual_output.csv.")
            cli.run("report", cfg)
            assert (cfg.report_dir / "report_manifest.json").read_bytes() == listed
        finally:
            leftover.unlink()

    def test_a_second_corpus_analyzed_into_a_full_runs_reports_lists_only_its_own(
            self, completed_run, tmp_path):
        cfg, _ = completed_run
        second = cli.PipelineConfig(corpus_dir=tmp_path / "corpus", report_dir=tmp_path / "reports")
        shutil.copytree(cfg.report_dir, second.report_dir)
        second.corpus_dir.mkdir()
        second.corpus_file.write_bytes(b"".join(cfg.corpus_file.read_bytes().splitlines(True)[:10]))
        analyzed = cli.run("analyze", second).output_digests
        cli.run("report", second)
        reports = json.loads((second.report_dir / "report_manifest.json").read_text())["reports"]
        assert reports == {Path(path).name: digest for path, digest in analyzed.items()}
        assert not {"coupling_edges.csv", "journal_coverage.csv"} & set(reports)
        assert (second.report_dir / "coupling_edges.csv").exists()  # still there, not listed

    @pytest.mark.parametrize("name, edit", [
        ("annual_output.csv", "changed"), ("journal_coverage.csv", "changed"),
        ("summary.json", "changed"), ("pio_ranking.csv", "removed"),
        ("coupling_edges.csv", "removed"), ("summary.json", "removed")])
    def test_a_report_changed_or_removed_since_its_stage_wrote_it_fails(
            self, completed_run, fixtures_dir, tmp_path, capsys, name, edit):
        cfg = analyzed_copy(completed_run[0], fixtures_dir, tmp_path)
        listed = (cfg.report_dir / "report_manifest.json").read_bytes()
        path = cfg.report_dir / name
        if edit == "changed":
            path.write_bytes(path.read_bytes() + b"\n")  # one byte more: summary.json still reads
        else:
            path.unlink()
        status, err = report_via_main(cfg, cfg.report_dir, capsys)
        assert status == 1
        assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1, err
        assert (cfg.report_dir / "report_manifest.json").read_bytes() == listed

    @pytest.mark.parametrize("corpus", ["the run's own", "a new one"])
    def test_a_summary_that_no_analyze_run_wrote_there_fails(self, completed_run, fixtures_dir,
                                                             tmp_path, capsys, corpus):
        cfg = analyzed_copy(completed_run[0], fixtures_dir, tmp_path / "run")
        if corpus == "a new one":
            cfg.corpus_dir = tmp_path / "corpus"
            cfg.corpus_dir.mkdir()
        # every report, summary.json too, copied where no analyze run wrote it
        copied = shutil.copytree(cfg.report_dir, tmp_path / "copied")
        listed = (copied / "report_manifest.json").read_bytes()
        status, err = report_via_main(cfg, copied, capsys)
        assert status == 1
        assert err == (f"error: [report] no analyze run in {cfg.run_log} "
                       f"wrote {copied / 'summary.json'}\n")
        assert (copied / "report_manifest.json").read_bytes() == listed

    @pytest.mark.parametrize("line", [b'{"command": "analyze"\n', b'{"command": "analyze"}\n',
                                      b'{"command": "analyze", "output_digests": []}\n'])
    def test_a_damaged_run_log_line_fails_at_its_line(self, completed_run, fixtures_dir,
                                                      tmp_path, capsys, line):
        cfg = analyzed_copy(completed_run[0], fixtures_dir, tmp_path)
        with open(cfg.run_log, "ab") as log:
            log.write(line)
        status, err = report_via_main(cfg, cfg.report_dir, capsys)
        assert status == 1
        assert err.startswith(f"error: {cfg.run_log}:4: ") and err.count("\n") == 1, err


class TestMainEntryPoint:
    def test_exit_zero_on_success(self, tmp_path, fixtures_dir, capsys):
        config_file = tmp_path / "run.cfg"
        config_file.write_text(
            f"seed_path={FOLD}\n"
            "rate_limit=0\n"
            f"fixtures_dir={fixtures_dir / 'site'}\n"
            f"corpus_dir={tmp_path / 'corpus'}\n"
            f"report_dir={tmp_path / 'reports'}\n")
        assert cli.main(["crawl", "--config", str(config_file)]) == 0
        assert "crawl: ok" in capsys.readouterr().out

    def test_allowed_hosts_is_an_unknown_key(self, tmp_path, fixtures_dir, capsys):
        config_file = tmp_path / "run.cfg"
        config_file.write_text(
            f"seed_path={FOLD}\n"
            "allowed_hosts=www.eksci.test\n"
            f"fixtures_dir={fixtures_dir / 'site'}\n"
            f"corpus_dir={tmp_path / 'corpus'}\n")
        assert cli.main(["crawl", "--config", str(config_file)]) == 1
        assert capsys.readouterr().err == "error: unknown config key 'allowed_hosts'\n"
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("line,message", [
        ("granularity=weekly", "config key 'granularity' is not one of yearly, daily: 'weekly'"),
        ("rate_limit=fast", "config key 'rate_limit' is not a number: 'fast'"),
        *((f"rate_limit={value}", f"config key 'rate_limit' is not a finite number >= 0: {value!r}")
          for value in ("nan", "inf", "-1")),
    ])
    def test_a_bad_config_value_fails_before_any_stage(self, tmp_path, fixtures_dir, capsys,
                                                       line, message):
        config_file = tmp_path / "run.cfg"
        config_file.write_text(
            f"seed_path={FOLD}\n"
            f"{line}\n"
            f"fixtures_dir={fixtures_dir / 'site'}\n"
            f"corpus_dir={tmp_path / 'corpus'}\n"
            f"report_dir={tmp_path / 'reports'}\n")
        assert cli.main(["crawl", "--config", str(config_file)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("stage", [c for c in cli.COMMANDS if c != "crawl"])
    def test_a_missing_corpus_dir_is_refused_not_created(self, tmp_path, capsys, stage):
        typo = tmp_path / "typo"
        assert cli.main([stage, "--corpus-dir", str(typo),
                         "--report-dir", str(tmp_path / "reports")]) == 1
        assert capsys.readouterr().err == (f"error: [{stage}] missing prerequisite: "
                                           f"corpus_dir at {typo}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", ["corpus_dir", "report_dir"])
    @pytest.mark.parametrize("via_flag", [False, True])
    def test_an_empty_path_with_a_default_is_refused(self, tmp_path, capsys, monkeypatch,
                                                     key, via_flag):
        monkeypatch.chdir(tmp_path)
        config_file = tmp_path / "run.cfg"
        config_file.write_text("" if via_flag else f"{key}=\n")
        flag = ["--" + key.replace("_", "-"), ""] if via_flag else []
        assert cli.main(["report", "--config", str(config_file), *flag]) == 1
        assert capsys.readouterr().err == f"error: config key {key!r} is empty\n"
        assert list(tmp_path.iterdir()) == [config_file]

    def test_every_flag_reaches_the_config(self, tmp_path, fixtures_dir, capsys):
        assert cli.main(["crawl", "--seed-path", FOLD, "--fixtures", str(fixtures_dir / "site"),
                         "--corpus-dir", str(tmp_path / "corpus"),
                         "--report-dir", str(tmp_path / "reports"), "--rate-limit", "0",
                         "--granularity", "daily"]) == 0
        assert "crawl: ok" in capsys.readouterr().out

    def test_exit_nonzero_names_stage(self, tmp_path, capsys):
        assert cli.main(["parse", "--corpus-dir", str(tmp_path / "nowhere")]) == 1
        assert "[parse]" in capsys.readouterr().err

    def test_oversized_resolver_field_names_file_and_line(self, tmp_path, fixtures_dir, capsys):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cli.run("crawl", cfg)
        resolver = tmp_path / "resolver.csv"
        resolver.write_text("from_url,to_url\nhttps://sho.rt/big,https://x.test/" + "a" * 140_000
                            + "\n", encoding="utf-8")
        config_file = tmp_path / "run.cfg"
        config_file.write_text(f"seed_path={FOLD}\ncorpus_dir={cfg.corpus_dir}\n"
                               f"resolver_file={resolver}\n")
        assert cli.main(["parse", "--config", str(config_file)]) == 1
        assert capsys.readouterr().err == (
            f"error: {resolver}:2: field larger than field limit (131072)\n")

    def test_a_config_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        config_file = tmp_path / "run.cfg"
        config_file.write_bytes(b"seed_path=\xff\n")
        assert cli.main(["crawl", "--config", str(config_file)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {config_file}: 'utf-8' codec ")
        assert list(tmp_path.iterdir()) == [config_file]

    def test_truncated_summary_names_the_file(self, tmp_path, capsys):
        summary = tmp_path / "reports" / "summary.json"
        summary.parent.mkdir()
        summary.write_text('{"corpus_total": 5', encoding="utf-8")
        (tmp_path / "corpus").mkdir()
        assert cli.main(["report", "--corpus-dir", str(tmp_path / "corpus"),
                         "--report-dir", str(summary.parent)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {summary}: ")
