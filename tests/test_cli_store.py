import json
import os
import shutil
import socket
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path

import pytest

from pressmetrics import cli, harvester, mention_ingest, pagescan, release_parser, store
from pressmetrics.urls import url_digest

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
            f"report_dir={tmp_path / 'reports'}\n"
            "max_depth=4\n")
        values = cli.load_config_file(config_file)
        cfg = cli.build_config(values, {"rate_limit": 0.0, "granularity": "daily"})
        assert cfg.seed_path == FOLD
        assert cfg.rate_limit == 0.0  # CLI flag wins
        assert cfg.max_depth == 4
        assert cfg.granularity == "daily"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            cli.build_config({"surprise": "1"}, {})

    def test_bad_line_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("just words\n")
        with pytest.raises(ValueError):
            cli.load_config_file(bad)

    def test_max_depth_validated(self):
        with pytest.raises(ValueError):
            cli.PipelineConfig(max_depth=0)

    def test_every_path_field_converts_from_a_string(self):
        hints = typing.get_type_hints(cli.PipelineConfig)
        path_fields = [name for name, hint in hints.items()
                       if Path in (hint, *typing.get_args(hint))]
        assert {"corpus_dir", "fixtures_dir", "resolver_file"} <= set(path_fields)
        cfg = cli.build_config({name: f"d/{name}" for name in path_fields}, {})
        assert all(getattr(cfg, name) == Path(f"d/{name}") for name in path_fields)


class TestPrerequisites:
    def test_parse_before_crawl(self, tmp_path, fixtures_dir):
        cfg = fixture_config(tmp_path, fixtures_dir)
        with pytest.raises(cli.PipelineError) as err:
            cli.run("parse", cfg)
        assert err.value.stage == "parse"
        assert "missing prerequisite" in str(err.value)

    def test_parse_requires_configured_resolver(self, tmp_path, fixtures_dir):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cli.run("crawl", cfg)
        cfg.resolver_file = tmp_path / "no_resolver.csv"
        with pytest.raises(cli.PipelineError) as err:
            cli.run("parse", cfg)
        assert err.value.stage == "parse"
        assert "missing prerequisite" in str(err.value)

    def test_unknown_command(self, tmp_path, fixtures_dir):
        with pytest.raises(cli.PipelineError):
            cli.run("transmogrify", fixture_config(tmp_path, fixtures_dir))

    def test_couple_requires_external_counts(self, tmp_path, fixtures_dir):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cli.run("crawl", cfg)
        cli.run("parse", cfg)
        cfg.external_counts = None
        with pytest.raises(cli.PipelineError) as err:
            cli.run("couple", cfg)
        assert err.value.stage == "couple"

    @pytest.mark.parametrize("stage,table", [
        ("parse", "doi_rewrites"),
        ("couple", "alias_journals"),
        ("couple", "doi_journals"),
        ("analyze", "alias_institutions"),
    ])
    def test_configured_table_missing_is_a_prerequisite_error(self, tmp_path, fixtures_dir,
                                                              stage, table):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cli.run("crawl", cfg)
        if stage != "parse":
            cli.run("parse", cfg)
        setattr(cfg, table, tmp_path / "missing.csv")
        with pytest.raises(cli.PipelineError) as err:
            cli.run(stage, cfg)
        assert err.value.stage == stage
        assert "missing prerequisite" in str(err.value)


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
            assert tuple(entry) == ("url", "status", "digest", "fetched_at", "class")

    def test_content_store_one_file_per_record(self, completed_run):
        cfg, _ = completed_run
        entries = list(store.read_jsonl(cfg.crawl_manifest))
        assert len(entries) == 62
        for entry in entries:
            assert (cfg.pages_dir / (url_digest(entry["url"]) + ".body")).exists()

    def test_crawl_digests_match_stored_files(self, completed_run):
        cfg, manifests = completed_run
        assert manifests["crawl"].output_digests == {
            str(cfg.crawl_manifest): store.file_digest(cfg.crawl_manifest)}
        for entry in store.read_jsonl(cfg.crawl_manifest):
            body = cfg.pages_dir / (url_digest(entry["url"]) + ".body")
            assert entry["digest"] == store.file_digest(body), entry["url"]

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
        bodies = {e["url"]: (cfg.pages_dir / (url_digest(e["url"]) + ".body")).read_bytes()
                  for e in entries}
        assert len(scanned) == len(entries)
        assert sorted(b for b in scanned if b.strip()) == sorted(
            b for b in bodies.values() if b.strip())

        scanned.clear()
        cli.run("parse", cfg)
        press = [bodies[e["url"]] for e in entries if e["class"] == "press_release"]
        assert len(press) == 50
        assert sorted(scanned) == sorted(press)


class _Interrupted(BaseException):
    """Stands in for a kill: not an Exception, so no retry or handler takes it."""


def _serve_synthetic_site(monkeypatch, pages: int, filler: int) -> None:
    """Fixtures mode serves an index linking ``pages`` pages of ``filler`` bytes."""
    page = "<html><head><title>{}</title></head><body><p>{}</p></body></html>"

    def synthetic(self, url):
        if url.endswith("/"):
            links = "".join(f'<a href="p{i}.html">{i}</a>' for i in range(pages))
            return 200, f"<html><body>{links}</body></html>".encode()
        return 200, page.format(url, "x" * filler).encode()

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
        cfg.crawl_manifest.write_text("an earlier crawl's manifest, which no longer fits pages/\n")
        with pytest.raises(_Interrupted):
            cli.run("crawl", cfg)

        full = completed_run[0].crawl_manifest.read_text(encoding="utf-8").splitlines(True)
        partial = cfg.crawl_manifest.with_name("crawl_manifest.jsonl.partial")
        assert partial.read_text(encoding="utf-8").splitlines(True) == full[:k]
        assert sorted(p.name for p in cfg.pages_dir.iterdir()) == sorted(
            url_digest(url) + ".body" for url in calls)
        assert not cfg.crawl_manifest.exists()
        assert not cfg.run_log.exists()
        with store.DirectoryLock(cfg.corpus_dir):  # released
            pass

    def test_crawl_killed_inside_a_body_write_commits_no_line_for_it(
            self, tmp_path, fixtures_dir, monkeypatch, completed_run):
        k = 7
        write_bytes = Path.write_bytes
        written: list[Path] = []

        def write_then_die(self, data):
            if len(written) == k:
                write_bytes(self, data[:len(data) // 2])
                raise _Interrupted()
            written.append(self)
            return write_bytes(self, data)

        cfg = fixture_config(tmp_path, fixtures_dir)
        monkeypatch.setattr(Path, "write_bytes", write_then_die)
        with pytest.raises(_Interrupted):
            cli.run("crawl", cfg)
        monkeypatch.undo()

        partial = cfg.crawl_manifest.with_name("crawl_manifest.jsonl.partial")
        lines = list(store.read_jsonl(partial))
        assert lines == list(store.read_jsonl(completed_run[0].crawl_manifest))[:k]
        assert [cfg.pages_dir / (url_digest(e["url"]) + ".body") for e in lines] == written
        assert len(list(cfg.pages_dir.iterdir())) == k + 1  # the torn body is named nowhere
        assert not cfg.crawl_manifest.exists()

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

    @pytest.mark.parametrize("dies", [False, True], ids=["success", "crawl raises"])
    def test_stage_closes_the_live_fetcher(self, tmp_path, monkeypatch, dies):
        closed = []

        class _LiveFetcher:
            def fetch(self, url):
                if dies:
                    raise _Interrupted()
                return 200, b"<html><body><p>one page</p></body></html>"

            def close(self):
                closed.append(self)

        monkeypatch.setattr(harvester, "HttpFetcher", _LiveFetcher)
        cfg = cli.PipelineConfig(seed_path="live.test/site/", rate_limit=0.0,
                                 corpus_dir=tmp_path / "corpus")
        if dies:
            with pytest.raises(_Interrupted):
                cli.run("crawl", cfg)
        else:
            assert cli.run("crawl", cfg).counts["fetched"] == 1
        assert len(closed) == 1

    def test_fixtures_pipeline_never_loads_requests(self, tmp_path, fixtures_dir):
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
                "assert 'requests' not in sys.modules, 'requests was imported'\n")
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


class TestParse:
    def test_resolves_only_the_short_links_pages_carry(self, tmp_path, fixtures_dir,
                                                       monkeypatch):
        resolved: list[str] = []
        resolve_chain = mention_ingest.resolve_chain

        def counting_resolve(url, resolver, max_depth=5):
            resolved.append(url)
            return resolve_chain(url, resolver, max_depth)

        cfg = fixture_config(tmp_path, fixtures_dir)
        cli.run("crawl", cfg)
        monkeypatch.setattr(mention_ingest, "resolve_chain", counting_resolve)
        cli.run("parse", cfg)
        assert resolved == ["https://sho.rt/doi42"]
        unshortened = [d["normalized"] for r in store.read_jsonl(cfg.corpus_file)
                       for d in r["dois"] if d["repair"] == "unshortened"]
        assert unshortened == ["10.48550/fix.2020.044"]

    def test_refuses_a_body_altered_after_the_crawl(self, tmp_path, fixtures_dir):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cli.run("crawl", cfg)
        entry = next(e for e in store.read_jsonl(cfg.crawl_manifest)
                     if e["class"] == "press_release")
        body = cfg.pages_dir / (url_digest(entry["url"]) + ".body")
        body.write_bytes(body.read_bytes() + b"\n")
        with pytest.raises(cli.PipelineError) as err:
            cli.run("parse", cfg)
        assert err.value.stage == "parse"
        for named in (str(body), entry["url"], str(cfg.crawl_manifest)):
            assert named in str(err.value)
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


def _write_lock(directory: Path, pid: int, host: str) -> None:
    (directory / ".pressmetrics.lock").write_text(json.dumps({"pid": pid, "host": host}))


def _dead_pid() -> int:
    """The PID of a process that has exited and been reaped."""
    proc = subprocess.Popen([sys.executable, "-c", ""])
    proc.wait(timeout=60)
    return proc.pid


class TestStorePrimitives:
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

    def test_lock_is_exclusive(self, tmp_path):
        with store.DirectoryLock(tmp_path):
            with pytest.raises(RuntimeError):
                with store.DirectoryLock(tmp_path):
                    pass
        # released: can relock
        with store.DirectoryLock(tmp_path):
            pass

    def test_lock_of_a_dead_process_on_this_host_is_broken(self, tmp_path, fixtures_dir):
        cfg = fixture_config(tmp_path, fixtures_dir)
        cfg.corpus_dir.mkdir(parents=True)
        _write_lock(cfg.corpus_dir, _dead_pid(), socket.gethostname())
        manifest = cli.run("crawl", cfg)
        assert manifest.counts["stale_locks_broken"] == 1
        assert json.loads(cfg.run_log.read_text())["counts"]["stale_locks_broken"] == 1
        assert not (cfg.corpus_dir / ".pressmetrics.lock").exists()
        assert "stale_locks_broken" not in cli.run("parse", cfg).counts

    @pytest.mark.parametrize("owner", ["live", "not permitted", "other host", "unnamed"])
    def test_lock_that_may_be_held_blocks(self, tmp_path, monkeypatch, owner):
        pid, host = os.getpid(), socket.gethostname()
        if owner == "not permitted":
            def refuse(pid, sig):
                raise PermissionError(1, "Operation not permitted")
            monkeypatch.setattr(os, "kill", refuse)
        elif owner == "other host":
            pid, host = _dead_pid(), "elsewhere.invalid"
        if owner == "unnamed":  # a lock written before locks named their host
            (tmp_path / ".pressmetrics.lock").write_text(str(_dead_pid()))
        else:
            _write_lock(tmp_path, pid, host)
        with pytest.raises(RuntimeError, match="locked by another run"):
            with store.DirectoryLock(tmp_path):
                pass
        assert (tmp_path / ".pressmetrics.lock").exists()


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

    def test_every_flag_reaches_the_config(self, tmp_path, fixtures_dir, capsys):
        assert cli.main(["crawl", "--seed-path", FOLD, "--fixtures", str(fixtures_dir / "site"),
                         "--corpus-dir", str(tmp_path / "corpus"),
                         "--report-dir", str(tmp_path / "reports"), "--rate-limit", "0",
                         "--max-depth", "3", "--granularity", "daily"]) == 0
        assert "crawl: ok" in capsys.readouterr().out

    def test_exit_nonzero_names_stage(self, tmp_path, capsys):
        assert cli.main(["parse", "--corpus-dir", str(tmp_path / "nowhere")]) == 1
        assert "[parse]" in capsys.readouterr().err
