"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria combine (a) exact recomputation of published percentage tables from
their printed count pairs and (b) oracle equivalence of the whole pipeline
on the bundled fixture site. Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import csv
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import oracle
from pressmetrics import cli, harvester
from pressmetrics.analytics import cooccurrence_graph, coverage_table
from pressmetrics.backlink_ingest import RawLinkRecord, merge_protocol_variants
from pressmetrics.mention_ingest import CsvResolver, MatchKind, ingest_tweets, resolve_chain
from pressmetrics.rounding import percentage
from pressmetrics.store import read_jsonl

FOLD = "www.eksci.test/releases/"


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL {number}/8: {title}")
        raise
    print(f"ACCEPTANCE PASS {number}/8: {title}")


def pipeline_config(base: Path, fixtures: Path) -> cli.PipelineConfig:
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


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory, fixtures_dir):
    """Two complete pipeline runs over identical fixtures."""
    configs = []
    for name in ("run_a", "run_b"):
        cfg = pipeline_config(tmp_path_factory.mktemp(name), fixtures_dir)
        for command in cli.COMMANDS:
            cli.run(command, cfg)
        configs.append(cfg)
    return configs


def read_csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# reference shares reported for publication-type counts over a
# 455,702-record population
TYPE_SHARE_CASES = [
    (376199, 82.6), (22413, 4.9), (22241, 4.9), (14743, 3.2), (10401, 2.3),
    (4433, 1.0), (2339, 0.5), (1727, 0.4), (1146, 0.3), (60, 0.0),
]
TYPE_POPULATION = 455702

# 25 year rows: (published, tweeted, printed_pct_2dp, web_linked, printed_pct_1dp)
YEAR_COVERAGE_CASES = [
    (798, 5, 0.63, 115, 14.4), (2179, 11, 0.50, 259, 11.9), (4072, 19, 0.47, 506, 12.4),
    (4845, 33, 0.68, 601, 12.4), (5536, 27, 0.49, 763, 13.8), (6454, 28, 0.43, 1933, 30.0),
    (7491, 68, 0.91, 2966, 39.6), (8803, 73, 0.83, 3926, 44.6), (10780, 94, 0.87, 5512, 51.1),
    (13326, 106, 0.80, 7353, 55.2), (14362, 183, 1.27, 8964, 62.4), (16395, 196, 1.20, 11105, 67.7),
    (20037, 296, 1.48, 14245, 71.1), (21183, 770, 3.63, 16678, 78.7), (21977, 3644, 16.58, 17777, 80.9),
    (23466, 13325, 56.78, 21357, 91.0), (25110, 23360, 93.03, 21853, 87.0),
    (24961, 23235, 93.09, 23424, 93.8), (25978, 24170, 93.04, 24721, 95.2),
    (28258, 26766, 94.72, 27665, 97.9), (29710, 28244, 95.07, 27869, 93.8),
    (32732, 29859, 91.22, 30445, 93.0), (33028, 27222, 82.42, 27466, 83.2),
    (33232, 26210, 78.87, 29539, 88.9), (35232, 27387, 77.73, 28775, 81.7),
]

# 20 journal rows: (publications_with_doi, press_release_count, printed_pct_1dp)
JOURNAL_COVERAGE_CASES = [
    (90160, 15840, 17.6), (51808, 13060, 25.2), (67511, 11342, 16.8), (35503, 7818, 22.0),
    (241450, 6777, 2.8), (14647, 5200, 35.5), (48483, 4416, 9.1), (30821, 4033, 13.1),
    (126994, 4022, 3.2), (32687, 3497, 10.7), (12673, 3140, 24.8), (12730, 2815, 22.1),
    (16472, 2601, 15.8), (5833, 2507, 43.0), (81488, 2400, 2.9), (4255, 2037, 47.9),
    (31188, 2033, 6.5), (10326, 1889, 18.3), (14544, 1756, 12.1), (28701, 1686, 5.9),
]


def test_criterion_1_percentage_recomputation():
    with criterion(1, "printed count pairs reproduce printed percentages (±0.05, <1s)"):
        started = time.perf_counter()
        for count, printed in TYPE_SHARE_CASES:
            assert abs(percentage(count, TYPE_POPULATION, 1) - printed) <= 0.05
        for published, tweeted, pct_tw, linked, pct_web in YEAR_COVERAGE_CASES:
            assert abs(percentage(tweeted, published, 2) - pct_tw) <= 0.05
            assert abs(percentage(linked, published, 1) - pct_web) <= 0.05
        for publications, press, printed in JOURNAL_COVERAGE_CASES:
            assert abs(percentage(press, publications, 1) - printed) <= 0.05
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_fixture_end_to_end_oracle(tmp_path, fixtures_dir, truth):
    with criterion(2, "crawl->parse->analyze equals the brute-force oracle (<30s)"):
        started = time.perf_counter()
        cfg = pipeline_config(tmp_path, fixtures_dir)
        for command in ("crawl", "parse", "analyze"):
            cli.run(command, cfg)
        report = cfg.report_dir

        annual = {int(r["year"]): int(r["count"]) for r in read_csv_rows(report / "annual_output.csv")}
        assert annual == oracle.annual_series(truth)

        types = {r["type"]: int(r["count"]) for r in read_csv_rows(report / "type_distribution.csv")}
        assert types == oracle.type_counts(truth)
        for row in read_csv_rows(report / "type_distribution.csv"):
            expected = oracle.pct_half_up(int(row["count"]), sum(types.values()), 1)
            assert float(row["pct"]) == expected

        keywords = {r["keyword"]: int(r["occurrences"])
                    for r in read_csv_rows(report / "keyword_frequency.csv")}
        assert keywords == oracle.keyword_counts(truth)

        payload = json.loads((report / "cooccurrence_graph.json").read_text())
        labels = {node["id"]: node["label"] for node in payload["nodes"]}
        got_edges = {(labels[l["source"]], labels[l["target"]]): l["weight"]
                     for l in payload["links"]}
        assert got_edges == oracle.cooccurrence_edges(truth)
        strengths = {node["label"]: node["link_strength"] for node in payload["nodes"]}
        assert strengths == oracle.link_strengths(truth)

        ranking = [(r["institution"], int(r["count"])) for r in read_csv_rows(report / "pio_ranking.csv")]
        assert ranking == oracle.ranked(oracle.pio_counts(truth))

        # cleansing recount: every fetched page is exactly one class, and the
        # press-release subset is the parsed corpus
        classes = {}
        for entry in read_jsonl(cfg.crawl_manifest):
            classes[entry["class"]] = classes.get(entry["class"], 0) + 1
        assert classes == oracle.page_class_counts(truth)
        assert sum(1 for _ in read_jsonl(cfg.corpus_file)) == classes["press_release"]

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_cooccurrence_against_brute_force(make_release):
    with criterion(3, "co-occurrence equals O(n*k^2) brute force on 100 random corpora"):
        rng = random.Random(20250808)
        for trial in range(100):
            pool = [f"kw{i}" for i in range(rng.randint(1, 10))]
            releases = []
            for i in range(rng.randint(0, 200)):
                k = rng.randint(0, min(6, len(pool)))
                releases.append(make_release(f"r{trial}_{i}", keywords=rng.sample(pool, k)))

            brute_edges: dict[tuple[str, str], int] = {}
            brute_strength: dict[str, int] = {}
            for release in releases:
                kws = sorted(set(release.metadata.keywords))
                for kw in kws:
                    brute_strength.setdefault(kw, 0)
                for i in range(len(kws)):
                    for j in range(i + 1, len(kws)):
                        pair = (kws[i], kws[j])
                        brute_edges[pair] = brute_edges.get(pair, 0) + 1
            for (a, b), w in brute_edges.items():
                brute_strength[a] += w
                brute_strength[b] += w

            graph = cooccurrence_graph(releases)
            assert graph.edges == brute_edges
            assert graph.link_strength == brute_strength
            assert sum(graph.link_strength.values()) == 2 * sum(graph.edges.values())


def test_criterion_4_mention_pipeline(fixtures_dir, corpus_index):
    with criterion(4, "tweet archive ingestion matches the hand-classified oracle"):
        resolver = CsvResolver.from_csv(fixtures_dir / "resolver_micro.csv")
        records = list(read_jsonl(fixtures_dir / "tweets_micro.jsonl"))
        stats: dict = {}
        mentions = ingest_tweets(records, resolver, corpus_index, stats=stats)

        # hand classification of the archive: 11 records, one duplicated id,
        # two retweets, one tweet whose only URL never reaches the fold
        expected = {
            "t7001": (["matched"], ["nfu-201601"]),
            "t7002": (["matched"], ["mit-201602"]),          # depth-2 chain
            "t7003": (["matched"], ["hma-201701"]),          # depth-3 chain
            "t7007": (["outdated_url"], []),                 # outdated URL
            "t7008": (["out_of_scope", "matched"], ["rnl-201804"]),  # cycle + direct
            "t7009": (["out_of_scope", "matched"], ["uvd-201905"]),  # dead + direct
            "t7010": (["matched", "matched"], ["nfu-201601"]),
        }
        assert {m.tweet_id for m in mentions} == set(expected)
        assert not any(m.is_retweet for m in mentions)
        assert stats["retweets_dropped"] == 2
        assert stats["duplicate_ids"] == 1
        for mention in mentions:
            kinds, release_ids = expected[mention.tweet_id]
            assert [m.kind.value for m in mention.matches] == kinds
            assert oracle.matched_release_ids(mention) == release_ids
            counted = sum(1 for m in mention.matches
                          if m.kind in (MatchKind.MATCHED, MatchKind.OUTDATED_URL,
                                        MatchKind.OUT_OF_SCOPE))
            assert counted == len(mention.resolved_urls)

        # chain depths as designed, and idempotence on every final URL
        assert resolve_chain("https://t.sh/aa", resolver).depth == 2
        assert resolve_chain("https://t.sh/cc", resolver).depth == 3
        assert resolve_chain("http://loop.ex/a", resolver).terminated_by.value == "cycle"
        assert resolve_chain("http://dead.ex/x", resolver).terminated_by.value == "dead"
        for mention in mentions:
            for final in mention.resolved_urls:
                again = resolve_chain(final, resolver)
                assert again.depth == 0 and again.final == final


def test_criterion_5_backlink_merging():
    with criterion(5, "backlink merge: idempotent, order-free, conservative, bounded"):
        records = [
            RawLinkRecord("http://www.eksci.test/releases/2016/a.html", 30, 12, 12, 8),
            RawLinkRecord("https://www.eksci.test/releases/2016/a.html", 70, 25, 20, 15),
        ]
        (agg,) = merge_protocol_variants(records)
        assert (agg.mentioning_webpages, agg.citation_flow) == (100, 20)

        rng = random.Random(5050)
        for _ in range(50):
            rows = []
            for _ in range(rng.randint(0, 30)):
                pages = rng.randint(0, 400)
                rows.append(RawLinkRecord(
                    f"{rng.choice(['http', 'https'])}://www.eksci.test/releases/p{rng.randint(0, 5)}.html",
                    pages, rng.randint(0, pages), rng.randint(0, 100), rng.randint(0, 100)))
            merged = merge_protocol_variants(rows)

            shuffled = list(rows)
            rng.shuffle(shuffled)
            view = [(a.target, a.mentioning_webpages, a.mentioning_websites,
                     a.citation_flow, a.trust_flow) for a in merged]
            assert [(a.target, a.mentioning_webpages, a.mentioning_websites,
                     a.citation_flow, a.trust_flow)
                    for a in merge_protocol_variants(shuffled)] == view

            remerged = merge_protocol_variants([
                RawLinkRecord(a.target, a.mentioning_webpages, a.mentioning_websites,
                              a.citation_flow, a.trust_flow) for a in merged])
            assert [(a.target, a.mentioning_webpages, a.mentioning_websites,
                     a.citation_flow, a.trust_flow) for a in remerged] == view

            assert sum(a.mentioning_webpages for a in merged) == sum(r.mentioning_webpages for r in rows)
            for aggregate in merged:
                assert aggregate.mentioning_websites <= aggregate.mentioning_webpages
                assert 0 <= aggregate.citation_flow <= 100
                assert 0 <= aggregate.trust_flow <= 100


def test_criterion_6_coverage_table(pipeline_runs, truth, fixtures_dir):
    with criterion(6, "coverage table equals the brute-force join oracle"):
        cfg = pipeline_runs[0]
        rows = read_csv_rows(cfg.report_dir / "coverage_table.csv")
        expected = oracle.expected_coverage_rows(
            truth, fixtures_dir / "tweets_main.jsonl", fixtures_dir / "resolver_main.csv",
            fixtures_dir / "backlinks_main.csv")
        assert len(rows) == len(expected)
        for got, want in zip(rows, expected):
            assert int(got["year"]) == want["year"]
            assert int(got["published"]) == want["published"]
            assert int(got["tweeted"]) == want["tweeted"]
            assert int(got["web_linked"]) == want["web_linked"]
            assert float(got["pct_tweeted"]) == want["pct_tweeted"]
            assert float(got["pct_web"]) == want["pct_web"]


def test_criterion_7_rate_limiting(site_server):
    with criterion(7, "fetch trace spacing >= configured limit (default 1.0s)"):
        scope = harvester.CrawlScope(f"{site_server}/releases/")  # default 1.0 rps
        assert scope.rate_limit == 1.0
        limiter = harvester.RateLimiter(scope.rate_limit)
        fetcher = harvester.HttpFetcher(force_scheme="http")
        for page in ("", "2016/nfu-201601.html", "2016/mit-201602.html"):
            record = harvester.fetch_page(f"https://{site_server}/releases/{page}",
                                          scope, fetcher, limiter=limiter)
            assert record.status == 200
        gaps = limiter.spacings(site_server)
        assert len(gaps) == 2
        assert all(gap >= 1.0 for gap in gaps), gaps


def test_criterion_8_deterministic_reports(pipeline_runs):
    with criterion(8, "two complete runs produce byte-identical report files"):
        run_a, run_b = pipeline_runs
        names_a = sorted(p.name for p in run_a.report_dir.iterdir())
        names_b = sorted(p.name for p in run_b.report_dir.iterdir())
        assert names_a == names_b and names_a
        for name in names_a:
            assert (run_a.report_dir / name).read_bytes() == (run_b.report_dir / name).read_bytes(), name
