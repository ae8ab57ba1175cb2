import json
from collections import Counter
from datetime import date
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from pressmetrics import analytics
from pressmetrics.analytics import (
    CoGraph,
    cooccurrence_graph,
    cograph_to_json_dict,
    coverage_table,
    distribution_percentages,
    keyword_frequency,
    mention_series,
    output_series,
    peak_bucket,
    pio_ranking,
    region_distribution,
    tweets_per_release,
    type_distribution,
)
from pressmetrics.release_parser import PressType, Region


class TestOutputSeries:
    def test_empty_corpus(self):
        assert output_series([]) == []

    def test_fixture_matches_oracle(self, corpus, truth):
        assert dict(output_series(corpus)) == oracle.annual_series(truth)
        daily = output_series(corpus, "daily")
        assert {b.isoformat(): n for b, n in daily} == oracle.daily_series(truth)

    def test_anomalous_dates_excluded_by_default(self, corpus):
        assert sum(n for _, n in output_series(corpus)) == 49
        assert len(corpus) == 50

    def test_peak_day_query(self, corpus):
        assert peak_bucket(output_series(corpus, "daily")) == (date(2018, 10, 3), 3)

    def test_single_year_aggregate_at_printed_scale(self, make_release):
        corpus = (make_release(f"r{i}", when="2020-06-01") for i in range(35232))
        assert output_series(corpus) == [(2020, 35232)]

    def test_unknown_granularity(self):
        with pytest.raises(ValueError):
            output_series([], granularity="weekly")


class TestTypeDistribution:
    def test_printed_counts_reproduce_printed_percentages(self):
        counts = {"research": 376199, "business": 22413, "grant": 22241, "award": 14743,
                  "meeting": 10401, "book": 4433, "media": 2339, "pubmeeting": 1727,
                  "dissertation": 1146, "editorial": 60}
        printed = {"research": 82.6, "business": 4.9, "grant": 4.9, "award": 3.2,
                   "meeting": 2.3, "book": 1.0, "media": 0.5, "pubmeeting": 0.4,
                   "dissertation": 0.3, "editorial": 0.0}
        assert sum(counts.values()) == 455702
        result = distribution_percentages(counts)
        for name, (n, pct) in result.items():
            assert pct == printed[name], name

    def test_single_type_is_100pct(self, make_release):
        dist = type_distribution([make_release("r1"), make_release("r2")])
        assert dist == {PressType.RESEARCH: (2, 100.0)}

    def test_fixture_matches_oracle(self, corpus, truth):
        dist = type_distribution(corpus)
        assert {t.value: n for t, (n, _) in dist.items()} == oracle.type_counts(truth)
        assert sum(n for n, _ in dist.values()) == 50

    def test_typeless_release_excluded_from_denominator(self, make_release):
        releases = [make_release("r1"), make_release("r2", press_type=None)]
        dist = type_distribution(releases)
        assert dist == {PressType.RESEARCH: (1, 100.0)}

    def test_percentages_sum_to_100(self, corpus):
        total = sum(pct for _, pct in type_distribution(corpus).values())
        assert abs(total - 100.0) <= 0.1


class TestKeywordFrequency:
    def test_release_level_dedup(self, make_release):
        freq = keyword_frequency([make_release("r1", keywords=["cancer", "cancer"])])
        assert freq == [("cancer", 1)]

    def test_rank_ties_break_lexicographically(self, make_release):
        releases = [make_release("r1", keywords=["beta", "alpha"]),
                    make_release("r2", keywords=["beta", "alpha", "zeta"])]
        assert keyword_frequency(releases) == [("alpha", 2), ("beta", 2), ("zeta", 1)]

    def test_fixture_matches_oracle(self, corpus, truth):
        assert dict(keyword_frequency(corpus)) == oracle.keyword_counts(truth)

    def test_top_keyword_aggregate_at_printed_scale(self, make_release):
        corpus = (make_release(f"m{i}", keywords=["medicine/health"]) for i in range(187841))
        top, runner = keyword_frequency(list(corpus) + [make_release("b1", keywords=["biology"])])[:2]
        assert top == ("medicine/health", 187841)
        assert runner == ("biology", 1)


class TestCooccurrence:
    def test_three_keywords_forced_by_definition(self, make_release):
        graph = cooccurrence_graph([make_release("r1", keywords=["a", "b", "c"])])
        assert graph.edges == {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}
        assert graph.link_strength == {"a": 2, "b": 2, "c": 2}

    def test_single_keyword_no_edges(self, make_release):
        graph = cooccurrence_graph([make_release("r1", keywords=["solo"])])
        assert graph.edges == {} and graph.link_strength == {"solo": 0}

    def test_no_self_edges_from_repeats(self, make_release):
        graph = cooccurrence_graph([make_release("r1", keywords=["a", "a", "b"])])
        assert graph.edges == {("a", "b"): 1}

    def test_fixture_matches_oracle(self, corpus, truth):
        graph = cooccurrence_graph(corpus)
        assert graph.edges == oracle.cooccurrence_edges(truth)
        assert graph.link_strength == oracle.link_strengths(truth)
        assert graph.nodes == oracle.keyword_counts(truth)

    def test_strength_totals_twice_edge_weights(self, corpus):
        graph = cooccurrence_graph(corpus)
        assert sum(graph.link_strength.values()) == 2 * graph.total_weight()

    def test_json_export_shape(self, corpus):
        payload = cograph_to_json_dict(cooccurrence_graph(corpus))
        assert set(payload) == {"nodes", "links"}
        ids = {node["id"] for node in payload["nodes"]}
        for node in payload["nodes"]:
            assert set(node) == {"id", "label", "occurrences", "link_strength"}
        for link in payload["links"]:
            assert set(link) == {"source", "target", "weight"}
            assert link["source"] in ids and link["target"] in ids
            assert link["source"] != link["target"] and link["weight"] >= 1


    def test_json_text_of_an_empty_graph(self):
        assert "".join(analytics.cograph_json(CoGraph())) == '{\n  "links": [],\n  "nodes": []\n}\n'

    @given(st.lists(st.lists(st.text(max_size=8), max_size=6), max_size=6))
    def test_json_text_is_json_dump_of_the_dict(self, keyword_lists):
        graph = CoGraph()
        for keywords in (sorted(set(k)) for k in keyword_lists):
            graph.nodes.update(keywords)
            graph.edges.update(combinations(keywords, 2))
            graph.link_strength.update(dict.fromkeys(keywords, len(keywords) - 1))
        want = json.dumps(cograph_to_json_dict(graph), indent=2, ensure_ascii=False,
                          sort_keys=True) + "\n"
        assert "".join(analytics.cograph_json(graph)) == want


class TestRegionDistribution:
    def test_printed_shares_from_proportional_corpus(self, make_release):
        mix = [("North America", 728), ("Europe", 218), ("Asia", 30),
               ("Oceania", 12), ("Africa", 7), ("South America", 5)]
        corpus = [make_release(f"r{i}{j}", region=name)
                  for name, n in mix for i, j in ((k, name[:2]) for k in range(n))]
        dist = region_distribution(corpus)
        assert dist[Region.NORTH_AMERICA][1] == 72.8
        assert dist[Region.EUROPE][1] == 21.8
        assert dist[Region.AFRICA][1] == 0.7
        assert dist[Region.SOUTH_AMERICA][1] == 0.5

    def test_unknown_region_outside_population(self, make_release):
        releases = [make_release("r1"), make_release("r2", region="unknown")]
        dist = region_distribution(releases)
        assert dist == {Region.NORTH_AMERICA: (1, 100.0)}

    def test_fixture_matches_oracle(self, corpus, truth):
        dist = region_distribution(corpus)
        assert {r.value: n for r, (n, _) in dist.items()} == oracle.region_counts(truth)
        assert sum(n for n, _ in dist.values()) == 49
        assert abs(sum(pct for _, pct in dist.values()) - 100.0) <= 0.1


class TestPioRanking:
    def test_fixture_matches_oracle(self, corpus, truth, fixtures_dir):
        from pressmetrics.release_parser import load_alias_table
        aliases = load_alias_table(fixtures_dir / "aliases_institutions.csv")
        assert pio_ranking(corpus, aliases) == oracle.ranked(oracle.pio_counts(truth))

    def test_alias_merging_of_subunits(self, make_release):
        aliases = {"university of x medical center": "University of X",
                   "university of x": "University of X"}
        releases = [make_release("r1", institution="University of X Medical Center"),
                    make_release("r2", institution="University of X")]
        assert pio_ranking(releases, aliases) == [("University of X", 2)]

    def test_top_producer_aggregate_at_printed_scale(self, make_release):
        corpus = (make_release(f"j{i}", institution="JAMA Network") for i in range(7333))
        ranking = pio_ranking(list(corpus) + [make_release("o1", institution="Other Org")],
                              {"jama network": "JAMA Network"})
        assert ranking[0] == ("JAMA Network", 7333)

    def test_empty_corpus(self):
        assert pio_ranking([]) == []


class TestMentionStatistics:
    def test_mention_series_buckets_by_tweet_year(self, make_mention):
        mentions = [make_mention("t1", "2016-03-01T00:00:00"),
                    make_mention("t2", "2016-09-01T00:00:00"),
                    make_mention("t3", "2018-01-01T00:00:00")]
        assert mention_series(mentions) == [(2016, 2), (2018, 1)]

    def test_forced_ratio_arithmetic(self, make_release, make_mention):
        corpus = [make_release(f"r{i}", when="2016-02-02") for i in range(5)]
        mentions = [make_mention(f"t{i}", "2016-06-01T00:00:00", ["r0"]) for i in range(10)]
        assert tweets_per_release(corpus, mentions) == {2016: 2.0}

    def test_year_without_mentions_is_zero(self, make_release):
        corpus = [make_release("r1", when="2017-01-01")]
        assert tweets_per_release(corpus, []) == {2017: 0.0}

    def test_cross_year_tweets_do_not_count(self, make_release, make_mention):
        corpus = [make_release("r1", when="2016-02-02"), make_release("r2", when="2017-02-02")]
        mentions = [make_mention("t1", "2017-06-01T00:00:00", ["r1"])]
        assert tweets_per_release(corpus, mentions) == {2016: 0.0, 2017: 0.0}

    def test_fixture_matches_oracle(self, corpus, truth, fixtures_dir, corpus_index):
        from pressmetrics.mention_ingest import CsvResolver, ingest_tweets
        from pressmetrics.store import read_jsonl
        resolver = CsvResolver.from_csv(fixtures_dir / "resolver_main.csv")
        mentions = ingest_tweets(read_jsonl(fixtures_dir / "tweets_main.jsonl"),
                                 resolver, corpus_index, stats=Counter())
        expected = oracle.expected_tweets_per_release(
            truth, fixtures_dir / "tweets_main.jsonl", fixtures_dir / "resolver_main.csv")
        assert tweets_per_release(corpus, mentions) == expected


class TestCoverageTable:
    def test_single_year_forced_counts(self, make_release, make_mention):
        corpus = [make_release(f"r{i}", when="1996-03-03") for i in range(798)]
        mention = make_mention("t1", "2010-01-01T00:00:00", [f"r{i}" for i in range(5)])
        linked = {f"r{i}" for i in range(115)}
        (row,) = coverage_table(corpus, [mention], linked)
        assert (row.published, row.tweeted, row.web_linked) == (798, 5, 115)
        assert row.pct_tweeted == 0.63 and row.pct_web == 14.4

    def test_high_coverage_year_rounding(self, make_release, make_mention):
        corpus = [make_release(f"r{i}", when="2016-03-03") for i in range(29710)]
        mention = make_mention("t1", "2016-05-01T00:00:00", [f"r{i}" for i in range(28244)])
        (row,) = coverage_table(corpus, [mention], set())
        assert row.pct_tweeted == 95.07

    def test_monotone_under_added_mentions(self, corpus, make_mention, fixtures_dir, corpus_index):
        from pressmetrics.mention_ingest import CsvResolver, ingest_tweets
        from pressmetrics.store import read_jsonl
        resolver = CsvResolver.from_csv(fixtures_dir / "resolver_main.csv")
        mentions = ingest_tweets(read_jsonl(fixtures_dir / "tweets_main.jsonl"),
                                 resolver, corpus_index, stats=Counter())
        before = {row.year: row.tweeted for row in coverage_table(corpus, mentions, set())}
        extra = make_mention("t9999", "2020-12-31T00:00:00", ["bgc-202006"])
        after = {row.year: row.tweeted for row in coverage_table(corpus, mentions + [extra], set())}
        assert all(after[year] >= count for year, count in before.items())
        assert after[2020] == before[2020] + 1
