import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pressmetrics import backlink_ingest
from pressmetrics.backlink_ingest import (
    BacklinkAggregate,
    LinkValidationError,
    RawLinkRecord,
    link_coverage_index,
    merge_protocol_variants,
    read_raw_links_csv,
)
from pressmetrics.urls import CorpusIndex


def test_hand_derived_protocol_merge():
    records = [
        RawLinkRecord("http://www.eksci.test/releases/2016/a.html", 30, 12, 12, 8),
        RawLinkRecord("https://www.eksci.test/releases/2016/a.html", 70, 25, 20, 15),
    ]
    merged = merge_protocol_variants(records)
    assert len(merged) == 1
    agg = merged[0]
    assert agg.mentioning_webpages == 100
    assert agg.citation_flow == 20
    assert agg.mentioning_websites == 37 and agg.trust_flow == 15
    assert agg.websites_is_upper_bound


def test_single_record_identity_merge():
    record = RawLinkRecord("https://h.test/p", 5, 2, 40, 30)
    (agg,) = merge_protocol_variants([record])
    assert (agg.mentioning_webpages, agg.mentioning_websites,
            agg.citation_flow, agg.trust_flow) == (5, 2, 40, 30)
    assert not agg.websites_is_upper_bound
    assert agg.merged_from == 1


@pytest.mark.parametrize("fields", [
    ("https://h.test/p", 5, 2, 140, 30),
    ("https://h.test/p", 5, 2, 40, -1),
    ("https://h.test/p", 2, 5, 40, 30),
    ("https://h.test/p", -2, 0, 40, 30),
])
def test_validation_errors_name_the_record(fields):
    # a record is valid by construction, so building one is what fails
    with pytest.raises(LinkValidationError) as err:
        merge_protocol_variants([RawLinkRecord(*fields)])
    assert "h.test/p" in str(err.value)


def test_merging_does_not_canonicalize_a_target_again(monkeypatch):
    records = [RawLinkRecord(f"{scheme}://www.eksci.test/releases/p{i}.html", 5 + i, 2, 10 * i, 7)
               for i in range(3) for scheme in ("http", "https")]
    calls = []
    canonicalize = backlink_ingest.canonicalize_url
    monkeypatch.setattr(backlink_ingest, "canonicalize_url",
                        lambda url: calls.append(url) or canonicalize(url))
    merged = merge_protocol_variants(records)
    assert calls == []
    # each merged record is what validating its fields would have built
    assert merged == [BacklinkAggregate(a.target, a.mentioning_webpages, a.mentioning_websites,
                                        a.citation_flow, a.trust_flow, merged_from=2)
                      for a in merged]
    assert [a.mentioning_webpages for a in merged] == [10, 12, 14]


RECORDS = st.builds(
    lambda scheme, page, pages, site_share, cf, tf: RawLinkRecord(
        f"{scheme}://www.eksci.test/releases/p{page}.html",
        pages, min(site_share, pages), cf, tf),
    st.sampled_from(["http", "https"]),
    st.integers(0, 5),
    st.integers(0, 500),
    st.integers(0, 500),
    st.integers(0, 100),
    st.integers(0, 100),
)


@given(st.lists(RECORDS, max_size=25))
def test_merge_order_independent(records):
    shuffled = list(records)
    random.Random(7).shuffle(shuffled)
    assert _numeric_view(merge_protocol_variants(records)) == \
        _numeric_view(merge_protocol_variants(shuffled))


@given(st.lists(RECORDS, max_size=25))
def test_merge_idempotent(records):
    merged = merge_protocol_variants(records)
    remerged = merge_protocol_variants([
        RawLinkRecord(a.target, a.mentioning_webpages, a.mentioning_websites,
                      a.citation_flow, a.trust_flow) for a in merged])
    assert _numeric_view(remerged) == _numeric_view(merged)


@given(st.lists(RECORDS, max_size=25))
def test_count_conservation_and_bounds(records):
    merged = merge_protocol_variants(records)
    assert sum(a.mentioning_webpages for a in merged) == \
        sum(r.mentioning_webpages for r in records)
    assert sum(a.mentioning_websites for a in merged) == \
        sum(r.mentioning_websites for r in records)
    for agg in merged:
        assert agg.mentioning_websites <= agg.mentioning_webpages
        assert 0 <= agg.citation_flow <= 100 and 0 <= agg.trust_flow <= 100


def _numeric_view(aggregates):
    return [(a.target, a.mentioning_webpages, a.mentioning_websites,
             a.citation_flow, a.trust_flow) for a in aggregates]


class TestCoverageIndex:
    def test_micro_fixture_partition(self, fixtures_dir, corpus_index):
        aggregates = merge_protocol_variants(read_raw_links_csv(fixtures_dir / "backlinks_micro.csv"))
        coverage = link_coverage_index(aggregates, corpus_index)
        assert len(coverage.attached) == 4
        assert len(coverage.outdated) == 1
        assert len(coverage.rejected) == 1

    def test_sibling_of_an_unslashed_fold_is_rejected(self):
        index = CorpusIndex({}, "h.test/fold")
        coverage = link_coverage_index([RawLinkRecord("https://h.test/fold-old/a.html", 1, 1, 0, 0),
                                        RawLinkRecord("https://h.test/fold/gone.html", 1, 1, 0, 0)],
                                       index)
        assert coverage.rejected == ["https://h.test/fold-old/a.html"]
        assert coverage.outdated == ["https://h.test/fold/gone.html"]

    def test_empty(self, corpus_index):
        coverage = link_coverage_index([], corpus_index)
        assert coverage.attached == {} and coverage.outdated == [] and coverage.rejected == []

    def test_each_release_attaches_its_merged_aggregate_as_is(self):
        index = CorpusIndex({"https://h.test/fold/a.html": "rel-1",
                             "https://h.test/fold/b.html": "rel-2"}, "h.test/fold/")
        aggregates = merge_protocol_variants([
            RawLinkRecord("http://h.test/fold/a.html", 10, 4, 30, 20),
            RawLinkRecord("https://h.test/fold/a.html", 7, 3, 25, 28),
            RawLinkRecord("https://h.test/fold/b.html", 5, 2, 10, 10),
        ])
        coverage = link_coverage_index(aggregates, index)
        assert list(coverage.attached) == ["rel-1", "rel-2"]
        assert [coverage.attached[r] for r in ("rel-1", "rel-2")] == aggregates
        agg = coverage.attached["rel-1"]
        assert agg.mentioning_webpages == 17 and agg.mentioning_websites == 7
        assert agg.citation_flow == 30 and agg.trust_flow == 28
        assert agg.websites_is_upper_bound and agg.merged_from == 2
        assert not coverage.attached["rel-2"].websites_is_upper_bound

    def test_an_index_that_gives_one_release_two_targets_is_refused(self):
        # the corpus decoder refuses this index; one built by hand is refused here
        index = CorpusIndex({"https://h.test/fold/a.html": "rel-1",
                             "https://h.test/fold/a-print.html": "rel-1"}, "h.test/fold/")
        aggregates = merge_protocol_variants([
            RawLinkRecord("https://h.test/fold/a.html", 10, 4, 30, 20),
            RawLinkRecord("https://h.test/fold/a-print.html", 7, 3, 25, 28),
        ])
        with pytest.raises(ValueError) as err:
            link_coverage_index(aggregates, index)
        assert str(err.value) == ("'rel-1' has two targets: "
                                  "https://h.test/fold/a-print.html and https://h.test/fold/a.html")

    def test_window_union(self, fixtures_dir):
        aggregates = merge_protocol_variants(read_raw_links_csv(fixtures_dir / "backlinks_micro.csv"))
        for agg in aggregates:
            assert agg.window_start.isoformat() == "2015-09-01"
            assert agg.window_end.isoformat() == "2021-04-01"


@pytest.mark.parametrize("row", ["https://h.test/fold/b.html,abc,4,30,20",
                                 "https://h.test/fold/b.html,10,4,140,20",
                                 "ftp://h.test/fold/b.html,10,4,30,20"])
def test_bad_csv_value_names_file_and_line(tmp_path, row):
    path = tmp_path / "links.csv"
    path.write_text(
        "target_url,mentioning_webpages,mentioning_websites,citation_flow,trust_flow\n"
        f"https://h.test/fold/a.html,10,4,30,20\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_raw_links_csv(path)
    assert f"{path}:3:" in str(err.value)


def test_window_date_in_basic_format_names_file_and_line(tmp_path):
    path = tmp_path / "links.csv"
    path.write_text(
        "target_url,mentioning_webpages,mentioning_websites,citation_flow,trust_flow,"
        "window_start,window_end\n"
        "https://h.test/fold/a.html,10,4,30,20,2015-09-01,2021-04-01\n"
        "https://h.test/fold/b.html,10,4,30,20,20150901,2021-04-01\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_raw_links_csv(path)
    assert str(err.value) == f"{path}:3: not a YYYY-MM-DD date: '20150901'"
