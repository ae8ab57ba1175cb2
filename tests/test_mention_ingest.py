import json
from collections import Counter
from datetime import datetime, timezone

import pytest

import oracle
from pressmetrics.analytics import Fold
from pressmetrics.mention_ingest import (
    CsvResolver,
    MatchKind,
    MatchResult,
    Terminated,
    TweetMention,
    ingest_tweets,
    match_to_release,
    mention_from_dict,
    mention_to_dict,
    resolve_chain,
)
from pressmetrics.store import read_csv, read_jsonl
from pressmetrics.urls import CorpusIndex, canonicalize_url


class TestResolveChain:
    def test_no_redirect_is_depth_zero(self):
        res = resolve_chain("https://h.test/a", {})
        assert res.depth == 0 and res.terminated_by is Terminated.FINAL_TARGET
        assert res.final == "https://h.test/a"

    def test_two_hop_chain(self):
        hops = {"https://t.sh/a": "https://bit.ex/b", "https://bit.ex/b": "https://h.test/p"}
        res = resolve_chain("https://t.sh/a", hops)
        assert res.depth == 2 and res.terminated_by is Terminated.FINAL_TARGET
        assert res.final == "https://h.test/p"
        assert res.chain == ["https://t.sh/a", "https://bit.ex/b", "https://h.test/p"]

    def test_cycle_final_is_deepest_distinct(self):
        a, b = "http://x.test/a", "http://x.test/b"
        res = resolve_chain(a, {a: b, b: a})
        assert res.terminated_by is Terminated.CYCLE
        assert res.chain == [a, b, a] and res.depth == 2
        assert res.final == "https://x.test/b"

    def test_max_depth(self):
        hops = {f"u{i}": f"u{i+1}" for i in range(10)}
        res = resolve_chain("u0", hops)
        assert res.terminated_by is Terminated.MAX_DEPTH and res.depth == 5
        assert res.chain == [f"u{i}" for i in range(6)]

    def test_dead_link(self, fixtures_dir):
        resolver = CsvResolver.from_csv(fixtures_dir / "resolver_micro.csv")
        res = resolve_chain("http://dead.ex/x", resolver)
        assert res.terminated_by is Terminated.DEAD and res.depth == 0

    def test_idempotent_on_final_targets(self, fixtures_dir):
        resolver = CsvResolver.from_csv(fixtures_dir / "resolver_micro.csv")
        for start in read_csv(fixtures_dir / "resolver_micro.csv", lambda row: row["from_url"]):
            final = resolve_chain(start, resolver).final
            assert resolve_chain(final, resolver).depth == 0


class TestCsvResolver:
    def test_two_hops_for_one_url_name_file_and_both_lines(self, tmp_path):
        path = tmp_path / "resolver.csv"
        path.write_text("from_url,to_url\nhttps://t.sh/a,https://h.test/1\n"
                        "https://t.sh/b,\nhttps://t.sh/a,https://h.test/2\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            CsvResolver.from_csv(path)
        assert str(err.value).startswith(f"{path}:4: 'https://t.sh/a'")
        assert "on line 2" in str(err.value)

    def test_a_repeated_identical_row_is_accepted(self, tmp_path):
        path = tmp_path / "resolver.csv"
        path.write_text("from_url,to_url\nhttps://t.sh/a,https://h.test/1\n"
                        "https://t.sh/a,https://h.test/1\n", encoding="utf-8")
        assert CsvResolver.from_csv(path).unshorten("https://t.sh/a") == "https://h.test/1"


class TestMatch:
    def test_partition(self, corpus_index, corpus):
        hit = match_to_release(corpus[0].canonical_url, corpus_index)
        assert hit.kind is MatchKind.MATCHED and hit.release_id == corpus[0].id
        gone = match_to_release("https://www.eksci.test/releases/2017/gone.html", corpus_index)
        assert gone.kind is MatchKind.OUTDATED_URL
        off = match_to_release("https://unrelated.example/x", corpus_index)
        assert off.kind is MatchKind.OUT_OF_SCOPE

    @pytest.mark.parametrize("url", ["https://www.eksci.test/releases-archive/2017/gone.html",
                                     "https://www.eksci.test/releasesX"])
    def test_sibling_of_an_unslashed_fold_is_out_of_scope(self, url):
        index = CorpusIndex({}, "www.eksci.test/releases")
        assert match_to_release(url, index).kind is MatchKind.OUT_OF_SCOPE
        gone = "https://www.eksci.test/releases/2017/gone.html"
        assert match_to_release(gone, index).kind is MatchKind.OUTDATED_URL


class TestIngest:
    @pytest.fixture()
    def resolver(self, fixtures_dir):
        return CsvResolver.from_csv(fixtures_dir / "resolver_micro.csv")

    @pytest.fixture()
    def records(self, fixtures_dir):
        return list(read_jsonl(fixtures_dir / "tweets_micro.jsonl"))

    def test_ten_record_stream_yields_seven(self, records, resolver, corpus_index):
        stats = {}
        mentions = ingest_tweets(records[:10], resolver, corpus_index, stats=stats)
        assert len(mentions) == 7
        assert stats["retweets_dropped"] == 2
        assert stats["no_corpus_url"] == 1

    def test_duplicate_tweet_id_collapses(self, records, resolver, corpus_index):
        assert records[10]["tweet_id"] == records[0]["tweet_id"]
        mentions = ingest_tweets(records, resolver, corpus_index, stats=Counter())
        assert len(mentions) == 7
        assert len({m.tweet_id for m in mentions}) == 7

    def test_no_retweets_in_output(self, records, resolver, corpus_index):
        assert not any(m.is_retweet
                       for m in ingest_tweets(records, resolver, corpus_index, stats=Counter()))

    def test_each_match_is_what_its_url_matches(self, records, resolver, corpus_index):
        for mention in ingest_tweets(records, resolver, corpus_index, stats=Counter()):
            for match in mention.matches:
                assert match == match_to_release(match.url, corpus_index)
                assert match.url == canonicalize_url(match.url)
            assert mention.resolved_urls == [m.url for m in mention.matches]

    def test_output_sorted_and_deterministic(self, records, resolver, corpus_index):
        a = ingest_tweets(records, resolver, corpus_index, stats=Counter())
        b = ingest_tweets(list(records), resolver, corpus_index, stats=Counter())
        assert [m.tweet_id for m in a] == sorted(m.tweet_id for m in a)
        assert [mention_to_dict(m) for m in a] == [mention_to_dict(m) for m in b]

    def test_empty_stream(self, resolver, corpus_index):
        assert ingest_tweets([], resolver, corpus_index, stats=Counter()) == []

    @pytest.mark.parametrize("url", ["mailto:press@www.eksci.test",
                                     "ftp://www.eksci.test/releases/2016/nfu-201601.html"])
    def test_url_that_does_not_canonicalise_is_out_of_scope(self, resolver, corpus_index, url):
        stats = {}
        records = [{"tweet_id": "t1", "created_at": "2019-05-01T00:00:00Z", "author_id": "a1",
                    "urls": [url], "is_retweet": False}]
        assert ingest_tweets(records, resolver, corpus_index, stats=stats) == []
        assert stats == {"no_corpus_url": 1}
        assert match_to_release(url, corpus_index).kind is MatchKind.OUT_OF_SCOPE

    # no time; then forms that fromisoformat reads on 3.11 but not on 3.10
    @pytest.mark.parametrize("time", [{}, {"created_at": "2016-05-01T10:00:00+0000"},
                                      {"created_at": "20160501T100000Z"},
                                      {"created_at": "2016-W17-7T10:00:00Z"}])
    def test_malformed_record_skipped_and_counted(self, resolver, corpus_index, time):
        stats = {}
        records = [{"tweet_id": "x", "urls": ["https://a.test/"], "is_retweet": False, **time}]
        assert ingest_tweets(records, resolver, corpus_index, stats=stats) == []
        assert stats["malformed_records"] == 1

    # a value the archive gives as another JSON type is not converted
    @pytest.mark.parametrize("value", [{"is_retweet": "false"}, {"is_retweet": 0},
                                       {"urls": "https://www.eksci.test/releases/2016/"}])
    def test_a_value_of_another_type_is_malformed(self, records, resolver, corpus_index, value):
        stats = {}
        tweet = dict(records[0], **value)
        assert ingest_tweets([tweet], resolver, corpus_index, stats=stats) == []
        assert stats == {"malformed_records": 1}

    def test_a_numeric_id_is_malformed_not_a_duplicate_of_its_string(
            self, records, resolver, corpus_index):
        stats = {}
        tweets = [dict(records[0], tweet_id="12"), dict(records[0], tweet_id=12)]
        (mention,) = ingest_tweets(tweets, resolver, corpus_index, stats=stats)
        assert mention.tweet_id == "12"
        assert stats == {"malformed_records": 1}

    # a null author was written as the string "None", a missing one as ""
    @pytest.mark.parametrize("author", [{"author_id": None}, {"author_id": 7}, {}])
    def test_an_author_that_is_not_a_string_is_malformed(self, records, resolver, corpus_index,
                                                         author):
        stats = {}
        tweet = {k: v for k, v in records[0].items() if k != "author_id"} | author
        assert ingest_tweets([tweet], resolver, corpus_index, stats=stats) == []
        assert stats == {"malformed_records": 1}

    @pytest.mark.parametrize("time, utc", [
        ("2016-05-01T10:00:00", "2016-05-01T10:00:00Z"),
        ("2016-05-01T12:00:00.250+02:00", "2016-05-01T10:00:00.250000Z"),
        ("2016-05-01T04:30:00.000001-05:30", "2016-05-01T10:00:00.000001Z"),
    ])
    def test_a_time_is_read_as_utc(self, records, resolver, corpus_index, time, utc):
        assert records[0]["created_at"] == "2016-05-01T10:00:00Z"
        (mention,) = ingest_tweets([dict(records[0], created_at=time)], resolver, corpus_index,
                                   stats=Counter())
        assert mention_to_dict(mention)["created_at"] == utc

    @pytest.mark.parametrize("padded", [" https://t.sh/aa", "https://t.sh/aa\t",
                                        " https://t.sh/aa "])
    def test_a_padded_short_link_matches_as_the_bare_one(self, records, resolver, corpus_index,
                                                         padded):
        bare = records[1]
        assert bare["urls"] == ["https://t.sh/aa"]
        stats = Counter()
        (want,) = ingest_tweets([bare], resolver, corpus_index, stats=Counter())
        (got,) = ingest_tweets([dict(bare, urls=[padded])], resolver, corpus_index, stats=stats)
        assert got.resolved_urls == want.resolved_urls
        assert got.matches == want.matches and oracle.matched_release_ids(got)
        assert stats == {}

    def test_matches_agree_with_oracle(self, records, resolver, corpus_index, truth, fixtures_dir):
        mentions = ingest_tweets(records, resolver, corpus_index, stats=Counter())
        expected = oracle.expected_mentions(truth, fixtures_dir / "tweets_micro.jsonl",
                                            fixtures_dir / "resolver_micro.csv")
        assert {m.tweet_id for m in mentions} == set(expected)
        for mention in mentions:
            assert oracle.matched_release_ids(mention) == expected[mention.tweet_id]["release_ids"]
            assert mention.resolved_urls == expected[mention.tweet_id]["finals"]

    def test_unique_target_count_matches_brute_force(self, records, resolver, corpus_index,
                                                     truth, fixtures_dir):
        mentions = ingest_tweets(records, resolver, corpus_index, stats=Counter())
        got = {url for m in mentions for url, match in zip(m.resolved_urls, m.matches)
               if match.kind is MatchKind.MATCHED}
        expected_mentions = oracle.expected_mentions(truth, fixtures_dir / "tweets_micro.jsonl",
                                                     fixtures_dir / "resolver_micro.csv")
        release_urls = {rel["url"] for rel in truth["releases"]}
        expected = {final for m in expected_mentions.values()
                    for final in m["finals"] if final in release_urls}
        assert got == expected

    def test_within_tweet_duplicate_counts_once_per_release(self, records, resolver, corpus_index,
                                                             make_release):
        mentions = {m.tweet_id: m
                    for m in ingest_tweets(records, resolver, corpus_index, stats=Counter())}
        twice = mentions["t7010"]
        assert len(twice.resolved_urls) == 2
        assert oracle.matched_release_ids(twice) == ["nfu-201601"]
        fold = Fold()
        fold.add_release(make_release("nfu-201601", when=twice.created_at.date().isoformat()))
        fold.add_mention(twice)
        assert fold.tweeted == {"nfu-201601"} and fold.same_year == {twice.created_at.year: 1}

    def test_serialization_round_trip(self, records, resolver, corpus_index):
        for mention in ingest_tweets(records, resolver, corpus_index, stats=Counter()):
            record = mention_to_dict(mention)
            json.dumps(record)
            assert mention_to_dict(mention_from_dict(record)) == record


def _mention_line(n: int, matches: list[dict]) -> dict:
    """A mentions.jsonl record as mention_to_dict writes it."""
    return {"tweet_id": f"t{n:05d}", "created_at": "2016-03-20T09:00:00Z", "author_id": f"u{n}",
            "matches": matches}


class TestDecodedMentions:
    """mention_from_dict builds each match from its own entry: each mention
    equals one built directly, and owns its matches list."""

    def test_decoded_mentions_equal_built_ones_and_own_their_lists(self, tmp_path):
        shared = {"kind": "matched", "release_id": "shared-201601",
                  "url": "https://news.test/releases/shared-201601.html"}
        outdated = {"kind": "outdated_url", "url": "https://news.test/releases/gone.html"}
        out_of_scope = {"kind": "out_of_scope", "url": "https://elsewhere.test/x"}
        mixes = [[shared, outdated, out_of_scope], [shared], [outdated], [out_of_scope, shared],
                 [shared, shared], [], [outdated, out_of_scope]]
        records = [_mention_line(n, mix) for n, mix in enumerate(mixes + mixes)]
        path = tmp_path / "mentions.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")

        mentions = list(read_jsonl(path, None, mention_from_dict))
        for mention, record in zip(mentions, records, strict=True):
            assert mention == TweetMention(
                tweet_id=record["tweet_id"],
                created_at=datetime(2016, 3, 20, 9, tzinfo=timezone.utc),
                author_id=record["author_id"],
                matches=[MatchResult(MatchKind(m["kind"]), m["url"], m.get("release_id"))
                         for m in record["matches"]])
            assert not mention.is_retweet
            assert mention_to_dict(mention) == record
        assert len({id(m.matches) for m in mentions}) == len(mentions)
