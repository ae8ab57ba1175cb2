"""Metamorphic relations on the fixture site: each transform of the tweet
archive predicts what ingest-tweets, couple, analyze and report then write,
with no truth needed.

- Each URL rewritten to another form of its identity changes nothing.
- The archive reordered, with the first copy of a repeated id kept ahead of
  the later one, changes nothing.
- One added retweet, off-fold tweet or repeated id raises exactly its drop
  count by 1 and changes nothing else.

"Nothing" is ``mentions.jsonl``, every report and the ingest-tweets counts.
"""

import dataclasses
import json
import shutil
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pressmetrics import cli, store
from pressmetrics.urls import canonicalize_url

FIXTURES = Path(__file__).parent / "fixtures"
TWEETS = list(store.read_jsonl(FIXTURES / "tweets_main.jsonl"))
# a short link is looked up in the recorded table as written, so only the
# URLs that the table does not list are rewritten
SHORT_LINKS = set(store.read_mapping(FIXTURES / "resolver_main.csv",
                                     lambda row: (row["from_url"], row["to_url"])))
FORMS = ("http", "port 80", "upper-case host", "escaped e")
RELATION = settings(max_examples=25, deadline=None)


def rewritten(url: str, forms: frozenset) -> str:
    """``url`` in another form of its identity: http for https, http with its
    default port, an upper-case host, or each "e" of the path as "%65"."""
    parts = urlsplit(url)
    assert parts.scheme == "https" and not (parts.port or parts.query or parts.fragment), url
    scheme = "http" if forms & {"http", "port 80"} else "https"
    host = parts.hostname.upper() if "upper-case host" in forms else parts.hostname
    port = ":80" if "port 80" in forms else ""
    path = parts.path.replace("e", "%65") if "escaped e" in forms else parts.path
    return f"{scheme}://{host}{port}{path}"


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> cli.PipelineConfig:
    """The fixture site crawled, parsed and joined to its backlinks once."""
    work = tmp_path_factory.mktemp("metamorphic")
    cfg = cli.PipelineConfig(
        seed_path="www.eksci.test/releases/", rate_limit=0.0, corpus_dir=work / "corpus",
        report_dir=work / "reports", fixtures_dir=FIXTURES / "site",
        alias_institutions=FIXTURES / "aliases_institutions.csv",
        alias_journals=FIXTURES / "aliases_journals.csv",
        doi_rewrites=FIXTURES / "doi_rewrites.csv",
        external_counts=FIXTURES / "external_counts.csv",
        backlinks_file=FIXTURES / "backlinks_main.csv",
        resolver_file=FIXTURES / "resolver_main.csv")
    for command in ("crawl", "parse", "ingest-links"):
        cli.run(command, cfg)
    return cfg


def outputs(base: cli.PipelineConfig, tweets: list[dict]) -> tuple[dict, Counter]:
    """Each file that ingest-tweets, couple, analyze and report write from the
    archive ``tweets``, by name, and the ingest-tweets counts."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = dataclasses.replace(base, corpus_dir=Path(tmp) / "corpus",
                                  report_dir=Path(tmp) / "reports",
                                  tweets_file=Path(tmp) / "tweets.jsonl")
        cfg.corpus_dir.mkdir()
        for path in (base.corpus_file, base.backlinks_attached):
            shutil.copy(path, cfg.corpus_dir)
        store.write_jsonl(cfg.tweets_file, tweets)
        counts = cli.run("ingest-tweets", cfg).counts
        for command in ("couple", "analyze", "report"):
            cli.run(command, cfg)
        files = {p.name: p.read_bytes() for p in cfg.report_dir.iterdir()}
        files["mentions.jsonl"] = cfg.mentions_file.read_bytes()
    return files, Counter(counts)


@pytest.fixture(scope="module")
def expected(base) -> tuple[dict, Counter]:
    return outputs(base, TWEETS)


def test_the_relations_see_every_drop_and_a_mention_per_kept_tweet(expected):
    files, counts = expected
    assert counts["retweets_dropped"] and counts["no_corpus_url"] and counts["duplicate_ids"]
    assert counts["mentions_kept"] == files["mentions.jsonl"].count(b"\n") > 0


@RELATION
@given(st.data())
def test_a_url_in_another_form_of_its_identity_changes_nothing(base, expected, data):
    tweets = []
    for tweet in TWEETS:
        urls = []
        for url in tweet["urls"]:
            if url not in SHORT_LINKS:
                forms = data.draw(st.frozensets(st.sampled_from(FORMS), min_size=1))
                form = rewritten(url, forms)
                assert canonicalize_url(form) == canonicalize_url(url)
                url = form
            urls.append(url)
        tweets.append(dict(tweet, urls=urls))
    assert outputs(base, tweets) == expected


@RELATION
@given(st.permutations(range(len(TWEETS))))
def test_a_reordered_archive_changes_nothing(base, expected, order):
    copies = defaultdict(list)  # tweet id -> its records, in archive order
    for tweet in TWEETS:
        copies[tweet["tweet_id"]].append(tweet)
    for same_id in copies.values():
        same_id.reverse()
    # each id's copies fill the places its ids are shuffled to, first copy first
    tweets = [copies[TWEETS[i]["tweet_id"]].pop() for i in order]
    assert outputs(base, tweets) == expected


@RELATION
@given(st.data(), st.sampled_from(["retweets_dropped", "no_corpus_url", "duplicate_ids"]))
def test_one_added_tweet_raises_exactly_its_drop_count(base, expected, data, reason):
    kept = {json.loads(line)["tweet_id"] for line in expected[0]["mentions.jsonl"].splitlines()}
    # a tweet that was kept, so that only the change made to it can drop it
    template = data.draw(st.sampled_from(
        [t for t in TWEETS if t["tweet_id"] in kept and not t["is_retweet"]]), label="template")
    if reason == "retweets_dropped":  # any id, ahead of its first copy or after it
        tweet, earliest = dict(template, is_retweet=True), 0
    elif reason == "no_corpus_url":
        ids = {t["tweet_id"] for t in TWEETS}
        tweet_id = data.draw(st.integers(0, 999).map("n{:03d}".format).filter(
            lambda i: i not in ids), label="id")
        host = data.draw(st.sampled_from(["elsewhere.example", "www.eksci.test"]), label="host")
        path = data.draw(st.text("abcxyz019-", max_size=12), label="path")
        url = f"https://{host}/about/{path}"
        tweet, earliest = dict(template, tweet_id=tweet_id, is_retweet=False, urls=[url]), 0
    else:  # the id of a kept tweet, after every copy of it
        tweet_id = data.draw(st.sampled_from(sorted(kept)), label="id")
        last = max(n for n, t in enumerate(TWEETS) if t["tweet_id"] == tweet_id)
        tweet, earliest = dict(template, tweet_id=tweet_id, is_retweet=False), last + 1
    at = data.draw(st.integers(earliest, len(TWEETS)), label="at")
    files, counts = outputs(base, TWEETS[:at] + [tweet] + TWEETS[at:])
    want_files, want_counts = expected
    assert files == want_files
    assert counts - want_counts == Counter({reason: 1}) and not want_counts - counts
