"""Ingest archived tweet records: resolve short-URL chains to their final
targets, match targets against the harvested corpus, and keep only original
tweets that actually land in the press-release URL space.

Retweets never enter the corpus. URLs that resolve under the corpus fold
but match nothing are flagged as outdated rather than dropped silently:
they are the obsolescence signal the coverage reports must exclude.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from . import store
from .urls import CorpusIndex, canonicalize_url

MAX_HOPS = 5  # redirects followed before a chain stops as Terminated.MAX_DEPTH


class Terminated(str, Enum):
    FINAL_TARGET = "final_target"
    MAX_DEPTH = "max_depth"
    CYCLE = "cycle"
    DEAD = "dead"


@dataclass
class UrlResolution:
    """One unshortening walk: every URL visited, and why it stopped."""

    chain: list[str]
    final: str
    terminated_by: Terminated

    @property
    def depth(self) -> int:
        return len(self.chain) - 1


class MatchKind(str, Enum):
    MATCHED = "matched"
    OUTDATED_URL = "outdated_url"
    OUT_OF_SCOPE = "out_of_scope"


class MatchResult(NamedTuple):
    kind: MatchKind
    url: str  # the resolved, canonical URL that the match was made from
    release_id: str | None = None


@dataclass
class TweetMention:
    """One original tweet carrying at least one URL into the corpus fold."""

    tweet_id: str
    created_at: datetime
    author_id: str
    matches: list[MatchResult]
    is_retweet: bool = False  # retweets never enter the corpus

    @property
    def resolved_urls(self) -> list[str]:
        return [m.url for m in self.matches]


class CsvResolver(dict):
    """The redirect hops of a recorded from_url,to_url table: a listed URL
    maps to its next hop, None (an empty to_url) marks a dead link, and an
    unlisted URL is terminal. Keeps fixture runs byte-for-byte reproducible
    with no network in sight.
    """

    @classmethod
    def from_csv(cls, path: str | Path, digests: dict | None = None) -> "CsvResolver":
        return cls(store.read_mapping(
            path, lambda row: (row["from_url"].strip(), row["to_url"].strip() or None), digests))

    def unshorten(self, url: str) -> str | None:
        """The final URL of ``url``'s chain when the table lists ``url``."""
        return resolve_chain(url, self).final if url in self else None


def resolve_chain(url: str, hops: dict[str, str | None]) -> UrlResolution:
    """Follow ``hops`` from ``url`` until an unlisted URL, MAX_HOPS
    redirects, a revisit (cycle), or a dead link; never raises.

    On a cycle, final is the deepest distinct URL reached; the revisited
    URL still appears at the end of the chain.
    """
    chain = [url]
    current = url
    while current in hops:
        nxt = hops[current]
        if nxt is None:
            terminated = Terminated.DEAD
            break
        if nxt in chain:
            chain.append(nxt)
            terminated = Terminated.CYCLE
            break
        if len(chain) > MAX_HOPS:
            terminated = Terminated.MAX_DEPTH
            break
        chain.append(nxt)
        current = nxt
    else:
        terminated = Terminated.FINAL_TARGET
    try:
        final = canonicalize_url(current)
    except ValueError:
        final = current
    return UrlResolution(chain=chain, final=final, terminated_by=terminated)


def match_to_release(final: str, index: CorpusIndex) -> MatchResult:
    """Matched when the corpus knows the URL; outdated when it lies under
    the corpus fold but matches nothing; out-of-scope otherwise."""
    release_id = index.get(final)
    if release_id is not None:
        return MatchResult(_MATCHED, final, release_id)
    return MatchResult(_OUTDATED_URL if index.in_fold(final) else _OUT_OF_SCOPE, final)


_MATCHED, _OUTDATED_URL, _OUT_OF_SCOPE = MatchKind  # in order, read once: Enum reads are slow
# YYYY-MM-DDTHH:MM:SS[.fff|.ffffff][Z|±HH:MM]: read alike by fromisoformat on 3.10 and 3.11
_TIMESTAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}"
                        r"(?:\.[0-9]{3}|\.[0-9]{6})?(?:Z|[+-][0-9]{2}:[0-9]{2})?")


def _parse_timestamp(raw: str) -> datetime:
    if not _TIMESTAMP.fullmatch(raw):
        raise ValueError(f"not a YYYY-MM-DDTHH:MM:SS time: {raw!r}")
    ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    return (ts if ts.tzinfo else ts.replace(tzinfo=timezone.utc)).astimezone(timezone.utc)


def ingest_tweets(records, hops: dict, index: CorpusIndex, stats: dict) -> list[TweetMention]:
    """Cleanse a raw tweet stream into corpus mentions.

    Retweets are dropped; every embedded URL is resolved (memoized) and
    matched; tweets whose URLs never reach the corpus fold are dropped;
    duplicate tweet_ids collapse to the first occurrence. Output is sorted
    by tweet_id so persisted runs are deterministic. Malformed records are
    skipped. The drops of each reason are added to ``stats`` at the end.
    """
    dropped: Counter[str] = Counter()
    finals: dict[str, str] = {}  # embedded URL -> the final URL of its chain
    kept: dict[str, TweetMention] = {}
    for record in records:
        try:
            tweet_id = store.typed(record, "tweet_id", str)
            created_at = _parse_timestamp(record["created_at"])
            author_id = store.typed(record, "author_id", str)
            urls = store.typed(record, "urls", list)
            is_retweet = store.typed(record, "is_retweet", bool)
        except (KeyError, TypeError, ValueError):
            dropped["malformed_records"] += 1
            continue
        if is_retweet:
            dropped["retweets_dropped"] += 1
            continue
        if tweet_id in kept:
            dropped["duplicate_ids"] += 1
            continue
        matches: list[MatchResult] = []
        for url in urls:
            if not isinstance(url, str) or not url.strip():
                dropped["bad_urls"] += 1
                continue
            if url not in finals:
                finals[url] = resolve_chain(url.strip(), hops).final
            matches.append(match_to_release(finals[url], index))
        if all(m.kind is _OUT_OF_SCOPE for m in matches):
            dropped["no_corpus_url"] += 1
            continue
        kept[tweet_id] = TweetMention(tweet_id, created_at, author_id, matches)
    stats.update(dropped)
    return [kept[tid] for tid in sorted(kept)]


def mention_to_dict(mention: TweetMention) -> dict:
    return {
        "tweet_id": mention.tweet_id,
        "created_at": mention.created_at.isoformat().replace("+00:00", "Z"),
        "author_id": mention.author_id,
        "matches": [{"kind": m.kind.value, **({"release_id": m.release_id} if m.release_id else {}),
                     "url": m.url} for m in mention.matches],
    }


def mention_from_dict(record: dict) -> TweetMention:
    return TweetMention(  # by position, which costs half as much as by keyword
        store.typed(record, "tweet_id", str),
        _parse_timestamp(record["created_at"]),
        store.typed(record, "author_id", str),
        # a matched entry, and only a matched one, has a release_id
        [MatchResult(kind := store.member(m, "kind", MatchKind), store.typed(m, "url", str),
                     store.typed(m, "release_id", str) if kind is _MATCHED
                     else _no_release_id(m)) for m in store.typed(record, "matches", list)],
    )


def _no_release_id(match: dict) -> None:
    if "release_id" in match:
        raise ValueError(f"an {match['kind']} match has release_id {match['release_id']!r}")
