"""Ingest archived tweet records: resolve short-URL chains to their final
targets, match targets against the harvested corpus, and keep only original
tweets that actually land in the press-release URL space.

Retweets never enter the corpus. URLs that resolve under the corpus fold
but match nothing are flagged as outdated rather than dropped silently:
they are the obsolescence signal the coverage reports must exclude.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

from . import store
from .urls import CorpusIndex, canonicalize_url

DEAD = object()  # resolver sentinel: the URL no longer answers at all


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


@dataclass(frozen=True)
class MatchResult:
    kind: MatchKind
    release_id: str | None = None


@dataclass
class TweetMention:
    """One original tweet carrying at least one URL into the corpus fold."""

    tweet_id: str
    created_at: datetime
    author_id: str
    embedded_urls: list[str]
    resolved_urls: list[str]
    is_retweet: bool
    matches: list[MatchResult] = field(default_factory=list)

    def matched_release_ids(self) -> list[str]:
        """Distinct matched releases, one entry per (tweet, release) pair,
        in first-match order."""
        return list(dict.fromkeys(m.release_id for m in self.matches
                                  if m.kind is MatchKind.MATCHED))


class CsvResolver:
    """Redirect oracle from a recorded from_url,to_url table.

    An empty to_url marks a dead link; anything unlisted is terminal. Keeps
    fixture runs byte-for-byte reproducible with no network in sight.
    """

    def __init__(self, hops: dict[str, str | None]):
        self._hops = hops

    @classmethod
    def from_csv(cls, path: str | Path) -> "CsvResolver":
        return cls(store.read_mapping(
            path, lambda row: (row["from_url"].strip(), row["to_url"].strip() or None)))

    def __call__(self, url: str):
        if url not in self._hops:
            return None  # terminal
        nxt = self._hops[url]
        return DEAD if nxt is None else nxt

    def unshorten(self, url: str, max_depth: int = 5) -> str | None:
        """The final URL of ``url``'s chain when the table lists ``url``."""
        return resolve_chain(url, self, max_depth).final if url in self._hops else None


def resolve_chain(url: str, resolver, max_depth: int = 5) -> UrlResolution:
    """Follow redirect hops until a terminal URL, the depth budget, a
    revisit (cycle), or a dead link; never raises.

    On a cycle, final is the deepest distinct URL reached; the revisited
    URL still appears at the end of the chain.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    chain = [url]
    current = url
    while True:
        nxt = resolver(current)
        if nxt is None:
            terminated = Terminated.FINAL_TARGET
            break
        if nxt is DEAD:
            terminated = Terminated.DEAD
            break
        if nxt in chain:
            chain.append(nxt)
            terminated = Terminated.CYCLE
            break
        if len(chain) - 1 >= max_depth:
            terminated = Terminated.MAX_DEPTH
            break
        chain.append(nxt)
        current = nxt
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
        return MatchResult(MatchKind.MATCHED, release_id)
    if index.in_fold(final):
        return MatchResult(MatchKind.OUTDATED_URL)
    return MatchResult(MatchKind.OUT_OF_SCOPE)


def _parse_timestamp(raw: str) -> datetime:
    ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def ingest_tweets(records, resolver, index: CorpusIndex, max_depth: int = 5,
                  stats: dict | None = None) -> list[TweetMention]:
    """Cleanse a raw tweet stream into corpus mentions.

    Retweets are dropped; every embedded URL is resolved (memoized) and
    matched; tweets whose URLs never reach the corpus fold are dropped;
    duplicate tweet_ids collapse to the first occurrence. Output is sorted
    by tweet_id so persisted runs are deterministic. Malformed records are
    skipped and counted in ``stats``.
    """
    if stats is None:
        stats = {}
    cache: dict[str, UrlResolution] = {}
    kept: dict[str, TweetMention] = {}
    for record in records:
        try:
            tweet_id = str(record["tweet_id"])
            created_at = _parse_timestamp(record["created_at"])
            author_id = str(record.get("author_id", ""))
            urls = list(record["urls"])
            is_retweet = bool(record["is_retweet"])
        except (KeyError, TypeError, ValueError):
            stats["malformed_records"] = stats.get("malformed_records", 0) + 1
            continue
        if is_retweet:
            stats["retweets_dropped"] = stats.get("retweets_dropped", 0) + 1
            continue
        if tweet_id in kept:
            stats["duplicate_ids"] = stats.get("duplicate_ids", 0) + 1
            continue
        resolved: list[str] = []
        matches: list[MatchResult] = []
        for url in urls:
            if not isinstance(url, str) or not url.strip():
                stats["bad_urls"] = stats.get("bad_urls", 0) + 1
                continue
            if url not in cache:
                cache[url] = resolve_chain(url, resolver, max_depth=max_depth)
            resolution = cache[url]
            resolved.append(resolution.final)
            matches.append(match_to_release(resolution.final, index))
        if not any(m.kind in (MatchKind.MATCHED, MatchKind.OUTDATED_URL) for m in matches):
            stats["no_corpus_url"] = stats.get("no_corpus_url", 0) + 1
            continue
        kept[tweet_id] = TweetMention(
            tweet_id=tweet_id,
            created_at=created_at,
            author_id=author_id,
            embedded_urls=urls,
            resolved_urls=resolved,
            is_retweet=False,
            matches=matches,
        )
    return [kept[tid] for tid in sorted(kept)]


def mention_to_dict(mention: TweetMention) -> dict:
    return {
        "tweet_id": mention.tweet_id,
        "created_at": mention.created_at.isoformat().replace("+00:00", "Z"),
        "author_id": mention.author_id,
        "embedded_urls": mention.embedded_urls,
        "resolved_urls": mention.resolved_urls,
        "is_retweet": mention.is_retweet,
        "matches": [
            {"kind": m.kind.value, **({"release_id": m.release_id} if m.release_id else {})}
            for m in mention.matches
        ],
    }


def mention_from_dict(record: dict) -> TweetMention:
    return TweetMention(
        tweet_id=record["tweet_id"],
        created_at=_parse_timestamp(record["created_at"]),
        author_id=record.get("author_id", ""),
        embedded_urls=list(record.get("embedded_urls", [])),
        resolved_urls=list(record.get("resolved_urls", [])),
        is_retweet=bool(record.get("is_retweet", False)),
        matches=[MatchResult(MatchKind(m["kind"]), m.get("release_id"))
                 for m in record.get("matches", [])],
    )
