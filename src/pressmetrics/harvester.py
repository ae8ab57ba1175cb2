"""Polite scoped crawler: fetch pages under one URL fold, rate-limited per
host, and classify each payload as press-release content or discardable
non-content.

The crawl frontier only ever holds canonical URLs under the configured seed
fold, so every downstream join key is minted here. Politeness is a shared
per-host limiter that serializes request release times; with the default
limit no host sees more than one request per second. Waits, retry backoff
and fetch timestamps all come from the limiter's clock.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from functools import lru_cache
from pathlib import Path
from urllib.parse import urljoin

from . import __version__
from .pagescan import PageScan, scan_page
from .urls import canonicalize_url, normalize_fold, url_host, url_path

FETCH_ATTEMPTS = 3
HTTP_TIMEOUT_S = 30.0


class ScopeViolation(Exception):
    """URL outside the configured crawl fold."""


class FetchRetryError(Exception):
    """Network-level failure that survived all retry attempts."""

    def __init__(self, url: str, attempts: int):
        super().__init__(f"fetch failed after {attempts} attempts: {url}")
        self.url = url
        self.attempts = attempts


@dataclass(frozen=True)
class CrawlScope:
    """Scoped URL space: a host+path fold and the politeness rate."""

    seed_path: str
    rate_limit: float = 1.0

    def __post_init__(self):
        if not self.seed_path.strip():
            raise ValueError("seed_path must be non-empty")
        if self.rate_limit < 0:
            raise ValueError("rate_limit must be >= 0")
        object.__setattr__(self, "seed_path", normalize_fold(self.seed_path))

    @property
    def seed_url(self) -> str:
        return canonicalize_url("https://" + self.seed_path)

    def contains(self, canonical: str) -> bool:
        # a URL that does not canonicalise never starts with "https://" and the fold
        return canonical.startswith("https://" + self.seed_path)


@dataclass
class FetchRecord:
    """One completed request: payload, digest, status, and completion time."""

    url: str
    status: int
    body_digest: str
    fetched_at: datetime
    body: bytes


class PageClass(str, Enum):
    """Press-release content, or one kind of non-content; each value is the
    label the crawl manifest records."""

    PRESS_RELEASE = "press_release"
    SITEMAP = "sitemap"
    FORM = "form"
    SERVER_MESSAGE = "server_message"
    EMPTY = "empty"
    OTHER = "other"

    @property
    def press_release(self) -> bool:
        return self is PageClass.PRESS_RELEASE


# ---------------------------------------------------------------------------
# Clocks and rate limiting
# ---------------------------------------------------------------------------

class SystemClock:
    """Wall clock; monotonic() feeds the limiter, utcnow() stamps records."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def utcnow(self) -> datetime:
        return datetime.now(timezone.utc)


class VirtualClock:
    """Deterministic clock for fixture runs: sleep() advances time exactly.

    utcnow() maps virtual seconds onto the Unix epoch so recorded
    timestamps are byte-identical across reruns.
    """

    def __init__(self):
        self._now = 0.0

    def monotonic(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self._now += seconds

    def utcnow(self) -> datetime:
        return datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(seconds=self._now)


class RateLimiter:
    """Shared per-host limiter serializing request release times.

    acquire() blocks until at least ``rate_limit`` seconds have passed since
    the previous grant for the same host, then records the grant on the
    trace. Grants are re-checked against actual clock readings, so recorded
    spacings are >= rate_limit even under scheduling jitter or concurrency.
    """

    def __init__(self, rate_limit: float, clock=None):
        if rate_limit < 0:
            raise ValueError("rate_limit must be >= 0")
        self.rate_limit = rate_limit
        self.clock = clock or SystemClock()
        self.trace: list[tuple[str, float]] = []
        self._next_allowed: dict[str, float] = {}
        self._lock = threading.Lock()

    def acquire(self, host: str) -> float:
        while True:
            with self._lock:
                now = self.clock.monotonic()
                wait = self._next_allowed.get(host, float("-inf")) - now
                if wait <= 0:
                    self._next_allowed[host] = now + self.rate_limit
                    self.trace.append((host, now))
                    return now
            self.clock.sleep(wait)

    def spacings(self, host: str) -> list[float]:
        grants = [t for h, t in self.trace if h == host]
        return [b - a for a, b in zip(grants, grants[1:])]


# ---------------------------------------------------------------------------
# Fetchers
# ---------------------------------------------------------------------------

class HttpFetcher:
    """Live fetcher. force_scheme lets tests hit a plain-http fixture server
    while identities stay canonical (https)."""

    def __init__(self, force_scheme: str | None = None):
        import requests  # only a live crawl needs the HTTP stack

        self.force_scheme = force_scheme
        self.session = requests.Session()
        self.session.headers["User-Agent"] = f"pressmetrics/{__version__}"

    def fetch(self, canonical_url: str) -> tuple[int, bytes]:
        url = canonical_url
        if self.force_scheme:
            url = self.force_scheme + "://" + url.split("://", 1)[1]
        resp = self.session.get(url, timeout=HTTP_TIMEOUT_S)
        return resp.status_code, resp.content

    def close(self) -> None:
        self.session.close()


class DirectoryFetcher:
    """Recorded-response fetcher for fixtures mode: root/<host>/<path>.

    Directory URLs map onto their index.html; anything absent is a 404, so
    fixture runs are fully network-free.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def fetch(self, canonical_url: str) -> tuple[int, bytes]:
        path = url_path(canonical_url)
        if path.endswith("/"):
            path += "index.html"
        candidate = self.root / url_host(canonical_url) / path.lstrip("/")
        if candidate.is_dir():
            candidate = candidate / "index.html"
        if not candidate.is_file():
            return 404, b""
        return 200, candidate.read_bytes()

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def fetch_page(url, scope, fetcher, limiter: RateLimiter) -> FetchRecord:
    """Fetch one in-scope URL politely.

    Blocks on the shared limiter until the previous request to the same host
    is at least ``limiter.rate_limit`` seconds old. Network failures retry
    up to FETCH_ATTEMPTS attempts with doubling backoff starting at the rate
    limit; non-success statuses are recorded, never raised.
    """
    canonical = canonicalize_url(url)
    if not scope.contains(canonical):
        raise ScopeViolation(f"{canonical} is outside fold {scope.seed_path}")
    host = url_host(canonical)

    backoff = limiter.rate_limit
    last_error: Exception | None = None
    for attempt in range(1, FETCH_ATTEMPTS + 1):
        limiter.acquire(host)
        try:
            status, body = fetcher.fetch(canonical)
        except Exception as exc:  # network-level only; HTTP errors come back as statuses
            last_error = exc
            if attempt < FETCH_ATTEMPTS:
                limiter.clock.sleep(backoff)
                backoff *= 2
            continue
        return FetchRecord(
            url=canonical,
            status=status,
            body_digest=hashlib.sha256(body).hexdigest(),
            fetched_at=limiter.clock.utcnow(),
            body=body,
        )
    raise FetchRetryError(canonical, FETCH_ATTEMPTS) from last_error


# What a canonical (https) page URL contributes to an href's join. A network
# path ("//host", with or without a scheme) or a scheme other than http(s)
# joins the same from every page; a bare "https:x" is directory-relative.
# Hrefs that are empty after their scheme, start with "?", "#" or a character
# urljoin strips, are a lone ";" (an empty path with empty parameters) before
# any query or fragment, or hold a tab or line break (urljoin deletes those
# before parsing) keep the whole page URL.
_PAGE_INDEPENDENT = re.compile(
    r"(?:[A-Za-z][A-Za-z0-9+.-]*:)?//[^/?#\t\n\r]|(?![Hh][Tt][Tt][Pp][Ss]?:)[A-Za-z][A-Za-z0-9+.-]*:")
_DIRECTORY_RELATIVE = re.compile(
    r"(?![A-Za-z][A-Za-z0-9+.-]*:|//|;(?:[?#]|\Z))[^\x00-\x20?#][^\t\n\r]*\Z")
_ANY_PAGE = "https://page.invalid/"  # the base of every page-independent join


@lru_cache(maxsize=4096)
def _join(base: str, href: str) -> str | None:
    """``canonicalize_url(urljoin(base, href))``, or None where that raises
    ValueError; memoised, because the navigation links of a site repeat on
    every page."""
    try:
        return canonicalize_url(urljoin(base, href))
    except ValueError:
        return None


def _canonical_join(page_url: str, href: str) -> str | None:
    """``canonicalize_url(urljoin(page_url, href))`` for a canonical page URL,
    or None where that raises ValueError. The join is made against only the
    part of the page URL that it reads, so every page with the same part
    shares one memo entry."""
    if _PAGE_INDEPENDENT.match(href):
        return _join(_ANY_PAGE, href)
    if _DIRECTORY_RELATIVE.match(href):
        return _join(page_url[:page_url.rfind("/") + 1], href)
    return _join(page_url, href)


def expand_frontier(page_url: str, scan: PageScan, scope: CrawlScope, seen: set[str],
                    stats: dict | None = None) -> list[str]:
    """New in-scope canonical URLs linked from the page at canonical
    ``page_url``, given that page's scan.

    Non-hypertext payloads expand to nothing. Output preserves document
    order, is duplicate-free, and excludes everything in ``seen``; each URL
    returned is added to ``seen``. Malformed or non-http links are skipped
    and counted in ``stats``.
    """
    if stats is None:
        stats = {}
    if not scan.is_html:
        return []
    out: list[str] = []
    for href in scan.anchors:
        canonical = _canonical_join(page_url, href.strip())
        if canonical is None:
            stats["malformed_links"] = stats.get("malformed_links", 0) + 1
            continue
        if not scope.contains(canonical):
            stats["offscope_links"] = stats.get("offscope_links", 0) + 1
            continue
        if canonical in seen:
            continue
        seen.add(canonical)
        out.append(canonical)
    return out


_SERVER_MESSAGE = re.compile(
    r"\b(error|not found|forbidden|unavailable|maintenance|access denied|bad gateway)\b",
    re.IGNORECASE,
)


def classify_page(scan: PageScan, status: int = 200) -> PageClass:
    """Press-release content iff the response succeeded (2xx) and the
    machine-readable metadata block is present (date and type fields);
    otherwise non-content with the best-matching reason.

    An empty payload is ``empty`` whatever the status; any other non-2xx
    payload is a ``server_message``, even when it carries the metadata block.
    """
    if scan.empty:
        return PageClass.EMPTY
    if not 200 <= status < 300:
        return PageClass.SERVER_MESSAGE
    if scan.xml_root in ("urlset", "sitemapindex"):
        return PageClass.SITEMAP
    if scan.meta.get("date") and scan.meta.get("type"):
        return PageClass.PRESS_RELEASE
    if _SERVER_MESSAGE.search(scan.title):
        return PageClass.SERVER_MESSAGE
    if scan.has_form:
        return PageClass.FORM
    return PageClass.OTHER


def crawl(scope: CrawlScope, fetcher, limiter: RateLimiter, stats: Counter | None = None):
    """Breadth-first crawl of the whole fold, each URL fetched exactly once.
    Yields ``(record, page_class)`` as each page lands, so the caller stores
    pages one at a time instead of holding the whole crawl in memory.

    The frontier seeds from the fold root; only press-release pages and the
    other in-scope documents they link (directly or transitively) are
    visited. ``stats`` counts ``fetched``, ``press_releases`` and ``failed``
    as the crawl goes; failed URLs never produce records. Each payload is
    scanned once; classification and frontier expansion share that scan.
    """
    if stats is None:
        stats = Counter()
    stats.update(failed=0, fetched=0, press_releases=0)
    seed = scope.seed_url
    frontier: deque[str] = deque([seed])
    seen: set[str] = {seed}
    while frontier:
        url = frontier.popleft()
        try:
            record = fetch_page(url, scope, fetcher, limiter)
        except FetchRetryError:
            stats["failed"] += 1
            continue
        scan = scan_page(record.body)
        page_class = classify_page(scan, record.status)
        stats["fetched"] += 1
        stats["press_releases"] += page_class.press_release
        if 200 <= record.status < 300:
            frontier.extend(expand_frontier(record.url, scan, scope, seen, stats=stats))
        yield record, page_class
