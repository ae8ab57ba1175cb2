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
from collections import Counter, defaultdict, deque
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from functools import lru_cache
from pathlib import Path
from urllib.parse import quote, urljoin

from . import __version__
from .pagescan import PageScan, scan_page
from .urls import canonicalize_url, inside_fold, normalize_fold, url_host, url_path

FETCH_ATTEMPTS = 3
HTTP_TIMEOUT_S = 30.0
GRANT_WINDOW = 64  # recent grants the limiter keeps per host


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
        if not 0 <= self.rate_limit < float("inf"):  # NaN would spin acquire() forever
            raise ValueError("rate_limit must be a finite number >= 0")
        object.__setattr__(self, "seed_path", normalize_fold(self.seed_path))

    @property
    def seed_url(self) -> str:
        return canonicalize_url("https://" + self.seed_path)

    def contains(self, canonical: str) -> bool:
        return inside_fold(canonical, self.seed_path)


@dataclass
class FetchRecord:
    """One completed request: status, headers, payload, digest, and completion time."""

    url: str
    status: int
    headers: Mapping[str, str]
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
    the host's last grant, then records the grant; only the last GRANT_WINDOW
    are kept. Grants are re-checked against actual clock readings, so recorded
    spacings are >= rate_limit even under scheduling jitter or concurrency.
    """

    def __init__(self, rate_limit: float, clock=None):
        if not 0 <= rate_limit < float("inf"):
            raise ValueError("rate_limit must be a finite number >= 0")
        self.rate_limit = rate_limit
        self.clock = clock or SystemClock()
        self._grants = defaultdict(lambda: deque(maxlen=GRANT_WINDOW))  # host -> grant times
        self._lock = threading.Lock()

    def acquire(self, host: str) -> float:
        while True:
            with self._lock:
                now = self.clock.monotonic()
                grants = self._grants[host]
                wait = (grants[-1] + self.rate_limit) - now if grants else 0.0
                if wait <= 0:
                    grants.append(now)
                    return now
            self.clock.sleep(wait)

    def spacings(self, host: str) -> list[float]:
        grants = list(self._grants.get(host, ()))
        return [b - a for a, b in zip(grants, grants[1:])]


# ---------------------------------------------------------------------------
# Fetchers
# ---------------------------------------------------------------------------

class HttpFetcher:
    """Live fetcher: one GET per fetch, on its own connection, following no
    redirect; proxies come from the environment. force_scheme lets tests hit
    a plain-http fixture server while identities stay canonical (https)."""

    def __init__(self, force_scheme: str | None = None):
        import urllib.request  # only a live crawl needs the HTTP stack

        class EveryStatus(urllib.request.HTTPErrorProcessor):
            def http_response(self, request, response):
                return response  # urllib's would raise a non-2xx status, or follow a 3xx

            https_response = http_response

        opener = urllib.request.build_opener(EveryStatus)
        opener.addheaders = [("User-Agent", f"pressmetrics/{__version__}")]
        self.open = opener.open
        self.force_scheme = force_scheme

    def fetch(self, canonical_url: str) -> tuple[int, Mapping[str, str], bytes]:
        url = canonical_url
        if self.force_scheme:
            url = self.force_scheme + "://" + url.split("://", 1)[1]
        # http.client sends only an ASCII request line; existing escapes are kept
        with self.open(quote(url, safe="!#$%&'()*+,/:;=?@[]~"), timeout=HTTP_TIMEOUT_S) as response:
            return response.status, response.headers, response.read()


class DirectoryFetcher:
    """Recorded-response fetcher for fixtures mode: root/<host>/<path>.

    Directory URLs map onto their index.html; anything absent is a 404, so
    fixture runs are fully network-free. Recorded responses carry no headers.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def fetch(self, canonical_url: str) -> tuple[int, Mapping[str, str], bytes]:
        path = url_path(canonical_url)
        if path.endswith("/"):
            path += "index.html"
        candidate = self.root / url_host(canonical_url) / path.lstrip("/")
        if candidate.is_dir():
            candidate = candidate / "index.html"
        if not candidate.is_file():
            return 404, {}, b""
        return 200, {}, candidate.read_bytes()


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def fetch_page(url, scope, fetcher, limiter: RateLimiter) -> FetchRecord:
    """Fetch one in-scope URL politely.

    Blocks on the shared limiter until the previous request to the same host
    is at least ``limiter.rate_limit`` seconds old. Network failures retry
    up to FETCH_ATTEMPTS attempts with doubling backoff starting at the rate
    limit; non-success statuses, 3xx too, are recorded, never raised or followed.
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
            status, headers, body = fetcher.fetch(canonical)
        except Exception as exc:  # network-level only; HTTP errors come back as statuses
            last_error = exc
            if attempt < FETCH_ATTEMPTS:
                limiter.clock.sleep(backoff)
                backoff *= 2
            continue
        return FetchRecord(
            url=canonical,
            status=status,
            headers=headers,
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


def expand_frontier(page_url: str, hrefs: list[str], scope: CrawlScope, seen: set[str],
                    stats: Counter) -> list[str]:
    """New in-scope canonical URLs among ``hrefs``, the links of the page at
    canonical ``page_url``.

    Output preserves link order, is duplicate-free, and excludes everything
    in ``seen``; each URL returned is added to ``seen``. Malformed or
    non-http links are skipped and counted in ``stats``.
    """
    out: list[str] = []
    for href in hrefs:
        canonical = _canonical_join(page_url, href.strip())
        if canonical is None:
            stats["malformed_links"] += 1
            continue
        if not scope.contains(canonical):
            stats["offscope_links"] += 1
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


def crawl(scope: CrawlScope, fetcher, limiter: RateLimiter, stats: Counter):
    """Breadth-first crawl of the whole fold, each URL fetched exactly once.
    Yields ``(record, page_class)`` as each page lands, so the caller stores
    pages one at a time instead of holding the whole crawl in memory.

    The frontier seeds from the fold root; only press-release pages and the
    other in-scope documents they link (directly or transitively) are
    visited. ``stats`` counts ``fetched``, ``press_releases`` and ``failed``
    as the crawl goes; failed URLs never produce records. Each payload is
    scanned once; classification and frontier expansion share that scan.
    A redirect is recorded with its status, and its target is a link like
    any other: fetched on its own grant if it is new and in scope.
    """
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
            frontier.extend(expand_frontier(record.url, scan.anchors, scope, seen, stats=stats))
        elif 300 <= record.status < 400 and "Location" in record.headers:  # a URI reference, RFC 9110 §10.2.2
            frontier.extend(expand_frontier(record.url, [record.headers["Location"]], scope, seen, stats))
        yield record, page_class
