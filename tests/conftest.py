import json
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from email.message import Message
from functools import partial
from http.server import BaseHTTPRequestHandler, SimpleHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from pressmetrics import harvester
from pressmetrics.mention_ingest import CsvResolver
from pressmetrics.release_parser import (
    DoiRef,
    MetadataRecord,
    PressRelease,
    PressType,
    Region,
    Repair,
    load_rewrite_table,
    parse_release,
)
from pressmetrics.urls import CorpusIndex

FIXTURES = Path(__file__).parent / "fixtures"
FOLD = "www.eksci.test/releases/"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def truth() -> dict:
    return json.loads((FIXTURES / "site_truth.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def fixture_scope() -> harvester.CrawlScope:
    return harvester.CrawlScope(FOLD, rate_limit=0.0)


@pytest.fixture(scope="session")
def crawl_result(fixture_scope) -> list[tuple[harvester.FetchRecord, harvester.PageClass]]:
    fetcher = harvester.DirectoryFetcher(FIXTURES / "site")
    return list(harvester.crawl(fixture_scope, fetcher,
                                harvester.RateLimiter(0.0, harvester.VirtualClock()), Counter()))


@pytest.fixture(scope="session")
def corpus(crawl_result) -> list[PressRelease]:
    """Fixture corpus parsed straight from the crawled payloads."""
    rewrites = load_rewrite_table(FIXTURES / "doi_rewrites.csv")
    resolver = CsvResolver.from_csv(FIXTURES / "resolver_main.csv")
    return [
        parse_release(record.url, record.body, rewrite_table=rewrites, unshorten=resolver.unshorten,
                      stats=Counter())
        for record, page_class in crawl_result
        if page_class.press_release
    ]


@pytest.fixture(scope="session")
def corpus_index(corpus) -> CorpusIndex:
    return CorpusIndex.from_releases(corpus, FOLD)


@pytest.fixture()
def make_release():
    """Factory for minimal releases in synthetic-corpus tests."""

    def _make(rid: str, when: str = "2016-01-01", press_type: str | None = "research",
              keywords=(), region: str = "North America", institution: str = "",
              journal=(), dois=(), url: str | None = None, anomaly: bool = False):
        md = MetadataRecord(
            keywords=list(keywords),
            description="",
            date=date.fromisoformat(when),
            funder="",
            journal=list(journal),
            type=PressType(press_type) if press_type else None,
            institution=institution,
            meeting="",
            region=Region(region),
        )
        return PressRelease(
            id=rid,
            canonical_url=url or f"https://{FOLD}{when[:4]}/{rid}.html",
            metadata=md,
            dois=[DoiRef(d, d, Repair.NONE) for d in dois],
            date_anomaly=anomaly,
        )

    return _make


@pytest.fixture()
def make_mention():
    from pressmetrics.mention_ingest import MatchKind, MatchResult, TweetMention

    def _make(tweet_id: str, when: str, release_ids=()):
        return TweetMention(
            tweet_id=tweet_id,
            created_at=datetime.fromisoformat(when).replace(tzinfo=timezone.utc),
            author_id="a",
            matches=[MatchResult(MatchKind.MATCHED, f"https://{FOLD}{rid}.html", rid)
                     for rid in release_ids],
        )

    return _make


class _QuietHandler(SimpleHTTPRequestHandler):
    def log_message(self, *args):
        pass


@contextmanager
def _serving(handler):
    """A local HTTP server for ``handler`` on a free port; yields its host:port."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture()
def site_server():
    """Local HTTP server for the bundled site; yields its host:port."""
    with _serving(partial(_QuietHandler, directory=str(FIXTURES / "site" / "www.eksci.test"))) as host:
        yield host


@dataclass
class ScriptedSite:
    """What a scripted server answers and what it was asked. ``pages`` maps a
    request path to its ``(status, headers, body)``; any other path is a 404
    with no body. ``received`` lists each request's path and headers in the
    order they arrived."""

    host: str = ""
    pages: dict[str, tuple[int, dict[str, str], bytes]] = field(default_factory=dict)
    received: list[tuple[str, Message]] = field(default_factory=list)


@pytest.fixture()
def scripted_server():
    """Local HTTP server that answers from a script; yields its ScriptedSite."""
    site = ScriptedSite()

    class _Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            site.received.append((self.path, self.headers))
            status, headers, body = site.pages.get(self.path, (404, {}, b""))
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    with _serving(_Handler) as host:
        site.host = host
        yield site
