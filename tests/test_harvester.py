import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import urljoin

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from pressmetrics import __version__
from pressmetrics.harvester import (
    GRANT_WINDOW,
    CrawlScope,
    DirectoryFetcher,
    FetchRetryError,
    HttpFetcher,
    PageClass,
    RateLimiter,
    ScopeViolation,
    SystemClock,
    VirtualClock,
    _canonical_join,
    _join,
    classify_page,
    crawl,
    expand_frontier,
    fetch_page,
)
from pressmetrics.pagescan import scan_page
from pressmetrics.urls import canonicalize_url

# sha256 of the 12-byte payload b"hello world\n", computed with a standalone
# script before the build
HELLO_DIGEST = "a948904f2f0f479b8f8197694b30184b0d2ed1c1cd2a1ec0fb85d299a192a447"


def test_scope_validation():
    with pytest.raises(ValueError):
        CrawlScope(" ")
    for rate_limit in (-1, float("nan"), float("inf")):  # NaN or inf would spin the limiter
        with pytest.raises(ValueError, match="rate_limit must be a finite number >= 0"):
            CrawlScope("h.test/x/", rate_limit=rate_limit)
        with pytest.raises(ValueError, match="rate_limit must be a finite number >= 0"):
            RateLimiter(rate_limit, VirtualClock())
    scope = CrawlScope("H.Test/x/")
    assert scope.seed_url == "https://h.test/x/"


@pytest.mark.parametrize("seed_path", ["www.eksci.test/releases", "www.eksci.test/releases/"])
@pytest.mark.parametrize("url", ["https://www.eksci.test/releases-archive/x.html",
                                 "https://www.eksci.test/releasesX"])
def test_scope_ends_at_a_segment_boundary(seed_path, url):
    """A fold is a directory: one spelt without its trailing slash holds no sibling path."""
    scope = CrawlScope(seed_path)
    assert scope.seed_path == "www.eksci.test/releases/"
    assert scope.contains("https://www.eksci.test/releases/2016/x.html")
    assert not scope.contains(url)


@pytest.mark.parametrize("url", ["ftp://h.test/x/a.html", "mailto:press@h.test",
                                 "h.test/x/a.html", "http://h.test/x/a.html"])
def test_scope_holds_only_canonical_urls(url):
    scope = CrawlScope("h.test/x/")
    assert scope.contains("https://h.test/x/a.html")
    assert not scope.contains(url)


def test_rate_limit_spacing_one_second():
    clock = VirtualClock()
    limiter = RateLimiter(1.0, clock)
    scope = CrawlScope("files.test/", rate_limit=1.0)
    fetcher = _StaticFetcher({"https://files.test/a": b"a", "https://files.test/b": b"b"})
    fetch_page("https://files.test/a", scope, fetcher, limiter)
    fetch_page("https://files.test/b", scope, fetcher, limiter)
    assert all(gap >= 1.0 for gap in limiter.spacings("files.test"))


def test_rate_limit_zero_means_no_delay():
    clock = VirtualClock()
    limiter = RateLimiter(0.0, clock)
    scope = CrawlScope("files.test/", rate_limit=0.0)
    fetcher = _StaticFetcher({"https://files.test/a": b"a", "https://files.test/b": b"b"})
    fetch_page("https://files.test/a", scope, fetcher, limiter)
    fetch_page("https://files.test/b", scope, fetcher, limiter)
    assert clock.monotonic() == 0.0


def test_rate_limiter_thread_safe_spacing():
    limiter = RateLimiter(0.01, clock=SystemClock())

    def worker():
        for _ in range(5):
            limiter.acquire("h.test")

    threads = [threading.Thread(target=worker) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    gaps = limiter.spacings("h.test")
    assert len(gaps) == 14
    assert all(gap >= 0.01 - 1e-9 for gap in gaps)


class _UnboundedLimiter:
    """The limiter's rule with every grant kept: the next grant for a host
    is its last grant plus the rate limit."""

    def __init__(self, rate_limit, clock):
        self.rate_limit, self.clock = rate_limit, clock
        self.grants: dict[str, list[float]] = {}

    def acquire(self, host):
        grants = self.grants.setdefault(host, [])
        now = self.clock.monotonic()
        if grants and (grants[-1] + self.rate_limit) - now > 0:
            self.clock.sleep((grants[-1] + self.rate_limit) - now)
            now = self.clock.monotonic()
        grants.append(now)
        return now


def test_rate_limiter_keeps_a_window_of_grants_and_grants_as_if_unbounded():
    assert GRANT_WINDOW >= 15  # test_rate_limiter_thread_safe_spacing reads 14 gaps
    k = 7
    bounded, unbounded = RateLimiter(0.7, VirtualClock()), _UnboundedLimiter(0.7, VirtualClock())
    times: dict = {bounded: [], unbounded: []}
    for i in range(GRANT_WINDOW + k):
        for limiter in (bounded, unbounded):
            limiter.clock.sleep(0.3 * (i % 4))  # work between fetches
            times[limiter].append(limiter.acquire("a.test"))
            if i % 5 == 0:
                times[limiter].append(limiter.acquire("b.test"))
    assert times[bounded] == times[unbounded]
    gaps = {host: [b - a for a, b in zip(ts, ts[1:])] for host, ts in unbounded.grants.items()}
    assert len(gaps["a.test"]) == GRANT_WINDOW + k - 1
    assert bounded.spacings("a.test") == gaps["a.test"][-(GRANT_WINDOW - 1):]
    assert all(gap >= 0.7 - 1e-9 for gap in bounded.spacings("a.test"))
    assert bounded.spacings("b.test") == gaps["b.test"]


class _StaticFetcher:
    def __init__(self, pages: dict[str, bytes]):
        self.pages = pages

    def fetch(self, url):
        if url in self.pages:
            return 200, self.pages[url]
        return 404, b""


class _FlakyFetcher:
    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    def fetch(self, url):
        self.calls += 1
        if self.calls <= self.failures:
            raise ConnectionError("transient")
        return 200, b"ok"


def test_fetch_digest_matches_precomputed_hash(tmp_path):
    blob = tmp_path / "files.test" / "blob.bin"
    blob.parent.mkdir()
    blob.write_bytes(b"hello world\n")
    scope = CrawlScope("files.test/", rate_limit=0.0)
    record = fetch_page("https://files.test/blob.bin", scope, DirectoryFetcher(tmp_path),
                        RateLimiter(0.0, VirtualClock()))
    assert record.status == 200
    assert record.body_digest == HELLO_DIGEST
    assert record.fetched_at is not None


def test_fetch_out_of_scope():
    scope = CrawlScope("files.test/sub/", rate_limit=0.0)
    with pytest.raises(ScopeViolation):
        fetch_page("https://files.test/other/x", scope, _StaticFetcher({}),
                   RateLimiter(0.0, VirtualClock()))


def test_fetch_retries_with_doubling_backoff():
    clock = VirtualClock()
    scope = CrawlScope("files.test/", rate_limit=1.0)
    limiter = RateLimiter(1.0, clock)
    fetcher = _FlakyFetcher(failures=2)
    record = fetch_page("https://files.test/a", scope, fetcher, limiter)
    assert record.status == 200 and fetcher.calls == 3
    assert all(gap >= 1.0 for gap in limiter.spacings("files.test"))

    fetcher = _FlakyFetcher(failures=99)
    with pytest.raises(FetchRetryError) as err:
        fetch_page("https://files.test/b", scope, fetcher, limiter)
    assert err.value.attempts == 3


def test_fetch_uses_the_limiter_clock():
    """Backoff sleeps and the fetch timestamp come from the limiter's clock:
    grant at 0, back off 1, grant at 1, back off 2, grant at 3."""
    clock = VirtualClock()
    fetcher = _FlakyFetcher(failures=2)
    record = fetch_page("https://files.test/a", CrawlScope("files.test/"), fetcher,
                        RateLimiter(1.0, clock))
    assert fetcher.calls == 3
    assert clock.monotonic() == 3.0
    assert record.fetched_at == clock.utcnow()


def test_non_success_status_recorded_not_raised():
    scope = CrawlScope("files.test/", rate_limit=0.0)
    record = fetch_page("https://files.test/missing", scope, _StaticFetcher({}),
                        RateLimiter(0.0, VirtualClock()))
    assert record.status == 404 and record.body == b""


def test_expand_frontier_scope_seen_and_dedup():
    scope = CrawlScope("h.test/fold/", rate_limit=0.0)
    body = b"""<html><body>
    <a href="/fold/a.html">a</a>
    <a href="/fold/b.html">b</a>
    <a href="/fold/c.html">c</a>
    <a href="https://other.test/x">off</a>
    <a href="/elsewhere/y">off</a>
    </body></html>"""
    seen = {"https://h.test/fold/c.html"}
    stats = Counter()
    out = expand_frontier("https://h.test/fold/", scan_page(body), scope, seen, stats)
    assert out == ["https://h.test/fold/a.html", "https://h.test/fold/b.html"]
    assert stats["offscope_links"] == 2


def test_expand_frontier_no_anchors_and_duplicates():
    scope = CrawlScope("h.test/fold/", rate_limit=0.0)
    assert expand_frontier("https://h.test/fold/", scan_page(b"<html><p>none</p></html>"),
                           scope, set(), Counter()) == []
    assert expand_frontier("https://h.test/fold/", scan_page(b"not html at all"), scope, set(),
                           Counter()) == []
    twice = b'<html><a href="a.html">1</a><a href="a.html">2</a></html>'
    assert expand_frontier("https://h.test/fold/", scan_page(twice), scope, set(), Counter()) == [
        "https://h.test/fold/a.html"]


def test_expand_frontier_counts_malformed():
    scope = CrawlScope("h.test/fold/", rate_limit=0.0)
    body = b'<html><a href="mailto:x@y.z">m</a><a href="a.html">ok</a></html>'
    stats = Counter()
    out = expand_frontier("https://h.test/fold/", scan_page(body), scope, set(), stats)
    assert out == ["https://h.test/fold/a.html"]
    assert stats["malformed_links"] == 1


_PAGES = st.sampled_from(["https://h.test/", "https://h.test/fold/", "https://h.test/fold/a.html",
                         "https://h.test/fold/b.html", "https://h.test/fold/sub/c.html",
                         "https://h.test/fold/d;p", "https://h.test:8080/fold/a.html"])
_HREFS = st.one_of(
    st.sampled_from(["", "?q", "#f", "//h/x", "//other.test/y", "mailto:x", "a?u=http://x", "../x",
                     "%7e", "%7Euser/", "https:foo", "http:foo", "HTTPS://H.test/x", "///x", "//",
                     "//?q", "https:", "https:?q", "javascript:void(0)", "/abs", "./a", "a/../../b",
                     "http://[x", "x\ty", "/\t/evil.test/", "\x01?q", "https\t:", ";p", ";", ";?q",
                     "a:b"]),
    st.text(alphabet="ab/?#:.%7eE;\t\n\x01[]", max_size=10))


@given(st.lists(st.tuples(_PAGES, _HREFS, st.sampled_from(["", " ", "\n", " \t"]),
                          st.sampled_from(["", " ", "\n"])), max_size=25))
def test_memoised_join_equals_direct_join(visits):
    _join.cache_clear()
    for page_url, href, before, after in visits:
        href = (before + href + after).strip()
        try:
            expected = canonicalize_url(urljoin(page_url, href))
        except ValueError:
            expected = None
        assert _canonical_join(page_url, href) == expected, (page_url, href)


@pytest.mark.parametrize("page_url", ["https://h.test/fold/a.html", "https://h.test/fold/d;p"])
@pytest.mark.parametrize("href", [";", ";?q", ";#f", ";?", ";p", ";;"])
def test_semicolon_href_joins_like_urljoin(page_url, href):
    """A lone ";" is an empty path with empty parameters, so urljoin keeps
    the page's own path rather than its directory."""
    _join.cache_clear()
    assert _canonical_join(page_url, href) == canonicalize_url(urljoin(page_url, href))


@pytest.mark.parametrize("seed_path", ["www.eksci.test:443/releases/", "www.eksci.test/releases",
                                       "www.eksci.test/releases/%7Eold/../"])
def test_equivalent_fold_spellings_crawl_the_same_site(seed_path, fixtures_dir, crawl_result):
    scope = CrawlScope(seed_path, rate_limit=0.0)
    assert scope.seed_path == "www.eksci.test/releases/"
    again = list(crawl(scope, DirectoryFetcher(fixtures_dir / "site"),
                       RateLimiter(0.0, VirtualClock()), Counter()))
    assert [(r.url, c) for r, c in again] == [(r.url, c) for r, c in crawl_result]


def test_classify_press_release_page(corpus, crawl_result, truth):
    by_path = {page["path"]: page["class"] for page in truth["pages"]}
    for record, page_class in crawl_result:
        path = record.url.split("www.eksci.test/", 1)[1]
        if path.endswith("/"):
            path += "index.html"
        assert page_class.value == by_path[path], record.url


@pytest.mark.parametrize("body,reason", [
    (b"", PageClass.EMPTY),
    (b"   \n ", PageClass.EMPTY),
    (b'<?xml version="1.0"?><urlset><url><loc>x</loc></url></urlset>', PageClass.SITEMAP),
    (b"<html><head><title>404 Not Found</title></head><body>gone</body></html>",
     PageClass.SERVER_MESSAGE),
    (b'<html><body><form action="/s"><input name="q"></form></body></html>',
     PageClass.FORM),
    (b"just some plain text", PageClass.OTHER),
    (b"<!-- only a comment -->", PageClass.OTHER),
])
def test_classify_non_content(body, reason):
    page_class = classify_page(scan_page(body))
    assert not page_class.press_release
    assert page_class is reason


def test_classify_requires_date_and_type():
    no_type = b'<html><head><meta name="date" content="2020-01-01"></head></html>'
    assert not classify_page(scan_page(no_type)).press_release
    both = (b'<html><head><meta name="date" content="2020-01-01">'
            b'<meta name="type" content="Research"></head></html>')
    assert classify_page(scan_page(both)).press_release


class _StatusFetcher:
    def __init__(self, pages: dict[str, tuple[int, bytes]]):
        self.pages = pages

    def fetch(self, url):
        return self.pages.get(url, (404, b""))


def test_crawl_non_success_page_is_never_press_release():
    press_body = (b'<html><head><meta name="date" content="2020-01-01">'
                  b'<meta name="type" content="Research"></head><body>moved</body></html>')
    fetcher = _StatusFetcher({
        "https://h.test/fold/": (200, b'<html><a href="gone.html">1</a>'
                                      b'<a href="down.html">2</a><a href="dead.html">3</a></html>'),
        "https://h.test/fold/gone.html": (404, press_body),
        "https://h.test/fold/down.html": (503, press_body),
    })
    stats = Counter()
    result = list(crawl(CrawlScope("h.test/fold/", rate_limit=0.0), fetcher,
                        RateLimiter(0.0, VirtualClock()), stats))
    labels = {record.url: page_class.value for record, page_class in result}
    assert labels == {
        "https://h.test/fold/": "other",
        "https://h.test/fold/gone.html": "server_message",
        "https://h.test/fold/down.html": "server_message",
        "https://h.test/fold/dead.html": "empty",
    }
    assert stats["press_releases"] == 0


def test_crawl_counts_failed_fetches():
    class _DownFetcher(_StatusFetcher):
        def fetch(self, url):
            if url.endswith("down.html"):
                raise ConnectionError("unreachable")
            return super().fetch(url)

    fetcher = _DownFetcher({
        "https://h.test/fold/": (200, b'<html><a href="down.html">1</a><a href="up.html">2</a></html>'),
        "https://h.test/fold/up.html": (200, b"<html>up</html>"),
    })
    stats = Counter()
    result = list(crawl(CrawlScope("h.test/fold/", rate_limit=0.0), fetcher,
                        RateLimiter(0.0, VirtualClock()), stats))
    assert [record.url for record, _ in result] == ["https://h.test/fold/",
                                                    "https://h.test/fold/up.html"]
    assert stats["failed"] == 1 and stats["fetched"] == 2


def test_crawl_dot_segments_stay_inside_the_fold(tmp_path):
    releases = tmp_path / "site" / "h.test" / "releases"
    releases.mkdir(parents=True)
    (releases / "index.html").write_text(
        '<html><a href="https://h.test/releases/../other.html">1</a>'
        '<a href="https://h.test/releases/../../../secret.txt">2</a></html>')
    (tmp_path / "site" / "h.test" / "other.html").write_text("<html>other</html>")
    (tmp_path / "secret.txt").write_text("secret")
    stats = Counter()
    result = list(crawl(CrawlScope("h.test/releases/", rate_limit=0.0),
                        DirectoryFetcher(tmp_path / "site"),
                        RateLimiter(0.0, VirtualClock()), stats))
    assert [record.url for record, _ in result] == ["https://h.test/releases/"]
    assert stats["offscope_links"] == 2


def test_crawl_visits_each_url_once_and_stays_in_scope(crawl_result, fixture_scope):
    urls = [record.url for record, _ in crawl_result]
    assert len(urls) == len(set(urls))
    assert all(fixture_scope.contains(url) for url in urls)


def test_crawl_classification_partition(crawl_result, truth):
    got = Counter(page_class.value for _, page_class in crawl_result)
    assert dict(got) == oracle.page_class_counts(truth)
    press = got["press_release"]
    assert press + (len(crawl_result) - press) == len(crawl_result)
    assert press == 50


def test_crawl_deterministic(fixture_scope, fixtures_dir, crawl_result):
    stats = Counter()
    again = list(crawl(fixture_scope, DirectoryFetcher(fixtures_dir / "site"),
                       RateLimiter(0.0, VirtualClock()), stats))
    assert [r.url for r, _ in again] == [r.url for r, _ in crawl_result]
    assert (stats["failed"], stats["fetched"], stats["press_releases"]) == (0, len(again), 50)


def test_crawl_over_http_server(site_server):
    """Same site served over a real socket; identical URL set, politely spaced."""
    scope = CrawlScope(f"{site_server}/releases/", rate_limit=0.02)
    limiter = RateLimiter(scope.rate_limit)
    fetcher = HttpFetcher(force_scheme="http")
    try:
        result = list(crawl(scope, fetcher, limiter=limiter, stats=Counter()))
    finally:
        fetcher.close()
    press = sum(1 for _, c in result if c.press_release)
    assert press == 50
    assert len(result) == 62
    assert all(gap >= 0.02 - 1e-9 for gap in limiter.spacings(site_server))


def test_http_fetcher_sends_user_agent():
    agents = []

    class _Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            agents.append(self.headers.get("User-Agent"))
            self.send_response(200)
            self.send_header("Content-Length", "2")
            self.end_headers()
            self.wfile.write(b"ok")

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    fetcher = HttpFetcher(force_scheme="http")
    try:
        status, body = fetcher.fetch(f"https://127.0.0.1:{server.server_address[1]}/x")
    finally:
        fetcher.close()
        server.shutdown()
        server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert (status, body) == (200, b"ok")
    assert agents == [f"pressmetrics/{__version__}"]
