"""URL canonicalization shared by every stage.

One press release has one identity: scheme is folded to https, the host is
lowercased, the scheme's default port is dropped, and query strings and
fragments are dropped. In the path, escaped unreserved characters are
decoded, the hex digits of other escapes are uppercased, duplicate slashes
collapse, and "." and ".." segments are removed.
All cross-stage joins (crawl manifest, corpus index, tweet matching,
backlink merging) happen on these canonical forms.
"""

from __future__ import annotations

import posixpath
import re
from urllib.parse import urlsplit, urlunsplit

_DUP_SLASH = re.compile(r"/{2,}")
_DEFAULT_PORTS = {"http": 80, "https": 443}
# "h.test:443/a": urlsplit would read the host as the scheme
_SCHEMELESS_WITH_PORT = re.compile(r"[\w-]+(\.[\w-]+)+:\d+(/|$)")
_ESCAPE = re.compile(r"%([0-9A-Fa-f]{2})")


def _normalize_escape(match: re.Match) -> str:
    char = chr(int(match.group(1), 16))
    unreserved = char.isascii() and (char.isalnum() or char in "-._~")
    return char if unreserved else match.group(0).upper()


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 section 5.2.4 on an absolute path: "/a/./b" -> "/a/b",
    "/a/b/.." -> "/a/", "/../x" -> "/x"."""
    kept: list[str] = []
    for segment in path.split("/")[1:]:
        if segment == "..":
            del kept[-1:]
        elif segment != ".":
            kept.append(segment)
    if path.endswith(("/.", "/..")):  # a final dot segment names a directory
        kept.append("")
    return "/" + "/".join(kept)


def canonicalize_url(url: str) -> str:
    """Return the canonical form of ``url``.

    http and https variants of one URL, with or without the scheme's default
    port (RFC 3986 section 6.2.3), canonicalize identically, as do paths that
    differ only in percent-encoding (6.2.2) or dot segments (5.2.4); escapes
    are normalized first, so "%2E%2E" is a dot segment too. Raises
    ValueError for non-http(s) schemes (mailto:, javascript:, ...) or
    host-less URLs.
    """
    url = url.strip()
    parts = urlsplit(url)
    if not parts.scheme or _SCHEMELESS_WITH_PORT.match(url):
        parts = urlsplit("https://" + url)
    scheme = parts.scheme.lower()
    if scheme not in ("http", "https"):
        raise ValueError(f"not an http(s) URL: {url!r}")
    try:
        host = (parts.hostname or "").lower()
        port = parts.port
    except ValueError:
        raise ValueError(f"unparseable host in URL: {url!r}") from None
    if not host:
        raise ValueError(f"URL has no host: {url!r}")
    if port is not None and port != _DEFAULT_PORTS[scheme]:
        host = f"{host}:{port}"
    path = _DUP_SLASH.sub("/", _ESCAPE.sub(_normalize_escape, parts.path)) or "/"
    if "/." in path:
        path = _remove_dot_segments(path)
    return urlunsplit(("https", host, path, "", ""))


def url_host(canonical_url: str) -> str:
    return urlsplit(canonical_url).netloc


def url_path(canonical_url: str) -> str:
    return urlsplit(canonical_url).path


def normalize_fold(seed_path: str) -> str:
    """The host+path prefix ("host.example/releases/") that canonical URLs
    inside a seed path start with, after their "https://"."""
    return canonicalize_url(seed_path)[len("https://"):]


def inside_fold(canonical: str, fold: str) -> bool:
    """Whether ``canonical`` lies in ``fold``; a URL that does not canonicalise never does."""
    return canonical.startswith("https://" + fold)


class CorpusIndex:
    """Canonical URL -> release id lookup plus the corpus fold boundary."""

    def __init__(self, url_to_id: dict[str, str], seed_path: str):
        self.url_to_id = url_to_id
        self.seed_path = normalize_fold(seed_path)  # normalized once, matched as is

    @classmethod
    def from_releases(cls, releases, seed_path: str) -> "CorpusIndex":
        return cls({r.canonical_url: r.id for r in releases}, seed_path)

    def get(self, canonical: str) -> str | None:
        return self.url_to_id.get(canonical)

    def in_fold(self, url: str) -> bool:
        return inside_fold(url, self.seed_path)


def release_id_from_url(canonical_url: str) -> str:
    """Terminal path segment without its file extension; the corpus join key."""
    tail = posixpath.basename(url_path(canonical_url).rstrip("/"))
    stem, _ = posixpath.splitext(tail)
    return stem or tail
