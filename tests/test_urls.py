import pytest
from hypothesis import given
from hypothesis import strategies as st

from pressmetrics.urls import (
    CorpusIndex,
    canonicalize_url,
    release_id_from_url,
    url_host,
)


@pytest.mark.parametrize("raw,expected", [
    ("http://WWW.Eksci.TEST/releases/a.html", "https://www.eksci.test/releases/a.html"),
    ("https://www.eksci.test/releases/a.html?utm=1", "https://www.eksci.test/releases/a.html"),
    ("https://www.eksci.test/releases/a.html#top", "https://www.eksci.test/releases/a.html"),
    ("https://www.eksci.test//releases///a.html", "https://www.eksci.test/releases/a.html"),
    ("www.eksci.test/releases/", "https://www.eksci.test/releases/"),
    ("https://host.test", "https://host.test/"),
    ("http://h.test:80/a", "https://h.test/a"),
    ("https://h.test:443/a", "https://h.test/a"),
    ("http://h.test:8080/a", "https://h.test:8080/a"),
    ("https://h.test:80/a", "https://h.test:80/a"),
    ("http://h.test:443/a", "https://h.test:443/a"),
    ("h.test:443/a", "https://h.test/a"),
    ("www.x.test:8080/a", "https://www.x.test:8080/a"),
    ("https://h.test/a/./b", "https://h.test/a/b"),
    ("https://h.test/a/b/..", "https://h.test/a/"),
    ("https://h.test/../x", "https://h.test/x"),
    ("https://h.test/releases/../../../secret.txt", "https://h.test/secret.txt"),
    ("https://h.test/%7Euser/a.html", "https://h.test/~user/a.html"),
    ("https://h.test/%41%2d%5f%2E", "https://h.test/A-_."),
    ("https://h.test/a%2fb%3a%20c", "https://h.test/a%2Fb%3A%20c"),
    ("https://h.test/releases/%2E%2E/x", "https://h.test/x"),
])
def test_canonical_forms(raw, expected):
    assert canonicalize_url(raw) == expected


def test_http_and_https_share_identity():
    a = canonicalize_url("http://www.eksci.test/releases/x.html")
    b = canonicalize_url("https://www.eksci.test/releases/x.html")
    assert a == b


@pytest.mark.parametrize("bad", ["mailto:press@eksci.test", "javascript:void(0)", "https://",
                                 "tel:12345"])
def test_non_http_rejected(bad):
    with pytest.raises(ValueError):
        canonicalize_url(bad)


def test_fold_matching():
    url = canonicalize_url("http://WWW.EKSCI.TEST/releases/2016/x.html")
    index = CorpusIndex({}, "www.eksci.test/releases/")
    assert index.in_fold(url)
    assert CorpusIndex({}, "WWW.Eksci.Test/releases/").in_fold(url)
    assert CorpusIndex({}, "www.eksci.test:443/releases/").in_fold(url)
    assert CorpusIndex({}, "www.eksci.test/releases/%7Eold/../").in_fold(url)
    assert not index.in_fold(canonicalize_url("https://www.eksci.test/outside/x"))
    assert not index.in_fold(canonicalize_url("https://other.test/releases/x"))


def test_release_id():
    assert release_id_from_url("https://www.eksci.test/releases/2016/nfu-201601.html") == "nfu-201601"
    assert release_id_from_url("https://h.test/a/b/plain") == "plain"
    assert url_host("https://h.test:8080/a") == "h.test:8080"


@given(st.sampled_from(["http", "https"]),
       st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-", min_size=1, max_size=20).filter(
           lambda h: not h.startswith((".", "-"))),
       st.lists(st.one_of(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0-9_", min_size=1, max_size=8),
                          st.sampled_from([".", ".."])), max_size=4))
def test_canonicalization_idempotent(scheme, host, segments):
    url = f"{scheme}://{host}/" + "/".join(segments)
    canonical = canonicalize_url(url)
    assert canonicalize_url(canonical) == canonical


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-", min_size=1, max_size=20).filter(
           lambda h: not h.startswith((".", "-"))),
       st.lists(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0-9_", min_size=1, max_size=8), max_size=4))
def test_default_port_spellings_share_identity(host, segments):
    path = "/" + "/".join(segments)
    spellings = {canonicalize_url(f"http://{host}{path}"),
                 canonicalize_url(f"http://{host}:80{path}"),
                 canonicalize_url(f"https://{host}:443{path}")}
    if "." in host and all(host.split(".")):  # a dotless "host:443" is a scheme
        spellings.add(canonicalize_url(f"{host}:443{path}"))
    assert len(spellings) == 1


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-", min_size=1, max_size=20).filter(
           lambda h: not h.startswith((".", "-"))),
       st.lists(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0-9_~", min_size=1, max_size=8), max_size=4))
def test_tilde_spellings_share_identity(host, segments):
    path = "/" + "/".join(segments)
    spellings = {canonicalize_url(f"https://{host}{path.replace('~', escape)}")
                 for escape in ("~", "%7E", "%7e")}
    assert len(spellings) == 1
