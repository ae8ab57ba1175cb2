"""Differential tests: every PageScan field of ``scan_page`` equals the
html.parser reference scan (tests/scan_oracle.py) on the fixture pages, on
benchmark-generated sites, and on markup drawn from a small grammar of the
constructs a tolerant tokenizer must recover from.

html.parser's recovery rules change between CPython patch releases, so the
comparisons with the oracle run only on the interpreter it was checked on
(``ORACLE_PYTHON``). The named edge cases carry the oracle's scans as
literals and run everywhere, as do the tests of the attribute memo, which
compare the parse of a tag's own text with the in-place parse it replaced."""

import importlib.util
import sys
from dataclasses import asdict
from html import unescape
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scan_oracle import ORACLE_PYTHON, oracle_scan

from pressmetrics.pagescan import (
    _ATTRIBUTE,
    _TAG_NAME,
    _TAGS_WITH_FIELDS,
    _TOKEN,
    PageScan,
    _attributes,
    scan_page,
)

FIXTURE_SITE = Path(__file__).parent / "fixtures" / "site"
BENCH_GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"

needs_oracle = pytest.mark.skipif(
    sys.version_info[:3] != ORACLE_PYTHON,
    reason="html.parser of this interpreter may recover differently from the oracle's")


def assert_same_scan(body: bytes):
    assert asdict(scan_page(body)) == asdict(oracle_scan(body)), body


def site_pages(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


@needs_oracle
def test_fixture_pages_match_oracle():
    pages = site_pages(FIXTURE_SITE)
    assert len(pages) > 50
    for page in pages:
        assert_same_scan(page.read_bytes())


@pytest.fixture(scope="module")
def site_generator():
    spec = importlib.util.spec_from_file_location("perfbench_gen", BENCH_GEN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@needs_oracle
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_site_pages_match_oracle(site_generator, tmp_path, seed):
    site_generator.generate("crawl-parse", seed, tmp_path)
    pages = site_pages(tmp_path / "site")
    assert len(pages) > 400
    for page in pages:
        assert_same_scan(page.read_bytes())


# (payload, the scan html.parser gave it); on the oracle's interpreter the
# last test below checks that these are its scans
EDGE_CASES = [
    (b"a < b", PageScan(text="a \n<\n b")),
    (b"x <", PageScan(text="x \n<")),
    (b"<a", PageScan(text="<\na")),
    (b"<a href=", PageScan(text="<\na href=")),
    (b"<a href='x", PageScan(text="<\na href='x")),
    (b'<a href="x>y">z', PageScan(anchors=["x>y"], text="z", is_html=True)),
    (b"<!-->x-->y", PageScan(text="y")),
    (b"<!-- x --!> y --> z", PageScan(text=" z")),
    (b"<!-- never closed > tail", PageScan(text="<!-- never closed >\n tail")),
    (b"</ >x", PageScan(text="x")),
    (b"</>x", PageScan(text="x")),
    (b"<!x>y", PageScan(text="y")),
    (b"<!doctype html>", PageScan()),
    (b"<?pi?>x", PageScan(text="x")),
    (b"<![CDATA[x]]>y", PageScan(text="y")),
    (b"<![if !IE]>x<![endif]>", PageScan(text="x")),
    (b"<![foo]>lost", PageScan()),
    (b"<![ lost", PageScan()),
    (b"<![", PageScan(text="<\n![")),
    (b"<title/>t", PageScan(text="t", is_html=True)),
    (b"<script/>x", PageScan(text="x", is_html=True)),
    (b"<style/>y", PageScan(text="y", is_html=True)),
    (b"<script>a</scriptx>b</script >c", PageScan(text="c", is_html=True)),
    (b"<style>x</STYLE>y", PageScan(text="y", is_html=True)),
    (b"<script>never closed", PageScan(is_html=True)),
    (b"<title>a<b>c</b>d</title>e", PageScan(title="a c d", text="a\nc\nd\ne", is_html=True)),
    (b"<TITLE>t</ title>", PageScan(title="t", text="t", is_html=True)),
    (b"<title>t</title foo>x", PageScan(title="t", text="t\nx", is_html=True)),
    (b"<a\x00b>c", PageScan(text="<a\n\x00b>c")),
    (b"<a href=x/>y", PageScan(anchors=["x/"], text="y", is_html=True)),
    (b"<script src=x/>z</script>w", PageScan(text="w", is_html=True)),
    (b"<a href>x</a>", PageScan(text="x", is_html=True)),
    (b"<a href=1 href=2>", PageScan(anchors=["2"], is_html=True)),
    (b"<meta name=A content=1><meta name=a content=2>",
     PageScan(meta={"a": "1"}, is_html=True)),
    (b"<a href='&amp;&lt;'>&amp;x&#65;&#x42;&ampy",
     PageScan(anchors=["&<"], text="&xAB&y", is_html=True)),
    (b"&am", PageScan(text="&am")),
    (b"x &", PageScan(text="x &")),
    (b"<!--x>&#6", PageScan(text="<!--x>")),
    ("<title>café \xa0 x</title>".encode(),
     PageScan(title="café x", text="café \xa0 x", is_html=True)),
    ("<script></ſcript>lost".encode(), PageScan(is_html=True)),
]


@pytest.mark.parametrize(("body", "expected"), EDGE_CASES)
def test_edge_cases_scan_as_recorded(body, expected):
    assert scan_page(body) == expected


@needs_oracle
@pytest.mark.parametrize(("body", "expected"), EDGE_CASES)
def test_recorded_edge_cases_are_oracle_scans(body, expected):
    assert oracle_scan(body) == expected


_NAMES = st.sampled_from(["a", "A", "meta", "Meta", "title", "TITLE", "form", "script", "Script",
                          "style", "div", "p", "br", "scriptx", "titles", "a\x00", "b"])
_ATTR_NAMES = st.sampled_from(["href", "HREF", "name", "content", "id", "x", "=x", '"q', "'"])
_VALUES = st.sampled_from(["v", "", "a>b", "&amp;", "&lt;x&gt;", "x/", "/", "a b", "doi.org/10.1/x",
                           "u&v", "'", '"', "&#65;", "é"])
_SPACE = st.sampled_from(["", " ", "  ", "\n", "\t", "\x0b", " ", "/", " / "])


@st.composite
def _attribute(draw):
    name, value = draw(_ATTR_NAMES), draw(_VALUES)
    form = draw(st.sampled_from(["bare", "eq", "dq", "sq", "spaced", "valueless"]))
    value_text = {"bare": f"={value}", "eq": f"={value}", "dq": f'="{value}"',
                  "sq": f"='{value}'", "spaced": f' = "{value}"', "valueless": ""}[form]
    return draw(st.sampled_from([" ", "  ", "\n", "/"])) + name + value_text


@st.composite
def _start_tag(draw):
    attrs = "".join(draw(st.lists(_attribute(), max_size=3)))
    end = draw(st.sampled_from([">", "/>", " />", " >", "", "\x00", "x>", "=>", "/"]))
    return "<" + draw(_NAMES) + attrs + draw(_SPACE) + end


@st.composite
def _end_tag(draw):
    return "</" + draw(_SPACE) + draw(_NAMES) + draw(_SPACE) + draw(st.sampled_from([">", "x>", ""]))


@st.composite
def _raw_text_element(draw):
    name = draw(st.sampled_from(["script", "style", "SCRIPT"]))
    body = draw(st.lists(st.sampled_from(
        ["x", "</scriptx>", "</stylex>", "</script >", "</style>", "</ script>", "<a href=y>",
         "</ſcript>", "<!--", "&amp;", " "]), max_size=4))
    close = draw(st.sampled_from([f"</{name}>", f"</{name.upper()} >", ""]))
    return f"<{name}>" + "".join(body) + close


_TEXT = st.sampled_from(["a", "b c", " ", "\n", "&amp;", "&lt;", "&#65;", "&#x41", "&ampx", "&",
                         "x&y;", "<", " < ", ">", "=", '"', "'", "/", "ſ", "İ",
                         " ", "doi.org/10.1000/x"])
_MARKUP = st.sampled_from(["<!--", "-->", "<!-->", "--!>", "<!---->", "<!-- c -->", "--",
                           "<!x>", "<!doctype html>", "<!DOCTYPE", "<![CDATA[x]]>", "<![if x]>",
                           "<![endif]>", "<![foo]>", "<![ ", "<![", "<?pi?>", "<?x", "</>",
                           "</ >", "</", "<", "<<", "<1", "<title/>", "<script/>", "<style/>"])
_FRAGMENT = st.one_of(_TEXT, _MARKUP, _start_tag(), _end_tag(), _raw_text_element())


@needs_oracle
@settings(max_examples=300, deadline=None)
@given(st.lists(_FRAGMENT, max_size=12), st.integers(min_value=0, max_value=200))
def test_grammar_markup_matches_oracle(fragments, cut):
    document = "".join(fragments)
    assert_same_scan(document.encode("utf-8"))
    assert_same_scan(document[:cut].encode("utf-8"))  # truncated at EOF


_SOUP = st.text(alphabet="<>/!-?[]ab =\"'&;#x\n\x00", max_size=60)


@needs_oracle
@settings(max_examples=500, deadline=None)
@given(_SOUP)
def test_character_soup_matches_oracle(document):
    assert_same_scan(document.encode("utf-8"))


def positional_attributes(text: str, start: int, end: int) -> tuple[dict, str]:
    """The attribute parse of the start tag text[start:end] read in place, against
    the whole document: the reference the memoised parse of the tag text alone
    must equal."""
    k = _TAG_NAME.match(text, start + 1).end()
    attrs: dict = {}
    while k < end:
        m = _ATTRIBUTE.match(text, k)
        if not m:
            break
        name, rest, value = m.group(1, 2, 3)
        if not rest:
            value = None
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        if value and "&" in value:
            value = unescape(value)
        attrs[name.lower()] = value
        k = m.end()
    return attrs, text[k:end].strip()


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(_FRAGMENT, max_size=12).map("".join), _SOUP))
def test_tag_text_parse_equals_positional_parse(document):
    """Every closed start tag whose fields a scan keeps, wherever the walk may
    meet it, parses the same from its own text as in place: so the tag text
    is a sound memo key."""
    for start in (i for i, char in enumerate(document) if char == "<"):
        tok = _TOKEN.match(document, start)
        if (tok.lastgroup == "start" and tok.group("close") is not None
                and tok.group("tag").lower() in _TAGS_WITH_FIELDS):
            attrs, rest = _attributes(document[start:tok.end()])
            assert (dict(attrs), rest) == positional_attributes(document, start, tok.end())


def test_memoised_attributes_are_read_only():
    attrs, rest = _attributes('<a href="x">')
    assert rest == ">"
    with pytest.raises(TypeError):
        attrs["href"] = "y"


def test_scans_do_not_depend_on_what_was_scanned_before(site_generator, tmp_path):
    """The memo holds only what the tag text determines: scanning two sites in
    one order and then, from an empty memo, in the reverse order gives the same
    scans, and a consumer that edits a scan's fields changes no later scan."""
    site_generator.generate("crawl-parse", 1, tmp_path)
    bodies = [p.read_bytes() for p in site_pages(FIXTURE_SITE) + site_pages(tmp_path / "site")]
    forward = [asdict(scan_page(body)) for body in bodies]
    _attributes.cache_clear()
    backward = [asdict(scan_page(body)) for body in reversed(bodies)]
    assert backward[::-1] == forward

    i = next(i for i, scan in enumerate(forward) if scan["meta"] and scan["anchors"])
    scan = scan_page(bodies[i])
    scan.meta.update(dict.fromkeys(scan.meta, "edited"), extra="x")
    scan.anchors[:] = ["edited"]
    assert asdict(scan_page(bodies[i])) == forward[i]
