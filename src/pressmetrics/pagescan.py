"""Single-pass HTML scan used by page classification, link discovery, and
metadata extraction.

One regular-expression tokenizer walks the decoded payload once. It keeps
the recovery rules of a tolerant HTML tokenizer, so malformed markup
degrades to "whatever was recoverable" instead of raising:

- a start tag is markup only when it closes with ``>`` or ``/>``; one cut off
  by a stray character is text, and one left open (at end of input, or
  before a letter, ``=`` or ``/``) is text up to the next ``>``, or else up
  to the next ``<``, or else is just the ``<``;
- a ``<`` that opens no construct is text, and so are comments,
  processing instructions and declarations left open;
- ``<script>`` and ``<style>`` bodies are raw text up to their end tag,
  and an unclosed one swallows the rest of the payload;
- a marked section (``<![``) with an unknown keyword ends the scan.

Attributes are parsed only on the tags whose fields a PageScan keeps, and
character references are expanded only where a ``&`` occurs. They are parsed
once per distinct start-tag text, in a bounded memo, as a site's navigation
repeats on every page; that text is the key, because the parse never reads
past the tag's closing ``>``.
tests/scan_oracle.py holds the reference scanner this is checked against.

Each stage scans a page body once and hands the resulting PageScan to every
consumer: the crawl to classification and frontier expansion, the parse to
metadata and DOI extraction."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from html import unescape
from types import MappingProxyType

_XML_ROOT = re.compile(rb"<\?xml[^>]*\?>\s*(?:<!--.*?-->\s*)*<\s*([A-Za-z:_][\w:.-]*)", re.S)

# One token per "<", so the text between two tokens is one data chunk. At
# each "<" the alternatives are tried in order: a start tag ("close" is None
# when a stray character cuts it off), an end tag, a construct that yields
# nothing (comment, declaration, processing instruction, closed marked
# section), a marked section with an unknown keyword, and text (a construct
# left open, or a lone "<"). The start-tag body and the unknown keyword are
# atomic, so that a tag left open is never re-read as a shorter, cut-off one
# and a keyword is never cut short: each is matched in a lookahead, which
# never backtracks once it has matched, and then consumed by backreference.
_TOKEN = re.compile(r"""<(?:
  (?P<start>(?=(?P<body>(?P<tag>[a-zA-Z][^\t\n\r\f />\x00]*)
      (?:[\s/]*(?:(?<=['"\s/])[^\s/>][^\s/=>]*
        (?:\s*=+\s*(?:'[^']*'|"[^"]*"|(?!['"])[^>\s]*)\s*)?(?:\s|/(?!>))*)*)?\s*))(?P=body)
    (?:(?P<close>/?>)|(?=[^a-zA-Z=/>])))
| (?P<end>/[^>]*>)
| (?P<skip>!--.*?--\s*>
    | !\[(?ai:temp|cdata|ignore|include|rcdata)(?![-_.a-zA-Z0-9]).*?\]\s*\]\s*>
    | !\[(?ai:if|else|endif)(?![-_.a-zA-Z0-9]).*?\]\s*>
    | !(?!--|\[)[^>]*>
    | \?[^>]*>)
| (?P<stop>!\[(?:(?![a-zA-Z])(?!\Z)
    | (?!(?ai:temp|cdata|ignore|include|rcdata|if|else|endif)(?![-_.a-zA-Z0-9]))
      (?=(?P<keyword>[a-zA-Z][-_.a-zA-Z0-9]*\s*))(?P=keyword)(?!\Z)))
| (?P<data>(?=[a-zA-Z/!?])(?:[^>]*>|[^<]*(?=<))|)
)""", re.S | re.X)
_TAG_NAME = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTRIBUTE = re.compile(
    r"""((?<=['"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*('[^']*'|"[^"]*"|(?!['"])[^>\s]*))?(?:\s|/(?!>))*""")
_END_TAG = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_RAW_TEXT_END = {name: re.compile(r"</\s*(?ai:%s)\s*>" % name) for name in ("script", "style")}
_TAGS_WITH_FIELDS = frozenset({"meta", "a", "form", "title", "script", "style"})


@dataclass
class PageScan:
    """Everything the toolkit ever needs from one HTML payload."""

    meta: dict[str, str] = field(default_factory=dict)
    anchors: list[str] = field(default_factory=list)
    title: str = ""
    has_form: bool = False
    text: str = ""
    xml_root: str | None = None
    empty: bool = False  # the payload was empty or whitespace-only


@lru_cache(maxsize=512)
def _attributes(tag: str) -> tuple[MappingProxyType[str, str | None], str]:
    """Attributes of the start tag text ``tag`` (the last of duplicate names
    winning, a valueless one None; read-only, as pages share it) and what is
    left of the tag after them: ">" or "/>" for a well-formed tag."""
    k = _TAG_NAME.match(tag, 1).end()
    attrs: dict[str, str | None] = {}
    while k < len(tag):
        m = _ATTRIBUTE.match(tag, k)
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
    return MappingProxyType(attrs), tag[k:].strip()


def scan_page(body: bytes) -> PageScan:
    """Scan a raw payload; bytes are decoded as UTF-8 with replacement."""
    if not body or not body.strip():
        return PageScan(empty=True)
    scan = PageScan()
    m = _XML_ROOT.match(body.lstrip())
    if m:
        scan.xml_root = m.group(1).decode("ascii", "replace").lower()
    text = body.decode("utf-8", "replace")
    meta, anchors = scan.meta, scan.anchors
    title_parts: list[str] = []
    text_parts: list[str] = []
    in_title = False

    def data(chunk: str, raw: bool = False) -> None:
        if not raw and "&" in chunk:
            chunk = unescape(chunk)
        if in_title:
            title_parts.append(chunk)
        if chunk.strip():
            text_parts.append(chunk)

    # finditer cannot skip the body of a raw-text element, so the walk
    # restarts past its end tag; None ends the walk
    pos: int | None = 0
    while pos is not None:
        resume = None
        for tok in _TOKEN.finditer(text, pos):
            start = tok.start()
            if start > pos:
                data(text[pos:start])
            pos = tok.end()
            kind = tok.lastgroup
            if kind == "start":
                if tok.group("close") is None:
                    data(text[start:pos], raw=True)
                    continue
                tag = tok.group("tag").lower()
                if tag not in _TAGS_WITH_FIELDS:
                    continue
                attrs, rest = _attributes(text[start:pos])
                if rest not in (">", "/>"):
                    data(text[start:pos], raw=True)
                    continue
                if tag == "a":
                    href = attrs.get("href")
                    if href is not None:
                        anchors.append(href)
                elif tag == "meta":
                    name = (attrs.get("name") or "").strip().lower()
                    if name and name not in meta:
                        meta[name] = (attrs.get("content") or "").strip()
                elif tag == "form":
                    scan.has_form = True
                elif tag == "title":
                    in_title = rest == ">"
                elif rest == ">":  # <script> or <style>: an unclosed one ends the walk
                    close = _RAW_TEXT_END[tag].search(text, pos)
                    resume = close.end() if close else None
                    break
            elif kind == "end":
                if in_title:
                    name = _END_TAG.match(text, start) or _TAG_NAME.match(text, start + 2)
                    if name and name.group(1).lower() == "title":
                        in_title = False
            elif kind == "data":
                data(tok.group())
            elif kind == "stop":
                break
        else:
            if pos < len(text):
                data(text[pos:])
        pos = resume
    scan.title = " ".join(" ".join(title_parts).split())
    scan.text = "\n".join(text_parts)
    return scan
