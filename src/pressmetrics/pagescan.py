"""Single-pass HTML scan used by page classification, link discovery, and
metadata extraction. Built on html.parser so malformed markup degrades to
"whatever was recoverable" instead of raising.

Each stage scans a page body once and hands the resulting PageScan to every
consumer: the crawl to classification and frontier expansion, the parse to
metadata and DOI extraction."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html.parser import HTMLParser

_XML_ROOT = re.compile(rb"<\?xml[^>]*\?>\s*(?:<!--.*?-->\s*)*<\s*([A-Za-z:_][\w:.-]*)", re.S)
_SKIP_TEXT_TAGS = {"script", "style"}


@dataclass
class PageScan:
    """Everything the toolkit ever needs from one HTML payload."""

    meta: dict[str, str] = field(default_factory=dict)
    anchors: list[str] = field(default_factory=list)
    title: str = ""
    has_form: bool = False
    text: str = ""
    xml_root: str | None = None
    is_html: bool = False
    empty: bool = False  # the payload was empty or whitespace-only


class _Scanner(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.meta: dict[str, str] = {}
        self.anchors: list[str] = []
        self.title_parts: list[str] = []
        self.has_form = False
        self.text_parts: list[str] = []
        self.saw_markup = False
        self._in_title = False
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        self.saw_markup = True
        attrd = dict(attrs)
        if tag == "meta":
            name = (attrd.get("name") or "").strip().lower()
            if name and name not in self.meta:
                self.meta[name] = (attrd.get("content") or "").strip()
        elif tag == "a":
            href = attrd.get("href")
            if href is not None:
                self.anchors.append(href)
        elif tag == "form":
            self.has_form = True
        elif tag == "title":
            self._in_title = True
        elif tag in _SKIP_TEXT_TAGS:
            self._skip_depth += 1

    def handle_endtag(self, tag):
        if tag == "title":
            self._in_title = False
        elif tag in _SKIP_TEXT_TAGS and self._skip_depth:
            self._skip_depth -= 1

    def handle_data(self, data):
        if self._skip_depth:
            return
        if self._in_title:
            self.title_parts.append(data)
        if data.strip():
            self.text_parts.append(data)


def scan_page(body: bytes) -> PageScan:
    """Scan a raw payload; bytes are decoded as UTF-8 with replacement."""
    if not body or not body.strip():
        return PageScan(empty=True)
    scan = PageScan()
    m = _XML_ROOT.match(body.lstrip())
    if m:
        scan.xml_root = m.group(1).decode("ascii", "replace").lower()
    parser = _Scanner()
    try:
        parser.feed(body.decode("utf-8", "replace"))
        parser.close()
    except Exception:
        pass  # keep whatever was recovered before the parser gave up
    scan.meta = parser.meta
    scan.anchors = parser.anchors
    scan.title = " ".join(" ".join(parser.title_parts).split())
    scan.has_form = parser.has_form
    scan.text = "\n".join(parser.text_parts)
    scan.is_html = parser.saw_markup
    return scan
