"""Reference HTML scan: the stdlib html.parser scanner that ``scan_page``
replaced, kept as the oracle the differential tests compare it against.

``oracle_scan`` returns the PageScan the html.parser-based ``scan_page``
produced: every field of ``pagescan.scan_page`` must equal it on every
payload. Its behaviour is that of the html.parser shipped with the Python
running the tests, and ``scan_page`` reproduces the html.parser of
``ORACLE_PYTHON``.
"""

from __future__ import annotations

from html.parser import HTMLParser

from pressmetrics.pagescan import _XML_ROOT, PageScan

ORACLE_PYTHON = (3, 11, 7)
_SKIP_TEXT_TAGS = {"script", "style"}


class _Scanner(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.meta: dict[str, str] = {}
        self.anchors: list[str] = []
        self.title_parts: list[str] = []
        self.has_form = False
        self.text_parts: list[str] = []
        self._in_title = False
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
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


def oracle_scan(body: bytes) -> PageScan:
    """Scan a raw payload with html.parser; bytes are decoded as UTF-8 with
    replacement."""
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
    return scan
