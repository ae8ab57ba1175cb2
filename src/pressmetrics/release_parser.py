"""Extract the nine curated metadata fields and every mentioned DOI from a
press-release page.

Metadata lives in the page's machine-readable meta block (one tag per
field). DOIs are collected from hyperlink targets and visible text, then
normalized and de-duplicated; malformed resolver URLs are repaired where a
deterministic fix exists, and systematic per-journal malformations are
fixed through a data-driven rewrite table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from functools import lru_cache
from pathlib import Path
from urllib.parse import unquote

from . import store
from .pagescan import PageScan, scan_page
from .urls import release_id_from_url

PLATFORM_LAUNCH_YEAR = 1996


class ParseError(Exception):
    """Structural parse failure; names the offending metadata field."""

    def __init__(self, field_name: str, detail: str = ""):
        super().__init__(f"bad or missing metadata field {field_name!r}" + (f": {detail}" if detail else ""))
        self.field_name = field_name


class PressType(str, Enum):
    RESEARCH = "research"
    BUSINESS = "business"
    GRANT = "grant"
    AWARD = "award"
    MEETING = "meeting"
    BOOK = "book"
    MEDIA = "media"
    PUBMEETING = "pubmeeting"
    DISSERTATION = "dissertation"
    EDITORIAL = "editorial"

    @classmethod
    def parse(cls, raw: str) -> "PressType":
        try:
            return cls(raw.strip().lower())
        except ValueError:
            raise ParseError("type", f"unknown press type {raw!r}") from None


class Region(str, Enum):
    NORTH_AMERICA = "North America"
    EUROPE = "Europe"
    ASIA = "Asia"
    OCEANIA = "Oceania"
    AFRICA = "Africa"
    SOUTH_AMERICA = "South America"
    UNKNOWN = "unknown"

    @classmethod
    def parse(cls, raw: str) -> "Region":
        folded = " ".join(raw.split()).lower()
        for member in cls:
            if member.value.lower() == folded:
                return member
        return cls.UNKNOWN


class Repair(str, Enum):
    """Which fix recovered a DOI, ranked least to most invasive."""

    NONE = "none"
    STRIPPED_WRAPPER = "stripped_wrapper"
    BROKEN_URL_FIXED = "broken_url_fixed"
    UNSHORTENED = "unshortened"


_REPAIR_SEVERITY = {r: i for i, r in enumerate(Repair)}


@dataclass(frozen=True)
class DoiRef:
    raw: str
    normalized: str
    repair: Repair = Repair.NONE


@dataclass
class MetadataRecord:
    """The nine curated fields of one press release."""

    keywords: list[str]
    description: str
    date: date
    funder: str
    journal: list[str]
    type: PressType | None
    institution: str
    meeting: str
    region: Region


@dataclass
class PressRelease:
    id: str
    canonical_url: str
    metadata: MetadataRecord
    dois: list[DoiRef] = field(default_factory=list)
    date_anomaly: bool = False


# ---------------------------------------------------------------------------
# Metadata extraction
# ---------------------------------------------------------------------------

def _split_list(raw: str, sep: str) -> list[str]:
    return [part.strip() for part in raw.split(sep) if part.strip()]


def extract_metadata(scan: PageScan) -> MetadataRecord:
    """Read the metadata block of a scanned press-release page.

    date and type are structural: their absence (or an unparseable value)
    raises ParseError. Optional fields (funder, journal, meeting) come back
    empty when absent; a missing or unrecognized region maps to unknown.
    """
    meta = scan.meta
    raw_date = meta.get("date", "")
    if not raw_date:
        raise ParseError("date")
    try:
        parsed_date = date.fromisoformat(raw_date)
    except ValueError:
        raise ParseError("date", f"not an ISO calendar date: {raw_date!r}") from None
    raw_type = meta.get("type", "")
    if not raw_type:
        raise ParseError("type")
    return MetadataRecord(
        keywords=[k.lower() for k in _split_list(meta.get("keywords", ""), ",")],
        description=meta.get("description", "").strip(),
        date=parsed_date,
        funder=meta.get("funder", "").strip(),
        journal=_split_list(meta.get("journal", ""), ";"),
        type=PressType.parse(raw_type),
        institution=" ".join(meta.get("institution", "").split()),
        meeting=meta.get("meeting", "").strip(),
        region=Region.parse(meta.get("region", "")),
    )


# ---------------------------------------------------------------------------
# DOI extraction
# ---------------------------------------------------------------------------

_DOI_CORE = re.compile(r"10\.\d{4,9}/[^\s\"'<>]+")
_DOI_SYNTAX = re.compile(r"^10\.\d{4,9}/\S+$")
_RESOLVER = re.compile(r"(?:https?://)?(?:dx\.)?doi\.org/+([^\s\"'<>]+)", re.IGNORECASE)
# resolver whose path lost its prefix/suffix delimiter: "doi.org/10.1234 rest"
_BROKEN_RESOLVER = re.compile(
    r"(?:https?://)?(?:dx\.)?doi\.org/+(10\.\d{4,9})[  ]+([^\s\"'<>]+)", re.IGNORECASE
)
# every _BROKEN_RESOLVER match contains a match of this, under the same flags;
# unlike that pattern it has a literal prefix, so a page without one costs a
# single fast scan
_RESOLVER_HOST = re.compile(r"doi\.org", re.IGNORECASE)
_TRAILING_JUNK = ".,;:!?\"'>]}"


def clean_doi(candidate: str) -> str | None:
    """Lowercase and strip wrapper punctuation; None when still not a DOI."""
    token = unquote(candidate.strip()).lower()
    if token.startswith("doi:"):
        token = token[4:].lstrip()
    stripped = True
    while token and stripped:
        stripped = False
        while token and token[-1] in _TRAILING_JUNK:
            token = token[:-1]
            stripped = True
        # a trailing ")" belongs to the DOI only when it closes an opener inside it
        while token.endswith(")") and token.count("(") < token.count(")"):
            token = token[:-1]
            stripped = True
    if _DOI_SYNTAX.match(token):
        return token
    return None


@lru_cache(maxsize=4096)
def _candidates_from_href(href: str) -> tuple[tuple[str, Repair], ...]:
    """DOI candidates in one link target; memoised, because the navigation
    links of a site repeat on every page."""
    found: list[tuple[str, Repair]] = []
    unquoted = unquote(href)
    broken = _BROKEN_RESOLVER.search(unquoted)
    if broken:
        found.append((broken.group(1) + "/" + broken.group(2), Repair.BROKEN_URL_FIXED))
    resolver = _RESOLVER.search(unquoted)
    if resolver and not broken:
        found.append((resolver.group(1), Repair.STRIPPED_WRAPPER))
    if not found:
        # publisher-style URL carrying the DOI in its path
        hit = _DOI_CORE.search(unquoted)
        if hit:
            found.append((hit.group(0), Repair.STRIPPED_WRAPPER))
    return tuple(found)


def _candidates_from_text(text: str) -> list[tuple[str, Repair]]:
    found: list[tuple[str, Repair]] = []
    broken = _BROKEN_RESOLVER.finditer(text) if _RESOLVER_HOST.search(text) else ()
    for m in broken:
        found.append((m.group(1) + "/" + m.group(2), Repair.BROKEN_URL_FIXED))
    for m in _DOI_CORE.finditer(text):
        token = m.group(0)
        cleaned = clean_doi(token)
        repair = Repair.NONE if cleaned == token.lower() else Repair.STRIPPED_WRAPPER
        found.append((token, repair))
    return found


def extract_dois(scan: PageScan, description: str = "", rewrites=(), unshorten=None,
                 stats: dict | None = None) -> list[DoiRef]:
    """All DOIs mentioned in a scanned page: hyperlink targets plus visible
    text.

    Duplicates collapse on the normalized value, keeping the least-repaired
    variant. ``rewrites`` is a sequence of (find, replace) regex pairs for
    systematic malformations; ``unshorten`` maps a short URL to its known
    expansion, or to None, so DOIs behind shorteners are still recovered.
    Unrepairable candidates are dropped and counted in ``stats``.
    """
    if stats is None:
        stats = {}
    candidates: list[tuple[str, Repair]] = []
    for href in scan.anchors:
        href = href.strip()
        expanded = unshorten(href) if unshorten else None
        if expanded is not None:
            candidates.extend((cand, Repair.UNSHORTENED) for cand, _ in _candidates_from_href(expanded))
            continue
        candidates.extend(_candidates_from_href(href))
    candidates.extend(_candidates_from_text(scan.text))
    if description:
        candidates.extend(_candidates_from_text(description))

    best: dict[str, DoiRef] = {}
    for raw, repair in candidates:
        fixed = raw
        for find, replace in rewrites:
            rewritten = re.sub(find, replace, fixed)
            if rewritten != fixed:
                fixed = rewritten
                repair = Repair.BROKEN_URL_FIXED if repair is Repair.NONE else repair
        normalized = clean_doi(fixed)
        if normalized is None:
            stats["dropped_doi_candidates"] = stats.get("dropped_doi_candidates", 0) + 1
            continue
        ref = DoiRef(raw=raw, normalized=normalized, repair=repair)
        kept = best.get(normalized)
        if kept is None or _REPAIR_SEVERITY[repair] < _REPAIR_SEVERITY[kept.repair]:
            best[normalized] = ref
    return list(best.values())


# ---------------------------------------------------------------------------
# Institution normalization
# ---------------------------------------------------------------------------

def fold_name(name: str) -> str:
    return " ".join(name.split()).lower()


def normalize_institution(name: str, alias_table: dict[str, str]) -> str:
    """Exact-match alias lookup after whitespace/case folding; unmatched
    names pass through folded."""
    folded = fold_name(name)
    return alias_table.get(folded, folded)


def load_alias_table(path: str | Path) -> dict[str, str]:
    """Load a variant->canonical CSV, keyed on the folded variant; canonicals
    self-map so direct uses of a canonical name merge with their aliases.
    Two canonicals for one folded variant, and chained aliases, are refused."""
    pairs = store.read_mapping(path, lambda row: (fold_name(row["variant"]),
                                                  row["canonical"].strip()))
    table = {variant: canonical for variant, canonical in pairs.items() if variant and canonical}
    for canonical in list(table.values()):
        folded = fold_name(canonical)
        existing = table.get(folded)
        if existing is not None and existing != canonical:
            raise ValueError(f"alias chain: {canonical!r} is itself an alias of {existing!r}")
        table[folded] = canonical
    return table


def load_rewrite_table(path: str | Path) -> list[tuple[str, str, str]]:
    """Rows of (journal_pattern, find, replace) for per-journal DOI fixes."""
    return store.read_csv(path, lambda row: (row["journal_pattern"], row["find"], row["replace"]))


def rewrites_for_journals(table, journals: list[str]) -> list[tuple[str, str]]:
    """Select rewrite rules whose journal pattern matches any named journal."""
    return [(find, replace) for journal_pattern, find, replace in table
            if any(re.search(journal_pattern, j, re.IGNORECASE) for j in journals)]


# ---------------------------------------------------------------------------
# Whole-release parsing and corpus serialization
# ---------------------------------------------------------------------------

def parse_release(canonical_url: str, body: bytes, rewrite_table=(), unshorten=None,
                  stats: dict | None = None) -> PressRelease:
    """Parse one press-release payload; the body is scanned once and the
    scan feeds both metadata and DOI extraction."""
    scan = scan_page(body)
    metadata = extract_metadata(scan)
    rewrites = rewrites_for_journals(rewrite_table, metadata.journal) if rewrite_table else ()
    dois = extract_dois(scan, metadata.description, rewrites=rewrites,
                        unshorten=unshorten, stats=stats)
    return PressRelease(
        id=release_id_from_url(canonical_url),
        canonical_url=canonical_url,
        metadata=metadata,
        dois=sorted(dois, key=lambda d: d.normalized),
        date_anomaly=metadata.date.year < PLATFORM_LAUNCH_YEAR,
    )


CORPUS_FIELDS = ("id", "canonical_url", "date", "date_anomaly", "type", "keywords",
                 "description", "funder", "journal", "institution", "meeting",
                 "region", "dois")


def release_to_dict(release: PressRelease) -> dict:
    md = release.metadata
    return {
        "id": release.id,
        "canonical_url": release.canonical_url,
        "date": md.date.isoformat(),
        "date_anomaly": release.date_anomaly,
        "type": md.type.value if md.type else None,
        "keywords": md.keywords,
        "description": md.description,
        "funder": md.funder,
        "journal": md.journal,
        "institution": md.institution,
        "meeting": md.meeting,
        "region": md.region.value,
        "dois": [{"raw": d.raw, "normalized": d.normalized, "repair": d.repair.value}
                 for d in release.dois],
    }


def release_from_dict(record: dict) -> PressRelease:
    md = MetadataRecord(
        keywords=list(record.get("keywords", [])),
        description=record.get("description", ""),
        date=date.fromisoformat(record["date"]),
        funder=record.get("funder", ""),
        journal=list(record.get("journal", [])),
        type=PressType(record["type"]) if record.get("type") else None,
        institution=record.get("institution", ""),
        meeting=record.get("meeting", ""),
        region=Region(record.get("region", "unknown")),
    )
    return PressRelease(
        id=record["id"],
        canonical_url=record["canonical_url"],
        metadata=md,
        dois=[DoiRef(d["raw"], d["normalized"], Repair(d["repair"]))
              for d in record.get("dois", [])],
        date_anomaly=bool(record.get("date_anomaly", False)),
    )
