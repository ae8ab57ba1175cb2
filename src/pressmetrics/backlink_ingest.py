"""Ingest per-target backlink aggregates reported by an external link
index. The index reports http and https variants of one URL separately, so
variants are merged onto the canonical URL: page and site counts add up,
flow scores (0-100 prestige scales) take the maximum observed.

A site count summed over several raw records (the protocol variants of one
URL) is an upper bound: referring domains may overlap between them, which
aggregates cannot reveal. Such aggregates carry websites_is_upper_bound so
reports can say so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from . import store
from .release_parser import iso_date
from .urls import CorpusIndex, canonicalize_url


class LinkValidationError(ValueError):
    """A raw link record with counts or flow metrics outside their domain."""


@dataclass(frozen=True)
class BacklinkAggregate:
    """A target's link metrics: one row as reported, or ``merged_from`` rows
    merged onto a canonical URL. The target is canonicalized; a target that
    does not canonicalize, or metrics outside their domain, raise LinkValidationError."""

    target: str
    mentioning_webpages: int
    mentioning_websites: int
    citation_flow: int
    trust_flow: int
    window_start: date | None = None
    window_end: date | None = None
    merged_from: int = 1  # raw records summed into this aggregate

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "target", canonicalize_url(self.target))
        except ValueError as err:
            raise LinkValidationError(f"target: {err}") from None
        for name in ("citation_flow", "trust_flow"):
            value = getattr(self, name)
            if not 0 <= value <= 100:
                raise LinkValidationError(f"{self.target}: {name}={value} outside 0-100")
        if self.mentioning_webpages < 0 or self.mentioning_websites < 0:
            raise LinkValidationError(f"{self.target}: negative mention count")
        if self.mentioning_websites > self.mentioning_webpages:
            raise LinkValidationError(
                f"{self.target}: websites ({self.mentioning_websites}) exceed "
                f"webpages ({self.mentioning_webpages})"
            )

    @property
    def websites_is_upper_bound(self) -> bool:
        """The site count is a sum over more than one raw record."""
        return self.merged_from > 1


RawLinkRecord = BacklinkAggregate  # a row as read, before protocol merging


def merge_protocol_variants(records) -> list[BacklinkAggregate]:
    """Group raw records by canonical target and merge the variants.

    Webpage and website counts are summed; citation and trust flow take the
    maximum across variants; the reporting window becomes the union. Output
    is sorted by target.
    """
    merged: dict[str, BacklinkAggregate] = {}
    for record in records:
        target = record.target
        merged[target] = _combine(merged[target], record) if target in merged else record
    return [merged[target] for target in sorted(merged)]


def _combine(a: BacklinkAggregate, b: BacklinkAggregate) -> BacklinkAggregate:
    """Sum the counts, take the larger flows and the union of the windows,
    under a's target. Not validated again: a and b were validated when made,
    sums keep websites within webpages, and max keeps flows in 0-100."""
    starts = [d for d in (a.window_start, b.window_start) if d is not None]
    ends = [d for d in (a.window_end, b.window_end) if d is not None]
    merged = object.__new__(BacklinkAggregate)
    merged.__dict__.update(target=a.target,
                           mentioning_webpages=a.mentioning_webpages + b.mentioning_webpages,
                           mentioning_websites=a.mentioning_websites + b.mentioning_websites,
                           citation_flow=max(a.citation_flow, b.citation_flow),
                           trust_flow=max(a.trust_flow, b.trust_flow),
                           window_start=min(starts) if starts else None,
                           window_end=max(ends) if ends else None,
                           merged_from=a.merged_from + b.merged_from)
    return merged


@dataclass
class LinkCoverage:
    attached: dict[str, BacklinkAggregate] = field(default_factory=dict)
    outdated: list[str] = field(default_factory=list)
    rejected: list[str] = field(default_factory=list)


def link_coverage_index(aggregates, index: CorpusIndex) -> LinkCoverage:
    """Attach aggregates to corpus releases by canonical target.

    Targets under the corpus fold that match no release are outdated URLs;
    off-fold targets are rejected. The corpus decoder refuses a URL that two
    releases name; an index that gives one release two targets is refused here.
    """
    out = LinkCoverage()
    for agg in aggregates:
        if (release_id := index.get(agg.target)) is not None:
            if (kept := out.attached.setdefault(release_id, agg)) is not agg:
                raise ValueError(f"{release_id!r} has two targets: {kept.target} and {agg.target}")
        elif index.in_fold(agg.target):
            out.outdated.append(agg.target)
        else:
            out.rejected.append(agg.target)
    return out


def read_raw_links_csv(path: str | Path, digests: dict | None = None) -> list[BacklinkAggregate]:
    """target_url,mentioning_webpages,mentioning_websites,citation_flow,
    trust_flow,window_start,window_end"""
    return store.read_csv(path, lambda row: BacklinkAggregate(
        target=row["target_url"].strip(),
        mentioning_webpages=int(row["mentioning_webpages"]),
        mentioning_websites=int(row["mentioning_websites"]),
        citation_flow=int(row["citation_flow"]),
        trust_flow=int(row["trust_flow"]),
        window_start=iso_date(row["window_start"]) if row.get("window_start") else None,
        window_end=iso_date(row["window_end"]) if row.get("window_end") else None,
    ), digests)


def aggregate_to_dict(release_id: str, agg: BacklinkAggregate) -> dict:
    return {
        "release_id": release_id,
        "target": agg.target,
        "mentioning_webpages": agg.mentioning_webpages,
        "mentioning_websites": agg.mentioning_websites,
        "citation_flow": agg.citation_flow,
        "trust_flow": agg.trust_flow,
        "window_start": agg.window_start.isoformat() if agg.window_start else None,
        "window_end": agg.window_end.isoformat() if agg.window_end else None,
        "websites_is_upper_bound": agg.websites_is_upper_bound,
        "merged_from": agg.merged_from,
    }


def link_window_from_dict(record: dict) -> tuple[str, date | None, date | None]:
    """The release id and window-end dates of a line that aggregate_to_dict wrote;
    another JSON type is refused, as store.typed refuses it, as is a date not YYYY-MM-DD."""
    return (store.typed(record, "release_id", str),
            *(None if record[end] is None else iso_date(store.typed(record, end, str))
              for end in ("window_start", "window_end")))
