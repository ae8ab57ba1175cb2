"""Couplings between press releases and the scholarly record: one edge per
(release, DOI) pair, and journal-coverage statistics that set each
journal's press-release presence against its external publication count."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import store
from .release_parser import fold_name, normalize_institution
from .rounding import percentage


@dataclass(frozen=True)
class CouplingEdge:
    release_id: str
    doi: str
    journal: str | None = None


@dataclass
class JournalCoverage:
    journal: str
    publications_with_doi: int
    press_release_count: int
    coverage_pct: float | None


def build_coupling_graph(corpus, doi_journals: dict[str, str] | None = None) -> list[CouplingEdge]:
    """One edge per (release, distinct DOI). The journal comes from the
    release's own journal metadata (first named journal); the optional
    DOI->journal table fills in only where the release names none."""
    edges: list[CouplingEdge] = []
    seen: set[tuple[str, str]] = set()
    for release in corpus:
        journal = release.metadata.journal[0] if release.metadata.journal else None
        for ref in release.dois:
            key = (release.id, ref.normalized)
            if key in seen:
                continue
            seen.add(key)
            edge_journal = journal
            if edge_journal is None and doi_journals:
                edge_journal = doi_journals.get(ref.normalized)
            edges.append(CouplingEdge(release.id, ref.normalized, edge_journal))
    return edges


def journal_coverage(corpus, external_counts: dict[str, int],
                     alias_table: dict[str, str] | None = None, *,
                     stats: Counter) -> list[JournalCoverage]:
    """Coverage percentage per journal over the releases naming it; see CoverageTally."""
    tally = CoverageTally(external_counts, alias_table)
    for release in corpus:
        tally.add(release)
    return tally.rows(stats)


class CoverageTally:
    """journal_coverage one release at a time: ``add`` each release, then read ``rows``.

    Each release contributes at most once per named journal. Journals known
    only to the external counts appear with zero press releases; a journal
    with press releases but no external count gets a null percentage and a
    warning counted in ``stats``. Two external names that the alias table
    maps to one journal may repeat a count but not give two: that fails
    with a ValueError naming both, before any release is added. Rows sort by
    press-release count descending, ties broken on the journal name.
    """

    def __init__(self, external_counts: dict[str, int], alias_table: dict[str, str] | None = None):
        self.alias_table = alias_table or {}
        self.press: Counter[str] = Counter()
        self.externals: Counter[str] = Counter()
        named: dict[str, str] = {}  # journal -> the external name its count came from
        for name, count in external_counts.items():
            journal = normalize_institution(name, self.alias_table)
            if self.externals.setdefault(journal, int(count)) != int(count):
                raise ValueError(f"{named[journal]!r} and {name!r} both name {journal!r}, with "
                                 f"{self.externals[journal]} and {count} publications")
            named.setdefault(journal, name)

    def add(self, release) -> None:
        self.press.update({normalize_institution(j, self.alias_table)
                           for j in release.metadata.journal})

    def rows(self, stats: Counter) -> list[JournalCoverage]:
        rows: list[JournalCoverage] = []
        for journal in set(self.press) | set(self.externals):
            publications = self.externals[journal]
            press = self.press[journal]
            if publications > 0:
                pct = percentage(press, publications, 1)
            else:
                pct = None
                if press > 0:
                    stats["undefined_coverage"] += 1
            rows.append(JournalCoverage(journal, publications, press, pct))
        rows.sort(key=lambda r: (-r.press_release_count, r.journal))
        return rows


def load_external_counts(path: str | Path, digests: dict | None = None) -> dict[str, int]:
    """journal,publications_with_doi, keyed on the folded journal name, so
    two rows whose names fold to one journal must give one count."""
    return store.read_mapping(
        path, lambda row: (fold_name(row["journal"]), int(row["publications_with_doi"])), digests)


def load_doi_journals(path: str | Path, digests: dict | None = None) -> dict[str, str]:
    """Optional doi,journal enrichment table."""
    return store.read_mapping(
        path, lambda row: (row["doi"].strip().lower(), row["journal"].strip()), digests)
