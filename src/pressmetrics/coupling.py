"""Couplings between press releases and the scholarly record: one edge per
(release, DOI) pair, and journal-coverage statistics that set each
journal's press-release presence against its external publication count."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import store
from .release_parser import normalize_institution
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
                     alias_table: dict[str, str] | None = None,
                     stats: dict | None = None) -> list[JournalCoverage]:
    """Coverage percentage per journal over the releases naming it.

    Each release contributes at most once per named journal. Journals known
    only to the external counts appear with zero press releases; a journal
    with press releases but no external count gets a null percentage and a
    warning counted in ``stats``. Rows sort by press-release count
    descending, ties broken on the journal name.
    """
    if stats is None:
        stats = {}
    alias_table = alias_table or {}

    press_counts = Counter(journal for release in corpus for journal in
                           {normalize_institution(j, alias_table) for j in release.metadata.journal})

    externals: Counter[str] = Counter()
    for name, count in external_counts.items():
        externals[normalize_institution(name, alias_table)] += int(count)

    rows: list[JournalCoverage] = []
    for journal in set(press_counts) | set(externals):
        publications = externals[journal]
        press = press_counts[journal]
        if publications > 0:
            pct = percentage(press, publications, 1)
        else:
            pct = None
            if press > 0:
                stats["undefined_coverage"] = stats.get("undefined_coverage", 0) + 1
        rows.append(JournalCoverage(journal, publications, press, pct))
    rows.sort(key=lambda r: (-r.press_release_count, r.journal))
    return rows


def load_external_counts(path: str | Path) -> dict[str, int]:
    """journal,publications_with_doi"""
    return store.read_mapping(
        path, lambda row: (row["journal"].strip(), int(row["publications_with_doi"])))


def load_doi_journals(path: str | Path) -> dict[str, str]:
    """Optional doi,journal enrichment table."""
    return store.read_mapping(
        path, lambda row: (row["doi"].strip().lower(), row["journal"].strip()))
