"""Descriptive statistics over the harvested corpus: output series, type,
keyword and region distributions, the keyword co-occurrence network, PIO
rankings, mention series, and the per-year mention-coverage table.

Every operation is a pure single pass over the releases. All rankings
break count ties lexicographically on the entity name, and all percentages
round half-up at the precision their report prints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from itertools import combinations

from .release_parser import PressType, Region, normalize_institution
from .rounding import percentage, ratio


def output_series(corpus, granularity: str = "yearly") -> list[tuple[int | date, int]]:
    """Publication counts per year (or per day), buckets sorted ascending.

    Date-anomalous releases are excluded from bucketed output; they still
    count toward corpus totals elsewhere.
    """
    if granularity not in ("yearly", "daily"):
        raise ValueError(f"unknown granularity {granularity!r}")
    counts = Counter(release.metadata.date.year if granularity == "yearly" else release.metadata.date
                     for release in corpus if not release.date_anomaly)
    return sorted(counts.items())


def peak_bucket(series: list[tuple]) -> tuple | None:
    """Bucket with the highest count; earliest bucket wins a tie (the
    series is bucket-sorted and max keeps the first maximum)."""
    return max(series, key=lambda item: item[1], default=None)


def distribution_percentages(counts: dict) -> dict:
    """Attach one-decimal half-up percentages to a count mapping; the
    denominator is the mapping's own total."""
    total = sum(counts.values())
    return {key: (n, percentage(n, total, 1) if total else 0.0)
            for key, n in counts.items()}


def type_distribution(corpus) -> dict[PressType, tuple[int, float]]:
    """Counts and one-decimal shares per press type, over the releases that
    carry a type value."""
    return distribution_percentages(Counter(r.metadata.type for r in corpus
                                            if r.metadata.type is not None))


def _ranked(counts: Counter) -> list[tuple[str, int]]:
    """Count descending, ties broken on the name."""
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def keyword_frequency(corpus) -> list[tuple[str, int]]:
    """Keywords ranked by the number of releases using them (a release
    counts once per keyword no matter how often it repeats one)."""
    return _ranked(Counter(keyword for release in corpus
                           for keyword in set(release.metadata.keywords)))


@dataclass
class CoGraph:
    """Keyword co-occurrence network.

    nodes map keywords to occurrence counts; edges map unordered keyword
    pairs to the number of releases using both; link_strength sums each
    keyword's incident edge weights.
    """

    nodes: Counter[str] = field(default_factory=Counter)
    edges: Counter[tuple[str, str]] = field(default_factory=Counter)
    link_strength: Counter[str] = field(default_factory=Counter)

    def total_weight(self) -> int:
        return sum(self.edges.values())


def cooccurrence_graph(corpus) -> CoGraph:
    """For each release with k distinct keywords, every one of the C(k,2)
    unordered pairs gains weight 1, so each of the k keywords gains link
    strength k-1. No self-edges can arise."""
    graph = CoGraph()
    for release in corpus:
        keywords = sorted(set(release.metadata.keywords))
        graph.nodes.update(keywords)
        graph.edges.update(combinations(keywords, 2))
        graph.link_strength.update(dict.fromkeys(keywords, len(keywords) - 1))
    return graph


def cograph_to_json_dict(graph: CoGraph) -> dict:
    """Network JSON for co-occurrence map viewers: nodes carry occurrence
    counts and link strength, links carry pair weights."""
    order = {keyword: i + 1 for i, keyword in enumerate(sorted(graph.nodes))}
    nodes = [
        {"id": order[k], "label": k, "occurrences": graph.nodes[k],
         "link_strength": graph.link_strength[k]}
        for k in sorted(graph.nodes)
    ]
    links = [
        {"source": order[a], "target": order[b], "weight": w}
        for (a, b), w in sorted(graph.edges.items())
    ]
    return {"nodes": nodes, "links": links}


def region_distribution(corpus) -> dict[Region, tuple[int, float]]:
    """Counts and one-decimal shares per PIO region, over the releases that
    carry region metadata."""
    return distribution_percentages(Counter(r.metadata.region for r in corpus
                                            if r.metadata.region is not Region.UNKNOWN))


def pio_ranking(corpus, alias_table: dict[str, str] | None = None) -> list[tuple[str, int]]:
    """Submitting institutions ranked by output, internal units merged
    through the alias table; ties break on the name."""
    alias_table = alias_table or {}
    return _ranked(Counter(normalize_institution(release.metadata.institution, alias_table)
                           for release in corpus if release.metadata.institution))


def mention_series(mentions) -> list[tuple[int, int]]:
    """Tweet mentions per tweet-publication year."""
    return sorted(Counter(mention.created_at.year for mention in mentions).items())


def _release_years(corpus) -> tuple[Counter[int], dict[str, int]]:
    """Releases published per year, and each release's year; date-anomalous
    releases are left out of both."""
    dated = [release for release in corpus if not release.date_anomaly]
    return (Counter(release.metadata.date.year for release in dated),
            {release.id: release.metadata.date.year for release in dated})


def tweets_per_release(corpus, mentions) -> dict[int, float]:
    """Tweets over releases for pairs published the same year, two-decimal.

    The numerator counts tweets from year Y that link at least one release
    also published in Y; years without published releases are omitted.
    """
    published, year_of_release = _release_years(corpus)

    same_year_tweets = Counter(
        mention.created_at.year for mention in mentions
        if any(year_of_release.get(rid) == mention.created_at.year
               for rid in mention.matched_release_ids()))

    return {year: ratio(same_year_tweets[year], n, 2)
            for year, n in sorted(published.items())}


@dataclass
class CoverageRow:
    """One release-publication year of the mention-coverage table."""

    year: int
    published: int
    tweeted: int
    pct_tweeted: float
    web_linked: int
    pct_web: float


def coverage_table(corpus, mentions, backlinks) -> list[CoverageRow]:
    """Share of each year's releases mentioned at least once.

    A release counts as tweeted (web-linked) when at least one matched
    mention (attached backlink aggregate) points at it, regardless of the
    mention's own year. Outdated URLs never match, so they are excluded by
    construction. Percentages print at two decimals for tweets and one for
    web links.
    """
    published, year_of_release = _release_years(corpus)

    tweeted_releases: set[str] = set()
    for mention in mentions:
        tweeted_releases.update(mention.matched_release_ids())

    linked_releases = set(backlinks)

    tweeted_by_year = Counter(year for release_id, year in year_of_release.items()
                              if release_id in tweeted_releases)
    linked_by_year = Counter(year for release_id, year in year_of_release.items()
                             if release_id in linked_releases)

    rows = []
    for year, count in sorted(published.items()):
        tweeted = tweeted_by_year[year]
        linked = linked_by_year[year]
        rows.append(CoverageRow(
            year=year,
            published=count,
            tweeted=tweeted,
            pct_tweeted=percentage(tweeted, count, 2),
            web_linked=linked,
            pct_web=percentage(linked, count, 1),
        ))
    return rows
