"""Descriptive statistics over the harvested corpus: output series, type,
keyword and region distributions, the keyword co-occurrence network, PIO
rankings, mention series, and the per-year mention-coverage table.

Every statistic is read off one ``Fold``: releases, mentions and linked
release ids are added one at a time and dropped, and the fold keeps only
counts keyed by day, year, type, region, institution, keyword and keyword
pair, plus the year of each dated release and the dated releases that are
tweeted or web-linked. The public functions fold what they are given and
read their statistic off it. All rankings break count ties
lexicographically on the entity name, and all percentages round half-up at
the precision their report prints.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from itertools import combinations

from .release_parser import PressType, Region, normalize_institution
from .rounding import percentage, ratio


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


def _ranked(counts: Counter) -> list[tuple[str, int]]:
    """Count descending, ties broken on the name."""
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


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


_LINK = '    {{\n      "source": {},\n      "target": {},\n      "weight": {}\n    }}'
_NODE = ('    {{\n      "id": {},\n      "label": {},\n      "link_strength": {},\n'
         '      "occurrences": {}\n    }}')


def cograph_json(graph: CoGraph):
    """The network JSON for co-occurrence map viewers, as store.write_json would
    write it, one link or node at a time: nodes carry occurrence counts and link
    strength, links carry pair weights, and both number keywords in sorted order."""
    order = {keyword: i for i, keyword in enumerate(sorted(graph.nodes), 1)}
    yield "{\n"
    for key, items in (
            ("links", (_LINK.format(order[a], order[b], graph.edges[a, b])
                       for a, b in sorted(graph.edges))),
            ("nodes", (_NODE.format(i, json.dumps(k, ensure_ascii=False), graph.link_strength[k],
                                    graph.nodes[k]) for k, i in order.items()))):
        yield f'  "{key}": ['
        separator = "\n"
        for item in items:
            yield separator + item
            separator = ",\n"
        yield "]" if separator == "\n" else "\n  ]"
        yield ",\n" if key == "links" else "\n}\n"


@dataclass
class CoverageRow:
    """One release-publication year of the mention-coverage table."""

    year: int
    published: int
    tweeted: int
    pct_tweeted: float
    web_linked: int
    pct_web: float


class Fold:
    """What the statistics read of a corpus, its mentions and its backlinks:
    the constructor adds the ones it is given, in that order, and add_* the rest.

    Add every release before the first mention or link: both count only
    through the year of a dated release. Date-anomalous releases count
    toward the corpus totals but stay out of every bucketed statistic.
    """

    def __init__(self, corpus=(), mentions=(), linked=()):
        self.releases = 0
        self.date_anomalous = 0
        self.days: Counter[date] = Counter()  # dated releases per publication day
        self.published: Counter[int] = Counter()  # dated releases per publication year
        self.year_of: dict[str, int] = {}  # dated release id -> publication year
        self.types: Counter[PressType] = Counter()
        self.regions: Counter[Region] = Counter()
        self.institutions: Counter[str] = Counter()  # as written; merged when ranked
        self.graph = CoGraph()
        self.mentions = 0
        self.mention_years: Counter[int] = Counter()
        self.same_year: Counter[int] = Counter()  # tweets linking a release of their year
        self.tweeted: set[str] = set()  # dated releases that a mention matched
        self.linked: set[str] = set()  # dated releases with an attached backlink aggregate
        for release in corpus:
            self.add_release(release)
        for mention in mentions:
            self.add_mention(mention)
        for release_id in linked:
            self.add_link(release_id)

    def add_release(self, release) -> None:
        """Count the release toward every corpus statistic. A release with
        k distinct keywords adds weight 1 to each of its C(k,2) unordered
        keyword pairs, so each of the k keywords gains link strength k-1.
        No self-edges can arise."""
        md = release.metadata
        self.releases += 1
        if release.date_anomaly:
            self.date_anomalous += 1
        else:
            self.days[md.date] += 1
            self.published[md.date.year] += 1
            self.year_of[release.id] = md.date.year
        if md.type is not None:
            self.types[md.type] += 1
        if md.region is not Region.UNKNOWN:
            self.regions[md.region] += 1
        if md.institution:
            self.institutions[md.institution] += 1
        keywords = sorted(set(md.keywords))
        self.graph.nodes.update(keywords)
        self.graph.edges.update(combinations(keywords, 2))
        self.graph.link_strength.update(dict.fromkeys(keywords, len(keywords) - 1))

    def add_mention(self, mention) -> None:
        """A mention counts toward its tweet year, and toward that year's
        same-year tweets when one of its matched releases was published
        then."""
        year = mention.created_at.year
        self.mentions += 1
        self.mention_years[year] += 1
        same_year = False
        for match in mention.matches:  # an unmatched result has no release_id
            if (released := self.year_of.get(match.release_id)) is not None:
                self.tweeted.add(match.release_id)
                same_year = same_year or released == year
        if same_year:
            self.same_year[year] += 1

    def add_link(self, release_id: str) -> None:
        """The release carries an attached backlink aggregate."""
        if release_id in self.year_of:
            self.linked.add(release_id)

    def output_series(self, granularity: str = "yearly") -> list[tuple[int | date, int]]:
        if granularity == "yearly":
            return sorted(self.published.items())
        if granularity == "daily":
            return sorted(self.days.items())
        raise ValueError(f"unknown granularity {granularity!r}")

    def type_distribution(self) -> dict[PressType, tuple[int, float]]:
        return distribution_percentages(self.types)

    def keyword_frequency(self) -> list[tuple[str, int]]:
        return _ranked(self.graph.nodes)

    def region_distribution(self) -> dict[Region, tuple[int, float]]:
        return distribution_percentages(self.regions)

    def pio_ranking(self, alias_table: dict[str, str]) -> list[tuple[str, int]]:
        merged: Counter[str] = Counter()
        for name, n in self.institutions.items():
            merged[normalize_institution(name, alias_table)] += n
        return _ranked(merged)

    def mention_series(self) -> list[tuple[int, int]]:
        return sorted(self.mention_years.items())

    def tweets_per_release(self) -> dict[int, float]:
        return {year: ratio(self.same_year[year], n, 2)
                for year, n in sorted(self.published.items())}

    def coverage_table(self) -> list[CoverageRow]:
        tweeted = Counter(self.year_of[rid] for rid in self.tweeted)
        linked = Counter(self.year_of[rid] for rid in self.linked)
        return [CoverageRow(year=year, published=count,
                            tweeted=tweeted[year], pct_tweeted=percentage(tweeted[year], count, 2),
                            web_linked=linked[year], pct_web=percentage(linked[year], count, 1))
                for year, count in sorted(self.published.items())]


def output_series(corpus, granularity: str = "yearly") -> list[tuple[int | date, int]]:
    """Publication counts per year (or per day), buckets sorted ascending.

    Date-anomalous releases are excluded from bucketed output; they still
    count toward corpus totals elsewhere.
    """
    return Fold(corpus).output_series(granularity)


def type_distribution(corpus) -> dict[PressType, tuple[int, float]]:
    """Counts and one-decimal shares per press type, over the releases that
    carry a type value."""
    return Fold(corpus).type_distribution()


def keyword_frequency(corpus) -> list[tuple[str, int]]:
    """Keywords ranked by the number of releases using them (a release
    counts once per keyword no matter how often it repeats one)."""
    return Fold(corpus).keyword_frequency()


def cooccurrence_graph(corpus) -> CoGraph:
    """The keyword network of ``corpus``; see Fold.add_release."""
    return Fold(corpus).graph


def region_distribution(corpus) -> dict[Region, tuple[int, float]]:
    """Counts and one-decimal shares per PIO region, over the releases that
    carry region metadata."""
    return Fold(corpus).region_distribution()


def pio_ranking(corpus, alias_table: dict[str, str] | None = None) -> list[tuple[str, int]]:
    """Submitting institutions ranked by output, internal units merged
    through the alias table; ties break on the name."""
    return Fold(corpus).pio_ranking(alias_table or {})


def mention_series(mentions) -> list[tuple[int, int]]:
    """Tweet mentions per tweet-publication year."""
    return Fold(mentions=mentions).mention_series()


def tweets_per_release(corpus, mentions) -> dict[int, float]:
    """Tweets over releases for pairs published the same year, two-decimal.

    The numerator counts tweets from year Y that link at least one release
    also published in Y; years without published releases are omitted.
    """
    return Fold(corpus, mentions).tweets_per_release()


def coverage_table(corpus, mentions, backlinks) -> list[CoverageRow]:
    """Share of each year's releases mentioned at least once.

    A release counts as tweeted (web-linked) when at least one matched
    mention (attached backlink aggregate) points at it, regardless of the
    mention's own year. Outdated URLs never match, so they are excluded by
    construction. Percentages print at two decimals for tweets and one for
    web links.
    """
    return Fold(corpus, mentions, backlinks).coverage_table()
