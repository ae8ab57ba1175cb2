"""Command-line pipeline binding all stages together.

Stages: crawl -> parse -> ingest-tweets / ingest-links -> couple -> analyze
-> report. Each stage reads the previous stage's files, writes its own
atomically (the crawl manifest commits pages) and appends a run manifest to
the run log. Fixtures mode (--fixtures) fetches and unshortens from
recorded files on a deterministic clock, so complete runs are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from . import analytics, backlink_ingest, coupling, harvester, mention_ingest, store
from .release_parser import (
    ParseError,
    load_alias_table,
    load_rewrite_table,
    parse_release,
    release_from_dict,
    release_to_dict,
)
from .urls import CorpusIndex, url_digest

class PipelineError(Exception):
    """Stage-level failure with an actionable, stage-named message."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class PipelineConfig:
    seed_path: str = ""
    rate_limit: float = 1.0
    corpus_dir: Path = Path("corpus")
    report_dir: Path = Path("reports")
    fixtures_dir: Path | None = None
    max_depth: int = 5
    granularity: str = "yearly"
    alias_institutions: Path | None = None
    alias_journals: Path | None = None
    doi_rewrites: Path | None = None
    doi_journals: Path | None = None
    external_counts: Path | None = None
    tweets_file: Path | None = None
    backlinks_file: Path | None = None
    resolver_file: Path | None = None

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")

    # stage file layout
    @property
    def pages_dir(self) -> Path:
        return self.corpus_dir / "pages"

    @property
    def crawl_manifest(self) -> Path:
        return self.corpus_dir / "crawl_manifest.jsonl"

    @property
    def corpus_file(self) -> Path:
        return self.corpus_dir / "corpus.jsonl"

    @property
    def mentions_file(self) -> Path:
        return self.corpus_dir / "mentions.jsonl"

    @property
    def backlinks_attached(self) -> Path:
        return self.corpus_dir / "backlinks.jsonl"

    @property
    def backlinks_outdated(self) -> Path:
        return self.corpus_dir / "backlinks_outdated.jsonl"

    @property
    def run_log(self) -> Path:
        return self.corpus_dir / "run_log.jsonl"


_PATH_KEYS = {f.name for f in fields(PipelineConfig) if f.type.startswith("Path")}


def load_config_file(path: str | Path) -> dict:
    """Flat key=value file; blank lines and # comments ignored."""
    values: dict = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def build_config(file_values: dict, overrides: dict) -> PipelineConfig:
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    kwargs: dict = {}
    for key, value in merged.items():
        if key == "rate_limit":
            kwargs[key] = float(value)
        elif key == "max_depth":
            kwargs[key] = int(value)
        elif key in _PATH_KEYS:
            kwargs[key] = Path(value) if value not in (None, "") else None
        elif key in PipelineConfig.__dataclass_fields__:
            kwargs[key] = value
        else:
            raise ValueError(f"unknown config key {key!r}")
    return PipelineConfig(**kwargs)


@dataclass
class RunManifest:
    command: str
    started_at: str
    finished_at: str = ""
    input_digests: dict = field(default_factory=dict)
    output_digests: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, ensure_ascii=False, sort_keys=True)


def _optional(manifest: RunManifest, path: Path) -> Path | None:
    """``path`` when it is a file, recorded as a stage input; else None."""
    if not path.is_file():
        return None
    manifest.input_digests[str(path)] = store.file_digest(path)
    return path


def _require(manifest: RunManifest, path: Path | None, what: str) -> Path:
    """``path``, which the stage cannot run without; a file is recorded."""
    if path is None:
        raise PipelineError(manifest.command, f"{what} not configured")
    if not path.exists():
        raise PipelineError(manifest.command, f"missing prerequisite: {what} at {path} "
                                              f"(run the producing stage first)")
    return _optional(manifest, path) or path


def _write(manifest: RunManifest, write, path: Path, *args) -> None:
    """A store writer's call, with the digest it returns recorded as an output."""
    manifest.output_digests[str(path)] = write(path, *args)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_crawl(cfg: PipelineConfig, manifest: RunManifest) -> None:
    if not cfg.seed_path:
        raise PipelineError("crawl", "seed_path not configured")
    scope = harvester.CrawlScope(cfg.seed_path, cfg.rate_limit)
    if cfg.fixtures_dir is not None:
        fetcher = harvester.DirectoryFetcher(_require(manifest, cfg.fixtures_dir, "fixtures_dir"))
        clock = harvester.VirtualClock()
    else:
        fetcher = harvester.HttpFetcher()
        clock = harvester.SystemClock()
    limiter = harvester.RateLimiter(scope.rate_limit, clock)
    stats = Counter()

    def entries():
        for record, page_class in harvester.crawl(scope, fetcher, limiter, stats):
            # the manifest line naming this body, written after it, commits it
            (cfg.pages_dir / (url_digest(record.url) + ".body")).write_bytes(record.body)
            yield {
                "url": record.url,
                "status": record.status,
                "digest": record.body_digest,
                "fetched_at": record.fetched_at.isoformat().replace("+00:00", "Z"),
                "class": page_class.value,
            }

    try:
        cfg.pages_dir.mkdir(parents=True, exist_ok=True)
        # pages are replaced as they land, so an earlier manifest no longer describes them
        cfg.crawl_manifest.unlink(missing_ok=True)
        _write(manifest, store.stream_jsonl, cfg.crawl_manifest, entries())
    finally:
        fetcher.close()
    manifest.counts.update(stats)


def stage_parse(cfg: PipelineConfig, manifest: RunManifest) -> None:
    crawl_manifest = _require(manifest, cfg.crawl_manifest, "crawl manifest")
    rewrite_table = (load_rewrite_table(_require(manifest, cfg.doi_rewrites, "DOI rewrite table"))
                     if cfg.doi_rewrites else ())
    unshorten = None
    if cfg.resolver_file:
        resolver = mention_ingest.CsvResolver.from_csv(
            _require(manifest, cfg.resolver_file, "resolver fixture"))
        unshorten = partial(resolver.unshorten, max_depth=cfg.max_depth)

    stats = Counter(parsed=0, parse_errors=0, skipped_non_content=0)
    parsed: dict[str, dict] = {}  # release id -> corpus record
    for entry in store.read_jsonl(crawl_manifest):
        if entry["class"] != harvester.PageClass.PRESS_RELEASE:
            stats["skipped_non_content"] += 1
            continue
        body_path = cfg.pages_dir / (url_digest(entry["url"]) + ".body")
        body = body_path.read_bytes()
        if hashlib.sha256(body).hexdigest() != entry["digest"]:
            raise PipelineError("parse", f"{body_path} differs from the digest that "
                                f"{crawl_manifest} records for {entry['url']}")
        try:
            release = parse_release(entry["url"], body, rewrite_table=rewrite_table,
                                    unshorten=unshorten, stats=stats)
        except ParseError as err:
            stats["parse_errors"] += 1
            stats[f"parse_errors_{err.field_name}"] += 1
            continue
        if release.id in parsed:
            raise PipelineError("parse", f"release id {release.id!r} from both "
                                f"{parsed[release.id]['canonical_url']} and {entry['url']}")
        stats["parsed"] += 1
        parsed[release.id] = release_to_dict(release)
    _write(manifest, store.write_jsonl, cfg.corpus_file, list(parsed.values()))
    manifest.counts.update(stats)


def _read_corpus(cfg: PipelineConfig, manifest: RunManifest) -> list:
    """The whole corpus, decoded once; each stage calls this at most once."""
    corpus = _require(manifest, cfg.corpus_file, "parsed corpus")
    return [release_from_dict(record) for record in store.read_jsonl(corpus)]


def _corpus_index(cfg: PipelineConfig, manifest: RunManifest) -> CorpusIndex:
    releases = _read_corpus(cfg, manifest)
    if not cfg.seed_path:
        raise PipelineError(manifest.command, "seed_path not configured")
    return CorpusIndex.from_releases(releases, cfg.seed_path)


def stage_ingest_tweets(cfg: PipelineConfig, manifest: RunManifest) -> None:
    tweets_path = _require(manifest, cfg.tweets_file, "tweet archive")
    index = _corpus_index(cfg, manifest)
    if cfg.resolver_file:
        resolver = mention_ingest.CsvResolver.from_csv(
            _require(manifest, cfg.resolver_file, "resolver fixture"))
    else:
        resolver = lambda url: None  # no recorded redirects: every URL is terminal
    stats: dict = {}
    mentions = mention_ingest.ingest_tweets(
        store.read_jsonl(tweets_path), resolver, index, max_depth=cfg.max_depth, stats=stats)
    _write(manifest, store.write_jsonl, cfg.mentions_file,
           [mention_ingest.mention_to_dict(m) for m in mentions])
    stats["mentions_kept"] = len(mentions)
    manifest.counts.update(stats)


def stage_ingest_links(cfg: PipelineConfig, manifest: RunManifest) -> None:
    links_path = _require(manifest, cfg.backlinks_file, "backlink CSV")
    index = _corpus_index(cfg, manifest)
    records = backlink_ingest.read_raw_links_csv(links_path)
    try:
        aggregates = backlink_ingest.merge_protocol_variants(records)
    except backlink_ingest.LinkValidationError as err:
        raise PipelineError("ingest-links", str(err)) from err
    coverage = backlink_ingest.link_coverage_index(aggregates, index)
    _write(manifest, store.write_jsonl, cfg.backlinks_attached,
           [backlink_ingest.aggregate_to_dict(rid, coverage.attached[rid])
            for rid in sorted(coverage.attached)])
    _write(manifest, store.write_jsonl, cfg.backlinks_outdated,
           [{"target": t} for t in sorted(coverage.outdated)])
    manifest.counts.update({
        "raw_records": len(records),
        "aggregates": len(aggregates),
        "attached": len(coverage.attached),
        "outdated": len(coverage.outdated),
        "rejected": len(coverage.rejected),
    })


def _fmt(value: float, places: int) -> str:
    return f"{value:.{places}f}"


def stage_couple(cfg: PipelineConfig, manifest: RunManifest) -> None:
    releases = _read_corpus(cfg, manifest)
    counts_path = _require(manifest, cfg.external_counts, "external counts CSV")
    aliases = (load_alias_table(_require(manifest, cfg.alias_journals, "journal aliases"))
               if cfg.alias_journals else {})
    doi_journals = (coupling.load_doi_journals(_require(manifest, cfg.doi_journals, "DOI journals"))
                    if cfg.doi_journals else None)
    edges = coupling.build_coupling_graph(releases, doi_journals)
    stats: dict = {}
    rows = coupling.journal_coverage(releases,
                                     coupling.load_external_counts(counts_path),
                                     alias_table=aliases, stats=stats)
    cfg.report_dir.mkdir(parents=True, exist_ok=True)
    _write(manifest, store.write_csv, cfg.report_dir / "coupling_edges.csv",
           ["release_id", "doi", "journal"],
           [[e.release_id, e.doi, e.journal or ""] for e in edges])
    _write(manifest, store.write_csv, cfg.report_dir / "journal_coverage.csv",
           ["journal", "publications_with_doi", "press_release_count", "coverage_pct"],
           [[r.journal, r.publications_with_doi, r.press_release_count,
             "" if r.coverage_pct is None else _fmt(r.coverage_pct, 1)]
            for r in rows])
    manifest.counts.update({"edges": len(edges), "journals": len(rows), **stats})


def _distribution_rows(dist: dict) -> list[list]:
    """Type or region table rows: count descending, ties on the value."""
    return [[key.value, n, _fmt(p, 1)]
            for key, (n, p) in sorted(dist.items(), key=lambda kv: (-kv[1][0], kv[0].value))]


def stage_analyze(cfg: PipelineConfig, manifest: RunManifest) -> None:
    releases = _read_corpus(cfg, manifest)
    aliases = (load_alias_table(_require(manifest, cfg.alias_institutions, "institution aliases"))
               if cfg.alias_institutions else {})
    report = cfg.report_dir
    report.mkdir(parents=True, exist_ok=True)

    def write_csv(name: str, header: list[str], rows: list[list]) -> None:
        _write(manifest, store.write_csv, report / name, header, rows)

    populations: dict = {
        "corpus_total": len(releases),
        "date_anomalous_excluded_from_series": sum(r.date_anomaly for r in releases),
    }

    series = analytics.output_series(releases, cfg.granularity)
    write_csv("annual_output.csv", ["year" if cfg.granularity == "yearly" else "date", "count"],
              [[str(b), n] for b, n in series])
    populations["annual_output"] = sum(n for _, n in series)
    if cfg.granularity == "daily":
        peak = analytics.peak_bucket(series)
        if peak is not None:
            populations["peak_day"] = str(peak[0])
            populations["peak_day_count"] = peak[1]

    types = analytics.type_distribution(releases)
    write_csv("type_distribution.csv", ["type", "count", "pct"], _distribution_rows(types))
    populations["type_distribution"] = sum(n for n, _ in types.values())

    write_csv("keyword_frequency.csv", ["keyword", "occurrences"],
              [[k, n] for k, n in analytics.keyword_frequency(releases)])

    graph = analytics.cooccurrence_graph(releases)
    _write(manifest, store.write_json, report / "cooccurrence_graph.json",
           analytics.cograph_to_json_dict(graph))

    regions = analytics.region_distribution(releases)
    write_csv("region_distribution.csv", ["region", "count", "pct"], _distribution_rows(regions))
    populations["region_distribution"] = sum(n for n, _ in regions.values())

    write_csv("pio_ranking.csv", ["institution", "count"],
              [[name, n] for name, n in analytics.pio_ranking(releases, aliases)])

    mentions = None
    mentions_path = _optional(manifest, cfg.mentions_file)
    if mentions_path:
        mentions = [mention_ingest.mention_from_dict(r) for r in store.read_jsonl(mentions_path)]
        populations["mentions"] = len(mentions)
        write_csv("mention_series.csv", ["year", "count"],
                  [[y, n] for y, n in analytics.mention_series(mentions)])
        ratios = analytics.tweets_per_release(releases, mentions)
        write_csv("tweets_per_release.csv", ["year", "tweets_per_release"],
                  [[y, _fmt(v, 2)] for y, v in ratios.items()])

    linked: dict[str, dict] = {}
    backlinks_path = _optional(manifest, cfg.backlinks_attached)
    if backlinks_path:
        linked = {r["release_id"]: r for r in store.read_jsonl(backlinks_path)}
        for end, pick in (("window_start", min), ("window_end", max)):
            dates = [r[end] for r in linked.values() if r.get(end)]
            if dates:
                populations[f"backlink_{end}"] = pick(dates)

    if mentions is not None and backlinks_path:
        rows = analytics.coverage_table(releases, mentions, set(linked))
        write_csv("coverage_table.csv",
                  ["year", "published", "tweeted", "pct_tweeted", "web_linked", "pct_web"],
                  [[r.year, r.published, r.tweeted, _fmt(r.pct_tweeted, 2),
                    r.web_linked, _fmt(r.pct_web, 1)] for r in rows])
        populations["coverage_table"] = sum(r.published for r in rows)

    _write(manifest, store.write_json, report / "summary.json", populations)
    manifest.counts.update(populations)


def stage_report(cfg: PipelineConfig, manifest: RunManifest) -> None:
    summary = _require(manifest, cfg.report_dir / "summary.json", "analyze output")
    report_files = sorted(p for p in cfg.report_dir.iterdir()
                          if p.is_file() and p.name != "report_manifest.json")
    payload = {
        "reports": {p.name: store.file_digest(p) for p in report_files},
        "populations": json.loads(summary.read_text(encoding="utf-8")),
    }
    _write(manifest, store.write_json, cfg.report_dir / "report_manifest.json", payload)
    manifest.counts["report_files"] = len(report_files)


_STAGES = {
    "crawl": stage_crawl,
    "parse": stage_parse,
    "ingest-tweets": stage_ingest_tweets,
    "ingest-links": stage_ingest_links,
    "couple": stage_couple,
    "analyze": stage_analyze,
    "report": stage_report,
}
COMMANDS = tuple(_STAGES)


def run(command: str, cfg: PipelineConfig) -> RunManifest:
    """Execute one pipeline stage under the output-directory lock and
    append its manifest to the run log."""
    if command not in _STAGES:
        raise PipelineError(command, f"unknown command; expected one of {', '.join(COMMANDS)}")
    manifest = RunManifest(command=command,
                           started_at=datetime.now(timezone.utc).isoformat())
    cfg.corpus_dir.mkdir(parents=True, exist_ok=True)
    with store.DirectoryLock(cfg.corpus_dir) as lock:
        if lock.broke_stale:
            manifest.counts["stale_locks_broken"] = 1
        _STAGES[command](cfg, manifest)
        manifest.finished_at = datetime.now(timezone.utc).isoformat()
        with open(cfg.run_log, "a", encoding="utf-8") as fh:
            fh.write(manifest.to_json() + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pressmetrics",
        description="Harvest press releases and compute mention, backlink, and coupling analytics.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--corpus-dir", dest="corpus_dir")
    parser.add_argument("--report-dir", dest="report_dir")
    parser.add_argument("--rate-limit", dest="rate_limit", type=float)
    parser.add_argument("--max-depth", dest="max_depth", type=int)
    parser.add_argument("--fixtures", dest="fixtures_dir",
                        help="recorded-response directory; enables fixtures mode")
    parser.add_argument("--granularity", choices=("yearly", "daily"))
    parser.add_argument("--seed-path", dest="seed_path")
    args = parser.parse_args(argv)

    try:
        file_values = load_config_file(args.config) if args.config else {}
        overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        cfg = build_config(file_values, overrides)
        manifest = run(args.command, cfg)
    except (PipelineError, ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"{args.command}: ok {json.dumps(manifest.counts, default=str)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
