"""Command-line pipeline binding all stages together.

Stages: crawl -> parse -> ingest-tweets / ingest-links -> couple -> analyze
-> report. Each stage reads the previous stage's files, commits its own by
rename (a page in the pack, by the manifest line after it) and appends a run
manifest to the run log, which is also the run-directory lock. Fixtures mode
(--fixtures) fetches and unshortens from recorded files on a deterministic
clock, so complete runs are byte-identical.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import sys
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field, fields
from datetime import date, datetime, timezone
from pathlib import Path
from types import SimpleNamespace

from . import analytics, backlink_ingest, coupling, harvester, mention_ingest, store
from .release_parser import (
    ParseError,
    load_alias_table,
    load_rewrite_table,
    parse_release,
    release_from_dict,
    release_to_dict,
)
from .urls import CorpusIndex

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
    granularity: str = "yearly"
    alias_institutions: Path | None = None
    alias_journals: Path | None = None
    doi_rewrites: Path | None = None
    doi_journals: Path | None = None
    external_counts: Path | None = None
    tweets_file: Path | None = None
    backlinks_file: Path | None = None
    resolver_file: Path | None = None

    # stage file layout
    pages_pack = property(lambda self: self.corpus_dir / "pages.pack")
    crawl_manifest = property(lambda self: self.corpus_dir / "crawl_manifest.jsonl")
    corpus_file = property(lambda self: self.corpus_dir / "corpus.jsonl")
    mentions_file = property(lambda self: self.corpus_dir / "mentions.jsonl")
    mention_tally = property(lambda self: self.corpus_dir / "mention_tally.json")
    backlinks_attached = property(lambda self: self.corpus_dir / "backlinks.jsonl")
    backlinks_outdated = property(lambda self: self.corpus_dir / "backlinks_outdated.jsonl")
    run_log = property(lambda self: self.corpus_dir / "run_log.jsonl")
    summary_file = property(lambda self: self.report_dir / "summary.json")


_PATH_KEYS = {f.name for f in fields(PipelineConfig) if f.type.startswith("Path")}
GRANULARITIES = ("yearly", "daily")


def load_config_file(path: str | Path) -> dict:
    """Flat key=value file; blank lines and # comments ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in values:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {values[key][1]}")
        values[key] = value, lineno
    return {key: value for key, (value, _) in values.items()}


def build_config(file_values: dict, overrides: dict) -> PipelineConfig:
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    kwargs: dict = {}
    for key, value in merged.items():
        if key == "rate_limit":
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ValueError(f"config key 'rate_limit' is not a number: {value!r}") from None
            if not 0 <= kwargs[key] < float("inf"):  # NaN or inf would spin the crawl's limiter
                raise ValueError(f"config key 'rate_limit' is not a finite number >= 0: {value!r}")
        elif key == "granularity" and value not in GRANULARITIES:
            raise ValueError(f"config key 'granularity' is not one of {', '.join(GRANULARITIES)}: "
                             f"{value!r}")
        elif key in _PATH_KEYS:
            if not value and PipelineConfig.__dataclass_fields__[key].default is not None:
                raise ValueError(f"config key {key!r} is empty")
            kwargs[key] = Path(value) if value else None
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
    counts: Counter = field(default_factory=Counter)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, ensure_ascii=False, sort_keys=True)


def _write(manifest: RunManifest, write, path: Path, *args) -> None:
    """A store writer's call, with the digest it returns recorded as an output."""
    manifest.output_digests[str(path)] = write(path, *args)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_crawl(cfg: PipelineConfig, manifest: RunManifest, inputs) -> None:
    scope = harvester.CrawlScope(inputs.seed_path, inputs.rate_limit)
    if inputs.fixtures_dir is not None:
        fetcher = harvester.DirectoryFetcher(inputs.fixtures_dir)
        clock = harvester.VirtualClock()
    else:
        fetcher = harvester.HttpFetcher()
        clock = harvester.SystemClock()
    limiter = harvester.RateLimiter(scope.rate_limit, clock)

    def entries(pack):
        for record, page_class in harvester.crawl(scope, fetcher, limiter, manifest.counts):
            # the manifest line naming this body, written after it, commits it
            pack.write(record.body)
            pack.flush()
            yield {
                "url": record.url,
                "status": record.status,
                "digest": record.body_digest,
                "length": len(record.body),
                "fetched_at": record.fetched_at.isoformat().replace("+00:00", "Z"),
                "class": page_class.value,
            }

    # the pack is rewritten as pages land, so an earlier manifest no longer describes it
    cfg.crawl_manifest.unlink(missing_ok=True)
    with open(cfg.pages_pack, "wb") as pack:
        _write(manifest, store.write_jsonl, cfg.crawl_manifest, entries(pack))


def _manifest_line(entry: dict) -> tuple:
    """A crawl manifest line's URL, digest, body length and class."""
    length = entry["length"]
    if type(length) is not int or length < 0:
        raise ValueError(f"length {length!r} is not a byte count")
    return (store.typed(entry, "url", str), store.typed(entry, "digest", str), length,
            store.member(entry, "class", harvester.PageClass))


def stage_parse(cfg: PipelineConfig, manifest: RunManifest, inputs) -> None:
    unshorten = inputs.resolver_file.unshorten
    manifest.counts.update(parsed=0, parse_errors=0, skipped_non_content=0)
    urls: dict[str, str] = {}  # release id -> canonical URL, for the collision check

    def records(pack):
        # bodies sit in manifest order, so one sequential pass reads each in turn
        for url, digest, length, page_class in inputs.crawl_manifest:
            body = pack.read(length)
            if hashlib.sha256(body).hexdigest() != digest:
                raise PipelineError("parse", f"{pack.name}: {url}'s {len(body)} of {length} bytes "
                                    f"differ from the digest that {cfg.crawl_manifest} records")
            if not page_class.press_release:
                manifest.counts["skipped_non_content"] += 1
                continue
            try:
                release = parse_release(url, body, rewrite_table=inputs.doi_rewrites,
                                        unshorten=unshorten, stats=manifest.counts)
            except ParseError as err:
                manifest.counts["parse_errors"] += 1
                manifest.counts[f"parse_errors_{err.field_name}"] += 1
                continue
            if release.id in urls:
                raise PipelineError("parse", f"release id {release.id!r} from both "
                                    f"{urls[release.id]} and {url}")
            manifest.counts["parsed"] += 1
            urls[release.id] = release.canonical_url
            yield release_to_dict(release)

    with open(inputs.pages_pack, "rb") as pack:
        _write(manifest, store.write_jsonl, cfg.corpus_file, records(pack))


def _releases(path: Path, digests: dict):
    """Each corpus release, decoded as it is read, and the one check of release identity:
    a release id or canonical URL that an earlier line has fails at its line."""
    seen: set[tuple[str, str]] = set()

    def decode(record: dict):
        release = release_from_dict(record)
        for key in (("release id", release.id), ("canonical URL", release.canonical_url)):
            if key in seen:
                raise ValueError(f"{key[0]} {key[1]!r} repeats an earlier line")
            seen.add(key)
        return release

    return store.read_jsonl(path, digests, decode)


def _mentions(path: Path, digests: dict):
    """Each mention, decoded as it is read. ingest-tweets writes them sorted by
    tweet id, so an id that is not above the line before's fails at its line."""
    last = None

    def decode(record: dict):
        nonlocal last
        mention = mention_ingest.mention_from_dict(record)
        if last is not None and mention.tweet_id <= last:
            raise ValueError(f"tweet id {mention.tweet_id!r} does not follow {last!r}")
        last = mention.tweet_id
        return mention

    return store.read_jsonl(path, digests, decode)


def stage_ingest_tweets(cfg: PipelineConfig, manifest: RunManifest, inputs) -> None:
    index = CorpusIndex.from_releases(inputs.corpus_file, inputs.seed_path)
    mentions = mention_ingest.ingest_tweets(inputs.tweets_file, inputs.resolver_file, index,
                                            stats=manifest.counts)
    _write(manifest, store.write_jsonl, cfg.mentions_file,
           map(mention_ingest.mention_to_dict, mentions))
    manifest.counts["mentions_kept"] = len(mentions)


def stage_ingest_links(cfg: PipelineConfig, manifest: RunManifest, inputs) -> None:
    index = CorpusIndex.from_releases(inputs.corpus_file, inputs.seed_path)
    aggregates = backlink_ingest.merge_protocol_variants(inputs.backlinks_file)
    coverage = backlink_ingest.link_coverage_index(aggregates, index)
    _write(manifest, store.write_jsonl, cfg.backlinks_attached,
           (backlink_ingest.aggregate_to_dict(rid, coverage.attached[rid])
            for rid in sorted(coverage.attached)))
    _write(manifest, store.write_jsonl, cfg.backlinks_outdated,
           ({"target": t} for t in sorted(coverage.outdated)))
    manifest.counts.update(
        raw_records=len(inputs.backlinks_file),
        aggregates=len(aggregates),
        attached=len(coverage.attached),
        outdated=len(coverage.outdated),
        rejected=len(coverage.rejected),
    )


def _fmt(value: float, places: int) -> str:
    return f"{value:.{places}f}"


def stage_couple(cfg: PipelineConfig, manifest: RunManifest, inputs) -> None:
    try:
        tally = coupling.CoverageTally(inputs.external_counts, inputs.alias_journals)
    except ValueError as err:
        raise PipelineError("couple", f"{cfg.external_counts}: {err}") from err
    manifest.counts["edges"] = 0

    def edge_rows():
        # one corpus pass: each release is tallied and its edges written, then dropped
        for release in inputs.corpus_file:
            tally.add(release)
            for e in coupling.build_coupling_graph([release], inputs.doi_journals):
                manifest.counts["edges"] += 1
                yield [e.release_id, e.doi, e.journal or ""]

    _write(manifest, store.write_csv, cfg.report_dir / "coupling_edges.csv",
           ["release_id", "doi", "journal"], edge_rows())
    rows = tally.rows(manifest.counts)
    _write(manifest, store.write_csv, cfg.report_dir / "journal_coverage.csv",
           ["journal", "publications_with_doi", "press_release_count", "coverage_pct"],
           [[r.journal, r.publications_with_doi, r.press_release_count,
             "" if r.coverage_pct is None else _fmt(r.coverage_pct, 1)]
            for r in rows])
    manifest.counts["journals"] = len(rows)


def _distribution_rows(dist: dict) -> list[list]:
    """Type or region table rows: count descending, ties on the value."""
    return [[key.value, n, _fmt(p, 1)]
            for key, (n, p) in sorted(dist.items(), key=lambda kv: (-kv[1][0], kv[0].value))]


def _program_digest() -> str:
    """SHA-256 over the package's sources, so that no other program's tally is reused."""
    return hashlib.sha256(b"".join(hashlib.sha256(p.name.encode() + b"\0" + p.read_bytes()).digest()
                                   for p in sorted(Path(__file__).parent.glob("*.py")))).hexdigest()


def _fold_mentions(cfg: PipelineConfig, manifest: RunManifest, fold, inputs) -> dict | None:
    """Take the mention part from a tally keyed by this program's, corpus's and mentions' digests
    (hashed once a tally is read) and return None; else fold the mentions, returning their tally."""
    key = {"program": _program_digest(), "corpus": manifest.input_digests[str(cfg.corpus_file)]}
    manifest.counts["mention_tally_reused"], read = 0, {}
    with suppress(ArithmeticError, AttributeError, KeyError, OSError, TypeError, ValueError):
        tally = store.read_json(cfg.mention_tally, read)  # a missing or bad tally is rebuilt
        key["mentions"] = read[str(cfg.mentions_file)] = store.file_digest(cfg.mentions_file)
        if tally.pop("key") == key:
            fold.take_mention_tally(tally)
            manifest.input_digests.update(read)
            manifest.counts["mention_tally_reused"] = 1
            return None
    for mention in inputs.mentions_file:
        fold.add_mention(mention)
    key["mentions"] = manifest.input_digests[str(cfg.mentions_file)]  # from the decoding read
    return {"key": key, **fold.mention_tally()}


def stage_analyze(cfg: PipelineConfig, manifest: RunManifest, inputs) -> None:
    fold = analytics.Fold(inputs.corpus_file)
    has_mentions = inputs.mentions_file is not None
    tally = has_mentions and _fold_mentions(cfg, manifest, fold, inputs)
    has_backlinks = inputs.backlinks_attached is not None
    windows: dict[str, date] = {}
    for release_id, *ends in inputs.backlinks_attached or ():
        fold.add_link(release_id)
        for (end, pick), value in zip((("window_start", min), ("window_end", max)), ends):
            if value:
                windows[end] = pick(windows.get(end, value), value)

    report = cfg.report_dir

    def write_csv(name: str, header: list[str], rows: list[list]) -> None:
        _write(manifest, store.write_csv, report / name, header, rows)

    populations: dict = {
        "corpus_total": fold.releases,
        "date_anomalous_excluded_from_series": fold.date_anomalous,
        **{f"backlink_{end}": value.isoformat() for end, value in windows.items()},
    }

    series = fold.output_series(inputs.granularity)
    write_csv("annual_output.csv", ["year" if inputs.granularity == "yearly" else "date", "count"],
              [[str(b), n] for b, n in series])
    populations["annual_output"] = sum(n for _, n in series)
    if inputs.granularity == "daily":
        peak = analytics.peak_bucket(series)
        if peak is not None:
            populations["peak_day"] = str(peak[0])
            populations["peak_day_count"] = peak[1]

    types = fold.type_distribution()
    write_csv("type_distribution.csv", ["type", "count", "pct"], _distribution_rows(types))
    populations["type_distribution"] = sum(n for n, _ in types.values())

    write_csv("keyword_frequency.csv", ["keyword", "occurrences"],
              [[k, n] for k, n in fold.keyword_frequency()])

    _write(manifest, store.write_text, report / "cooccurrence_graph.json",
           analytics.cograph_json(fold.graph))

    regions = fold.region_distribution()
    write_csv("region_distribution.csv", ["region", "count", "pct"], _distribution_rows(regions))
    populations["region_distribution"] = sum(n for n, _ in regions.values())

    write_csv("pio_ranking.csv", ["institution", "count"],
              [[name, n] for name, n in fold.pio_ranking(inputs.alias_institutions)])

    if has_mentions:
        populations["mentions"] = fold.mentions
        write_csv("mention_series.csv", ["year", "count"],
                  [[y, n] for y, n in fold.mention_series()])
        write_csv("tweets_per_release.csv", ["year", "tweets_per_release"],
                  [[y, _fmt(v, 2)] for y, v in fold.tweets_per_release().items()])

    if has_mentions and has_backlinks:
        rows = fold.coverage_table()
        write_csv("coverage_table.csv",
                  ["year", "published", "tweeted", "pct_tweeted", "web_linked", "pct_web"],
                  [[r.year, r.published, r.tweeted, _fmt(r.pct_tweeted, 2),
                    r.web_linked, _fmt(r.pct_web, 1)] for r in rows])
        populations["coverage_table"] = sum(r.published for r in rows)

    _write(manifest, store.write_json, cfg.summary_file, populations)
    if tally:  # the last write, so that a failed analyze leaves no new tally
        _write(manifest, store.write_json, cfg.mention_tally, tally)
    dict.update(manifest.counts, populations)  # set, as Counter.update would add to strings


def stage_report(cfg: PipelineConfig, manifest: RunManifest, inputs) -> None:
    summary = str(cfg.summary_file)
    wrote: dict = {}  # couple or analyze -> {path: digest} of its last run into report_dir
    for command, outputs in store.read_jsonl(cfg.run_log, None, lambda line: (
            line["command"], {path: digest for path, digest in store.typed(
                line, "output_digests", dict).items() if Path(path).parent == cfg.report_dir})):
        if outputs and command in ("couple", "analyze"):
            wrote[command] = outputs
    if summary not in wrote.get("analyze", ()):
        raise PipelineError("report", f"no analyze run in {cfg.run_log} wrote {summary}")
    reports = {}  # name -> digest of each listed file, checked to be as its stage wrote it
    for path, digest in {**wrote.get("couple", {}), **wrote["analyze"]}.items():
        if (manifest.input_digests[path] if path == summary else store.file_digest(path)) != digest:
            raise PipelineError("report", f"{path} differs from what {cfg.run_log} records")
        reports[Path(path).name] = digest
    _write(manifest, store.write_json, cfg.report_dir / "report_manifest.json",
           {"reports": reports, "populations": inputs.summary_file})
    manifest.counts["report_files"] = len(reports)


# What each stage reads: stage -> (function, the keys it cannot run without,
# the keys it reads if set). A stage file counts as a key.
_STAGES = {
    "crawl": (stage_crawl, ("seed_path",), ("rate_limit", "fixtures_dir")),
    "parse": (stage_parse, ("crawl_manifest", "pages_pack"), ("doi_rewrites", "resolver_file")),
    "ingest-tweets": (stage_ingest_tweets, ("tweets_file", "corpus_file", "seed_path"),
                      ("resolver_file",)),
    "ingest-links": (stage_ingest_links, ("backlinks_file", "corpus_file", "seed_path"), ()),
    "couple": (stage_couple, ("corpus_file", "external_counts"),
               ("alias_journals", "doi_journals")),
    "analyze": (stage_analyze, ("corpus_file",),
                ("granularity", "alias_institutions", "mentions_file", "backlinks_attached")),
    "report": (stage_report, ("summary_file",), ()),
}
COMMANDS = tuple(_STAGES)

# How a stage gets each file it reads: key -> (decode(path, digests), the value
# a stage gets when the optional table is unset). A table is read whole when its
# key is checked; a stream is a generator that reads as the stage draws from it,
# so every table fails before a stream is read. A reader is looked up when it
# runs, so that one patched after import is the one called.
_DECODERS = {
    "crawl_manifest": (lambda p, d: store.read_jsonl(p, d, _manifest_line), None),
    "doi_rewrites": (lambda p, d: load_rewrite_table(p, d), tuple),
    "resolver_file": (lambda p, d: mention_ingest.CsvResolver.from_csv(p, d),
                      mention_ingest.CsvResolver),  # with none, every URL is terminal
    "tweets_file": (lambda p, d: store.read_jsonl(p, d), None),
    "corpus_file": (_releases, None),
    "backlinks_file": (lambda p, d: backlink_ingest.read_raw_links_csv(p, d), None),
    "external_counts": (lambda p, d: coupling.load_external_counts(p, d), None),
    "alias_journals": (lambda p, d: load_alias_table(p, d), dict),
    "doi_journals": (lambda p, d: coupling.load_doi_journals(p, d), dict),
    "alias_institutions": (lambda p, d: load_alias_table(p, d), dict),
    "mentions_file": (_mentions, None),
    "backlinks_attached": (
        lambda p, d: store.read_jsonl(p, d, backlink_ingest.link_window_from_dict), None),
    "summary_file": (lambda p, d: store.read_json(p, d), None),
}


def _inputs(command: str, cfg: PipelineConfig, digests: dict) -> SimpleNamespace:
    """Each key ``command`` reads, checked, then decoded with its digest put in ``digests``:
    a required key must be set and a path that is set must exist, except an optional
    stage file, which reads as unset (None) until the stage that writes it has run."""
    _, required, optional = _STAGES[command]
    inputs = SimpleNamespace()
    for key in required + optional:
        value = getattr(cfg, key)
        if key in required and not value:
            raise PipelineError(command, f"{key} not configured")
        if isinstance(value, Path) and not value.exists():
            if key in required or key in _PATH_KEYS:
                raise PipelineError(command, f"missing prerequisite: {key} at {value} "
                                             f"(run the producing stage first)")
            value = None
        if key in _DECODERS:  # an unset stage file stays None
            decode, unset = _DECODERS[key]
            value = decode(value, digests) if value is not None else unset and unset()
        setattr(inputs, key, value)
    return inputs


def run(command: str, cfg: PipelineConfig) -> RunManifest:
    """Execute one pipeline stage holding an exclusive flock on the run log,
    which the kernel drops however this process ends, and append its manifest
    to that log; a second run on the same corpus directory fails at once."""
    if command not in _STAGES:
        raise PipelineError(command, f"unknown command; expected one of {', '.join(COMMANDS)}")
    manifest = RunManifest(command=command,
                           started_at=datetime.now(timezone.utc).isoformat())
    if command == "crawl":
        cfg.corpus_dir.mkdir(parents=True, exist_ok=True)
    elif not cfg.corpus_dir.is_dir():  # only crawl creates it, so a mistyped path is refused
        raise PipelineError(command, f"missing prerequisite: corpus_dir at {cfg.corpus_dir}")
    with open(cfg.run_log, "a", encoding="utf-8") as log:
        try:
            fcntl.flock(log, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RuntimeError(f"output directory is locked by another run: {cfg.run_log}") from None
        # checked and decoded under the lock, so that no other run is writing what is read
        _STAGES[command][0](cfg, manifest, _inputs(command, cfg, manifest.input_digests))
        manifest.finished_at = datetime.now(timezone.utc).isoformat()
        log.write(manifest.to_json() + "\n")
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
    parser.add_argument("--fixtures", dest="fixtures_dir",
                        help="recorded-response directory; enables fixtures mode")
    parser.add_argument("--granularity", choices=GRANULARITIES)
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
