"""Span recorder for the traced benchmark run.

The recorder times pressmetrics from outside: ``install`` replaces each
public function named in ``TARGETS`` with a wrapper at every module
attribute it is bound to (``scan_page`` lives in ``pagescan``, ``harvester``
and ``release_parser``; ``cli`` binds ``parse_release`` and
``release_from_dict`` itself). Each call becomes a span whose parent is the
span open when it started. A generator function gets one span per resume,
so reading a JSON Lines file is charged to whichever statistic consumes it.

Spans are aggregated as they close, keyed by (stage, parent, name): calls,
total time and self time. Self time is a span's duration minus the time its
child spans cover. ``layer_metrics`` turns the table into the per-layer
metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter

# (module, attribute); attributes with a dot are methods patched on the class
TARGETS = (
    ("pagescan", "scan_page"),
    ("harvester", "fetch_page"), ("harvester", "classify_page"),
    ("harvester", "expand_frontier"), ("harvester", "RateLimiter.acquire"),
    ("urls", "canonicalize_url"),
    ("release_parser", "parse_release"), ("release_parser", "extract_metadata"),
    ("release_parser", "extract_dois"), ("release_parser", "release_from_dict"),
    ("mention_ingest", "ingest_tweets"), ("mention_ingest", "resolve_chain"),
    ("mention_ingest", "match_to_release"), ("mention_ingest", "mention_from_dict"),
    ("backlink_ingest", "read_raw_links_csv"), ("backlink_ingest", "merge_protocol_variants"),
    ("backlink_ingest", "link_coverage_index"),
    ("coupling", "build_coupling_graph"), ("coupling", "journal_coverage"),
    ("analytics", "output_series"), ("analytics", "type_distribution"),
    ("analytics", "keyword_frequency"), ("analytics", "cooccurrence_graph"),
    ("analytics", "region_distribution"), ("analytics", "pio_ranking"),
    ("analytics", "mention_series"), ("analytics", "tweets_per_release"),
    ("analytics", "coverage_table"),
    ("rounding", "round_half_up"), ("rounding", "percentage"), ("rounding", "ratio"),
    ("store", "atomic_write_bytes"), ("store", "atomic_write_text"), ("store", "write_jsonl"),
    ("store", "write_csv"), ("store", "write_json"), ("store", "read_jsonl"),
    ("store", "file_digest"),
)

STAGES = ("crawl", "parse", "ingest-tweets", "ingest-links", "couple", "analyze", "report")
STATISTICS = ("output_series", "type_distribution", "keyword_frequency", "cooccurrence_graph",
              "region_distribution", "pio_ranking", "mention_series", "tweets_per_release",
              "coverage_table")
_STORE_WRITES = ("store.atomic_write_bytes", "store.atomic_write_text", "store.write_jsonl",
                 "store.write_csv", "store.write_json")

# every per-layer metric, in report order, with its unit
PER_LAYER = (
    [(f"cli.{stage}_s", "s") for stage in STAGES]
    + [("pagescan.scan_calls", "count"), ("pagescan.scans_per_fetch", "ratio"),
       ("pagescan.scan_s", "s"), ("pagescan.scan_bytes", "bytes"),
       ("harvester.fetches", "count"), ("harvester.fetch_s", "s"),
       ("harvester.classify_s", "s"), ("harvester.expand_s", "s"),
       ("harvester.links_examined", "count"), ("harvester.press_release_ratio", "ratio"),
       ("harvester.limiter_wait_virtual_s", "virtual_s"),
       ("urls.canonicalize_calls", "count"), ("urls.canonicalize_s", "s"),
       ("release_parser.parse_calls", "count"), ("release_parser.metadata_s", "s"),
       ("release_parser.dois_s", "s"), ("release_parser.doi_kept_ratio", "ratio"),
       ("release_parser.decode_calls", "count"), ("release_parser.decodes_per_release", "ratio"),
       ("release_parser.decode_s", "s"),
       ("mention_ingest.tweets_in", "count"), ("mention_ingest.kept_ratio", "ratio"),
       ("mention_ingest.resolve_calls.parse", "count"),
       ("mention_ingest.resolve_calls.ingest-tweets", "count"),
       ("mention_ingest.resolve_hops", "count"), ("mention_ingest.resolve_cache_hit_ratio", "ratio"),
       ("mention_ingest.resolve_s", "s"), ("mention_ingest.ingest_s", "s"),
       ("mention_ingest.mention_decode_calls", "count"), ("mention_ingest.mention_decode_s", "s"),
       ("backlink_ingest.rows_in", "count"), ("backlink_ingest.read_s", "s"),
       ("backlink_ingest.merge_s", "s"), ("backlink_ingest.attach_s", "s"),
       ("backlink_ingest.attached_ratio", "ratio"),
       ("coupling.graph_s", "s"), ("coupling.coverage_s", "s"), ("coupling.edges", "count")]
    + [(f"analytics.{name}_s", "s") for name in STATISTICS]
    + [("analytics.cooccurrence_pairs", "count"),
       ("rounding.calls", "count"), ("rounding.s", "s"),
       ("store.atomic_writes", "count"), ("store.bytes_written", "bytes"), ("store.write_s", "s"),
       ("store.jsonl_records_read", "count"), ("store.read_s", "s"),
       ("store.digest_bytes", "bytes"), ("store.digest_s", "s"),
       ("trace.spans", "count"), ("trace.overhead_ratio", "ratio")]
)


class Recorder:
    """Aggregated span table plus counters, filled by the wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stage = ""
        self.table: dict[tuple[str, str, str], list] = {}  # -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # open spans: [name, start, covered by children]

    def parent(self) -> str:
        return self._stack[-1][0] if self._stack else ""

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        row = self.table.setdefault((self.stage, self.parent(), name), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - covered

    def wrap(self, name: str, fn, observe=None, pre=None):
        """Traced stand-in for ``fn``. ``observe(rec, args, kwargs, result,
        before)`` runs after each call (each item, for a generator) with
        ``before = pre(args, kwargs)`` taken at entry."""
        rec = self
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        rec.enter(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            rec.exit()
                        if observe:
                            observe(rec, args, kwargs, item, None)
                        yield item
                finally:
                    inner.close()
            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            before = pre(args, kwargs) if pre else None
            rec.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit()
            if observe:
                observe(rec, args, kwargs, result, before)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- queries over the table ------------------------------------------------

    def calls(self, name: str, parent: str | None = None, stage: str | None = None) -> int:
        return sum(row[0] for (s, p, n), row in self.table.items()
                   if n == name and parent in (None, p) and stage in (None, s))

    def total_s(self, name: str) -> float:
        return sum(row[1] for (_, _, n), row in self.table.items() if n == name)

    def self_s(self, *names: str) -> float:
        return sum(row[2] for (_, _, n), row in self.table.items() if n in names)

    def span_count(self) -> int:
        return sum(row[0] for row in self.table.values())

    def dump(self) -> list[dict]:
        return [{"stage": s, "parent": p, "name": n, "calls": row[0],
                 "total_s": row[1], "self_s": row[2]}
                for (s, p, n), row in sorted(self.table.items())]


# -- observers: counts taken where the work happens ------------------------------

def _scan_bytes(rec, args, kwargs, result, before):
    rec.counters["pagescan.scan_bytes"] += len(args[0])


def _classified(rec, args, kwargs, result, before):
    rec.counters["harvester.press_releases"] += result.press_release


def _limiter_clock(args, kwargs):
    return args[0].clock.monotonic()


def _limiter_wait(rec, args, kwargs, result, before):
    rec.counters["harvester.limiter_wait_virtual_s"] += args[0].clock.monotonic() - before


def _dropped_before(args, kwargs):
    stats = kwargs.get("stats")
    return stats.get("dropped_doi_candidates", 0) if stats is not None else 0


def _dois(rec, args, kwargs, result, before):
    rec.counters["release_parser.dois_kept"] += len(result)
    stats = kwargs.get("stats")
    if stats is not None:
        rec.counters["release_parser.dois_dropped"] += stats.get("dropped_doi_candidates", 0) - before


def _parsed(rec, args, kwargs, result, before):
    rec.counters["release_parser.parsed"] += 1


def _resolved(rec, args, kwargs, result, before):
    rec.counters[f"mention_ingest.resolve_calls.{rec.stage}"] += 1
    rec.counters["mention_ingest.resolve_hops"] += result.depth


def _kept(rec, args, kwargs, result, before):
    rec.counters["mention_ingest.kept"] += len(result)


def _rows_in(rec, args, kwargs, result, before):
    rec.counters["backlink_ingest.rows_in"] += len(result)


def _coverage(rec, args, kwargs, result, before):
    rec.counters["backlink_ingest.aggregates"] += len(args[0])
    rec.counters["backlink_ingest.attached"] += (
        len(args[0]) - len(result.outdated) - len(result.rejected))


def _edges(rec, args, kwargs, result, before):
    rec.counters["coupling.edges"] += len(result)


def _pairs(rec, args, kwargs, result, before):
    rec.counters["analytics.cooccurrence_pairs"] += result.total_weight()


def _written(rec, args, kwargs, result, before):
    rec.counters["store.bytes_written"] += len(args[1])


def _record_read(rec, args, kwargs, item, before):
    rec.counters["store.jsonl_records_read"] += 1
    if rec.parent() == "mention_ingest.ingest_tweets":
        rec.counters["mention_ingest.tweets_in"] += 1


def _digested(rec, args, kwargs, result, before):
    rec.counters["store.digest_bytes"] += os.path.getsize(args[0])


_OBSERVERS = {
    "pagescan.scan_page": (_scan_bytes, None),
    "harvester.classify_page": (_classified, None),
    "harvester.RateLimiter.acquire": (_limiter_wait, _limiter_clock),
    "release_parser.extract_dois": (_dois, _dropped_before),
    "release_parser.parse_release": (_parsed, None),
    "mention_ingest.resolve_chain": (_resolved, None),
    "mention_ingest.ingest_tweets": (_kept, None),
    "backlink_ingest.read_raw_links_csv": (_rows_in, None),
    "backlink_ingest.link_coverage_index": (_coverage, None),
    "coupling.build_coupling_graph": (_edges, None),
    "analytics.cooccurrence_graph": (_pairs, None),
    "store.atomic_write_bytes": (_written, None),
    "store.read_jsonl": (_record_read, None),
    "store.file_digest": (_digested, None),
}


def install(rec: Recorder):
    """Patch every TARGETS function wherever pressmetrics binds it, and wrap
    ``cli.run`` so each stage opens a ``cli.<stage>`` span. Returns an undo
    callable that restores the originals."""
    undo: list[tuple[object, str, object]] = []
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "pressmetrics" or name.startswith("pressmetrics."))]
    for module_name, attr in TARGETS:
        module = sys.modules[f"pressmetrics.{module_name}"]
        name = f"{module_name}.{attr}"
        observe, pre = _OBSERVERS.get(name, (None, None))
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            undo.append((cls, method, original))
            setattr(cls, method, rec.wrap(name, original, observe, pre))
            continue
        original = getattr(module, attr)
        wrapper = rec.wrap(name, original, observe, pre)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    undo.append((m, key, original))
                    setattr(m, key, wrapper)

    cli = sys.modules["pressmetrics.cli"]
    original_run = cli.run

    def run(command, cfg):
        rec.stage = command
        rec.enter(f"cli.{command}")
        try:
            return original_run(command, cfg)
        finally:
            rec.exit()
            rec.stage = ""
    undo.append((cli, "run", original_run))
    cli.run = run

    def restore():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
    return restore


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics from one traced run; ``_s`` metrics of module
    layers are self time, ``cli.<stage>_s`` is the stage's whole span.
    ``trace.overhead_ratio`` needs an untraced run and is added by the caller."""
    c = rec.counters
    fetches = rec.calls("harvester.fetch_page")
    lookups = rec.calls("mention_ingest.match_to_release", parent="mention_ingest.ingest_tweets")
    misses = rec.calls("mention_ingest.resolve_chain", parent="mention_ingest.ingest_tweets")
    dois_kept = c["release_parser.dois_kept"]
    out = {f"cli.{stage}_s": rec.total_s(f"cli.{stage}") for stage in STAGES}
    out.update({
        "pagescan.scan_calls": rec.calls("pagescan.scan_page"),
        "pagescan.scans_per_fetch": _ratio(rec.calls("pagescan.scan_page"), fetches),
        "pagescan.scan_s": rec.self_s("pagescan.scan_page"),
        "pagescan.scan_bytes": c["pagescan.scan_bytes"],
        "harvester.fetches": fetches,
        "harvester.fetch_s": rec.self_s("harvester.fetch_page", "harvester.RateLimiter.acquire"),
        "harvester.classify_s": rec.self_s("harvester.classify_page"),
        "harvester.expand_s": rec.self_s("harvester.expand_frontier"),
        "harvester.links_examined": rec.calls("urls.canonicalize_url",
                                              parent="harvester.expand_frontier"),
        "harvester.press_release_ratio": _ratio(c["harvester.press_releases"], fetches),
        "harvester.limiter_wait_virtual_s": c["harvester.limiter_wait_virtual_s"],
        "urls.canonicalize_calls": rec.calls("urls.canonicalize_url"),
        "urls.canonicalize_s": rec.self_s("urls.canonicalize_url"),
        "release_parser.parse_calls": rec.calls("release_parser.parse_release"),
        "release_parser.metadata_s": rec.self_s("release_parser.extract_metadata"),
        "release_parser.dois_s": rec.self_s("release_parser.extract_dois"),
        "release_parser.doi_kept_ratio": _ratio(dois_kept,
                                                dois_kept + c["release_parser.dois_dropped"]),
        "release_parser.decode_calls": rec.calls("release_parser.release_from_dict"),
        "release_parser.decodes_per_release": _ratio(rec.calls("release_parser.release_from_dict"),
                                                     c["release_parser.parsed"]),
        "release_parser.decode_s": rec.self_s("release_parser.release_from_dict"),
        "mention_ingest.tweets_in": c["mention_ingest.tweets_in"],
        "mention_ingest.kept_ratio": _ratio(c["mention_ingest.kept"], c["mention_ingest.tweets_in"]),
        "mention_ingest.resolve_calls.parse": c["mention_ingest.resolve_calls.parse"],
        "mention_ingest.resolve_calls.ingest-tweets": c["mention_ingest.resolve_calls.ingest-tweets"],
        "mention_ingest.resolve_hops": c["mention_ingest.resolve_hops"],
        "mention_ingest.resolve_cache_hit_ratio": _ratio(lookups - misses, lookups),
        "mention_ingest.resolve_s": rec.self_s("mention_ingest.resolve_chain"),
        "mention_ingest.ingest_s": rec.self_s("mention_ingest.ingest_tweets"),
        "mention_ingest.mention_decode_calls": rec.calls("mention_ingest.mention_from_dict"),
        "mention_ingest.mention_decode_s": rec.self_s("mention_ingest.mention_from_dict"),
        "backlink_ingest.rows_in": c["backlink_ingest.rows_in"],
        "backlink_ingest.read_s": rec.self_s("backlink_ingest.read_raw_links_csv"),
        "backlink_ingest.merge_s": rec.self_s("backlink_ingest.merge_protocol_variants"),
        "backlink_ingest.attach_s": rec.self_s("backlink_ingest.link_coverage_index"),
        "backlink_ingest.attached_ratio": _ratio(c["backlink_ingest.attached"],
                                                 c["backlink_ingest.aggregates"]),
        "coupling.graph_s": rec.self_s("coupling.build_coupling_graph"),
        "coupling.coverage_s": rec.self_s("coupling.journal_coverage"),
        "coupling.edges": c["coupling.edges"],
    })
    out.update({f"analytics.{name}_s": rec.self_s(f"analytics.{name}") for name in STATISTICS})
    out.update({
        "analytics.cooccurrence_pairs": c["analytics.cooccurrence_pairs"],
        "rounding.calls": rec.calls("rounding.round_half_up"),
        "rounding.s": rec.self_s("rounding.round_half_up", "rounding.percentage", "rounding.ratio"),
        "store.atomic_writes": rec.calls("store.atomic_write_bytes"),
        "store.bytes_written": c["store.bytes_written"],
        "store.write_s": rec.self_s(*_STORE_WRITES),
        "store.jsonl_records_read": c["store.jsonl_records_read"],
        "store.read_s": rec.self_s("store.read_jsonl"),
        "store.digest_bytes": c["store.digest_bytes"],
        "store.digest_s": rec.self_s("store.file_digest"),
        "trace.spans": rec.span_count(),
    })
    return out
