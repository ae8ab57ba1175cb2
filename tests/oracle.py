"""Independent brute-force oracle over the fixture ground truth.

Computes every expected statistic with plain loops and dict counting,
straight from site_truth.json and the fixture CSV/JSONL files. Deliberately
imports nothing from the package under test; rounding goes through
fractions instead of decimal so even the rounding path is independent.
"""

import csv
import json
from fractions import Fraction
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"


def pct_half_up(numerator, denominator, places):
    """Half-up percentage via exact rational arithmetic."""
    scaled = Fraction(numerator * 100, denominator) * 10 ** places
    floored = scaled.numerator // scaled.denominator
    if (scaled - floored) * 2 >= 1:
        floored += 1
    return floored / 10 ** places


def ratio_half_up(numerator, denominator, places=2):
    scaled = Fraction(numerator, denominator) * 10 ** places
    floored = scaled.numerator // scaled.denominator
    if (scaled - floored) * 2 >= 1:
        floored += 1
    return floored / 10 ** places


def load_truth():
    return json.loads((FIXTURES / "site_truth.json").read_text(encoding="utf-8"))


def page_class_counts(truth):
    counts = {}
    for page in truth["pages"]:
        counts[page["class"]] = counts.get(page["class"], 0) + 1
    return counts


def annual_series(truth):
    counts = {}
    for rel in truth["releases"]:
        if rel["date_anomaly"]:
            continue
        year = int(rel["date"][:4])
        counts[year] = counts.get(year, 0) + 1
    return dict(sorted(counts.items()))


def daily_series(truth):
    counts = {}
    for rel in truth["releases"]:
        if rel["date_anomaly"]:
            continue
        counts[rel["date"]] = counts.get(rel["date"], 0) + 1
    return dict(sorted(counts.items()))


def type_counts(truth):
    counts = {}
    for rel in truth["releases"]:
        counts[rel["type"]] = counts.get(rel["type"], 0) + 1
    return counts


def keyword_counts(truth):
    counts = {}
    for rel in truth["releases"]:
        for kw in set(rel["keywords"]):
            counts[kw] = counts.get(kw, 0) + 1
    return counts


def cooccurrence_edges(truth):
    """O(n * k^2) pair counter: every unordered distinct-keyword pair of
    every release gains weight one."""
    weights = {}
    for rel in truth["releases"]:
        kws = sorted(set(rel["keywords"]))
        for i in range(len(kws)):
            for j in range(i + 1, len(kws)):
                pair = (kws[i], kws[j])
                weights[pair] = weights.get(pair, 0) + 1
    return weights


def link_strengths(truth):
    strength = {}
    for rel in truth["releases"]:
        for kw in set(rel["keywords"]):
            strength.setdefault(kw, 0)
    for (a, b), w in cooccurrence_edges(truth).items():
        strength[a] += w
        strength[b] += w
    return strength


def region_counts(truth):
    counts = {}
    for rel in truth["releases"]:
        if rel["region"] == "unknown":
            continue
        counts[rel["region"]] = counts.get(rel["region"], 0) + 1
    return counts


def load_alias_csv(path):
    table = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            table[" ".join(row["variant"].split()).lower()] = row["canonical"]
    for canonical in list(table.values()):
        table[" ".join(canonical.split()).lower()] = canonical
    return table


def pio_counts(truth):
    aliases = load_alias_csv(FIXTURES / "aliases_institutions.csv")
    counts = {}
    for rel in truth["releases"]:
        folded = " ".join(rel["institution_display"].split()).lower()
        name = aliases.get(folded, folded)
        counts[name] = counts.get(name, 0) + 1
    return counts


def ranked(counts):
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def doi_pairs(truth):
    pairs = set()
    for rel in truth["releases"]:
        for doi in rel["dois"]:
            pairs.add((rel["id"], doi["normalized"]))
    return pairs


def releases_with_doi(truth):
    return sum(1 for rel in truth["releases"] if rel["dois"])


# ---------------------------------------------------------------------------
# Mention / backlink joins
# ---------------------------------------------------------------------------

def load_resolver_hops(path):
    hops = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            hops[row["from_url"]] = row["to_url"] or None  # None = dead
    return hops


def naive_canonical(url):
    rest = url.split("://", 1)[1] if "://" in url else url
    host, slash, path = rest.partition("/")
    path = path.split("#", 1)[0].split("?", 1)[0]
    while "//" in path:
        path = path.replace("//", "/")
    return "https://" + host.lower() + "/" + path


def naive_resolve(url, hops, max_depth=5):
    """Walk the hop table; returns the canonical final URL."""
    current = url
    seen = [url]
    while current in hops and len(seen) - 1 < max_depth:
        nxt = hops[current]
        if nxt is None:  # dead
            break
        if nxt in seen:
            break
        seen.append(nxt)
        current = nxt
    return naive_canonical(current)


def expected_mentions(truth, tweets_path, resolver_path, fold="www.eksci.test/releases/"):
    """Hand-rule reimplementation of the cleansing: drop retweets and
    malformed rows, dedupe ids, keep tweets with >= 1 in-fold final URL.
    Returns {tweet_id: {"year": ..., "release_ids": [...]}}."""
    url_to_id = {r["url"]: r["id"] for r in truth["releases"]}
    hops = load_resolver_hops(resolver_path)
    kept = {}
    with open(tweets_path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "created_at" not in rec or "tweet_id" not in rec or "urls" not in rec:
                continue
            if rec["is_retweet"]:
                continue
            if rec["tweet_id"] in kept:
                continue
            finals = [naive_resolve(u, hops) for u in rec["urls"]]
            in_fold = [f for f in finals if f.split("://", 1)[1].startswith(fold)]
            if not in_fold:
                continue
            release_ids = []
            for f in finals:
                rid = url_to_id.get(f)
                if rid is not None and rid not in release_ids:
                    release_ids.append(rid)
            kept[rec["tweet_id"]] = {
                "year": int(rec["created_at"][:4]),
                "release_ids": release_ids,
                "finals": finals,
            }
    return kept


def expected_backlink_attachment(truth, backlinks_path, fold="www.eksci.test/releases/"):
    """Merge protocol variants by summing counts / maxing flows, then split
    targets into attached / outdated / rejected."""
    url_to_id = {r["url"]: r["id"] for r in truth["releases"]}
    merged = {}
    with open(backlinks_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            target = naive_canonical(row["target_url"])
            slot = merged.setdefault(target, {"webpages": 0, "websites": 0, "cf": 0, "tf": 0})
            slot["webpages"] += int(row["mentioning_webpages"])
            slot["websites"] += int(row["mentioning_websites"])
            slot["cf"] = max(slot["cf"], int(row["citation_flow"]))
            slot["tf"] = max(slot["tf"], int(row["trust_flow"]))
    attached, outdated, rejected = {}, [], []
    for target, slot in merged.items():
        rid = url_to_id.get(target)
        if rid is not None:
            attached[rid] = slot
        elif target.split("://", 1)[1].startswith(fold):
            outdated.append(target)
        else:
            rejected.append(target)
    return attached, outdated, rejected


def expected_coverage_rows(truth, tweets_path, resolver_path, backlinks_path):
    """Brute-force join: per release-publication year, how many releases
    were tweeted / web-linked at least once (outdated URLs excluded by the
    match itself)."""
    mentions = expected_mentions(truth, tweets_path, resolver_path)
    attached, _, _ = expected_backlink_attachment(truth, backlinks_path)
    tweeted_ids = set()
    for m in mentions.values():
        tweeted_ids.update(m["release_ids"])
    rows = {}
    for rel in truth["releases"]:
        if rel["date_anomaly"]:
            continue
        year = int(rel["date"][:4])
        row = rows.setdefault(year, {"published": 0, "tweeted": 0, "web_linked": 0})
        row["published"] += 1
        if rel["id"] in tweeted_ids:
            row["tweeted"] += 1
        if rel["id"] in attached:
            row["web_linked"] += 1
    out = []
    for year in sorted(rows):
        row = rows[year]
        out.append({
            "year": year,
            "published": row["published"],
            "tweeted": row["tweeted"],
            "pct_tweeted": pct_half_up(row["tweeted"], row["published"], 2),
            "web_linked": row["web_linked"],
            "pct_web": pct_half_up(row["web_linked"], row["published"], 1),
        })
    return out


def expected_tweets_per_release(truth, tweets_path, resolver_path):
    mentions = expected_mentions(truth, tweets_path, resolver_path)
    year_of_release = {r["id"]: int(r["date"][:4])
                       for r in truth["releases"] if not r["date_anomaly"]}
    published = {}
    for year in year_of_release.values():
        published[year] = published.get(year, 0) + 1
    same_year = {}
    for m in mentions.values():
        if any(year_of_release.get(rid) == m["year"] for rid in m["release_ids"]):
            same_year[m["year"]] = same_year.get(m["year"], 0) + 1
    return {year: ratio_half_up(same_year.get(year, 0), n)
            for year, n in sorted(published.items())}


def cograph_document(graph):
    """The network JSON of a keyword co-occurrence graph (anything with
    ``nodes``, ``edges`` and ``link_strength`` counters), built whole: nodes
    carry occurrence counts and link strength, links carry pair weights, and
    keywords are numbered from 1 in sorted order."""
    order = {keyword: i + 1 for i, keyword in enumerate(sorted(graph.nodes))}
    nodes = [{"id": order[k], "label": k, "occurrences": graph.nodes[k],
              "link_strength": graph.link_strength[k]} for k in sorted(graph.nodes)]
    links = [{"source": order[a], "target": order[b], "weight": w}
             for (a, b), w in sorted(graph.edges.items())]
    return {"nodes": nodes, "links": links}


def matched_release_ids(mention):
    """The distinct releases a decoded mention matched, in first-match order."""
    return list(dict.fromkeys(m.release_id for m in mention.matches if m.kind == "matched"))
