"""Seeded synthetic inputs for the pressmetrics benchmark.

``generate(workload, seed, out_dir)`` writes a crawlable fixture site plus
the tweet archive, redirect table, backlink CSV and the alias, rewrite and
external-count tables that one workload needs, and returns the ground truth
(expected stage counts and input sizes) derived from how the inputs were
built. The same (workload, seed) always gives byte-identical files.

Release pages follow the bundled fixture pages (tests/fixtures/gen_site.py):
the same meta block, the same ten DOI presentations and the same kinds of
non-content page. This module is deliberately independent of the package
under test, so the truth it returns can check the pipeline's counts.
"""

from __future__ import annotations

import csv
import io
import json
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

HOST = "news.benchsci.test"
FOLD = f"{HOST}/releases/"
BASE = f"https://{HOST}"
FIRST_YEAR = 1997
YEARS = 25                # years of releases, from FIRST_YEAR


@dataclass(frozen=True)
class Spec:
    """Size and shape of one workload's inputs."""

    releases: int
    big_page_share: float   # share of release pages carrying ~30 KB of boilerplate
    tweets: int
    backlink_rows: int
    institutions: int
    journals: int
    vocabulary: int


WORKLOADS = {
    "crawl-parse": Spec(releases=400, big_page_share=0.5, tweets=1_000, backlink_rows=300,
                        institutions=300, journals=120, vocabulary=300),
    "reanalyze": Spec(releases=1_500, big_page_share=0.0, tweets=20_000, backlink_rows=6_000,
                      institutions=1_000, journals=300, vocabulary=300),
}

DOI_KINDS = ("text", "dup", "link", "dxlink", "label", "paren", "broken", "dslash", "short", "desc")
NON_CONTENT_KINDS = ("sitemap", "form", "maintenance", "empty", "txt", "dead")
NON_CONTENT_SHARE = 0.05
PAGE_SIZE = 40            # releases listed per year-index page
SHORT_HOSTS = ("t.sh", "bit.ex", "ow.ex", "lnk.ex", "rd.ex")
ACTA = "Acta Synthetica"

_SYLLABLES = ("nor", "val", "ber", "kin", "sal", "mar", "tor", "lan",
              "dun", "fel", "ash", "riv", "hol", "cam", "wes", "bri")
_INST_KINDS = ("University of {}", "{} Institute of Technology", "{} Medical Center",
               "{} National Laboratory", "{} College", "{} Research Council")
_JOURNAL_PREFIX = ("Journal of", "Annals of", "Letters in", "Reviews of", "Progress in",
                   "Bulletin of")
_FIELDS = ("Biology", "Chemistry", "Physics", "Medicine", "Ecology", "Genetics", "Geology",
           "Astronomy", "Oncology", "Neuroscience", "Immunology", "Virology", "Botany",
           "Zoology", "Epidemiology", "Nutrition", "Psychology", "Economics", "Robotics",
           "Materials", "Oceanography", "Climatology", "Hydrology", "Optics", "Acoustics",
           "Cardiology", "Dermatology", "Pharmacology", "Toxicology", "Pathology",
           "Agronomy", "Forestry", "Mycology", "Entomology", "Paleontology", "Seismology",
           "Volcanology", "Glaciology", "Limnology", "Ornithology", "Microbiology",
           "Biophysics", "Biochemistry", "Cryptography", "Linguistics", "Archaeology",
           "Anthropology", "Statistics", "Informatics", "Photonics")
_ADJECTIVES = ("cell", "marine", "urban", "quantum", "public", "climate", "soil", "brain",
               "plant", "solar", "ocean", "forest", "human", "animal", "space", "food",
               "water", "energy", "data", "child")
_NOUNS = ("biology", "health", "change", "physics", "chemistry", "ecology", "genetics",
          "science", "policy", "systems", "modeling", "imaging", "therapy", "evolution",
          "behavior", "materials", "networks", "safety", "sensing", "medicine")
_TYPES = (("Research", 70), ("Business", 5), ("Grant", 5), ("Award", 4), ("Meeting", 4),
          ("Book", 2), ("Media", 3), ("Pubmeeting", 3), ("Dissertation", 2), ("Editorial", 2))
_REGIONS = (("North America", 40), ("Europe", 30), ("Asia", 15), ("Oceania", 4),
            ("Africa", 3), ("South America", 3), ("EUROPE", 2), (None, 3))
_FUNDERS = ("National Fixture Fund", "Redwood Trust", "Blue Water Grant Board",
            "Halloway Endowment", "Open Science Foundation", "")
_MEETINGS = ("Orbital Mechanics Symposium", "Reef Futures Briefing", "Annual Health Forum")
_WORDS = ("the", "study", "team", "results", "new", "data", "researchers", "found", "that",
          "a", "of", "in", "and", "to", "with", "from", "model", "samples", "field", "early",
          "measured", "effect", "across", "years", "shows", "method", "analysis", "growth",
          "response", "levels", "higher", "lower", "during", "after", "before", "trial",
          "patients", "species", "region", "network", "signal", "protein", "climate",
          "surface", "pressure", "cells", "energy", "sites", "survey", "observed", "rate",
          "public", "health", "future", "work", "support", "grant", "program", "press",
          "office", "announced", "today", "published", "journal", "findings", "could",
          "help", "explain", "why", "some", "more", "than", "expected", "over", "time")


def _zipf_cum_weights(n: int, s: float = 1.1) -> list[float]:
    return list(accumulate(1.0 / (k ** s) for k in range(1, n + 1)))


def _pick(rng: random.Random, cum: list[float]) -> int:
    return bisect(cum, rng.random() * cum[-1])


def _place(i: int) -> str:
    n = len(_SYLLABLES)
    return (_SYLLABLES[i % n] + _SYLLABLES[(i // n) % n] + _SYLLABLES[(i // n // n) % n]).title()


def institution_names(n: int) -> list[str]:
    return [_INST_KINDS[i % len(_INST_KINDS)].format(_place(i // len(_INST_KINDS) + 7))
            for i in range(n)]


def journal_names(n: int) -> list[str]:
    names = [ACTA]
    i = 0
    while len(names) < n:
        names.append(f"{_JOURNAL_PREFIX[i % len(_JOURNAL_PREFIX)]} "
                     f"{_FIELDS[(i // len(_JOURNAL_PREFIX)) % len(_FIELDS)]}")
        i += 1
    return names


def vocabulary(n: int) -> list[str]:
    terms = [f"{a} {b}" for b in _NOUNS for a in _ADJECTIVES]
    return terms[:n]


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Release pages
# ---------------------------------------------------------------------------

@dataclass
class Release:
    rid: str
    year: int
    path: str
    meta: list[tuple[str, str]]
    body_bits: list[str]
    big: bool

    @property
    def url(self) -> str:
        return f"{BASE}/{self.path}"


def _doi_markup(kind: str, doi: str, short_url: str) -> tuple[str, str]:
    """(body fragment, description fragment) for one DOI presentation."""
    prefix, suffix = doi.split("/", 1)
    return {
        "text": (f"<p>Full study: {doi}</p>", ""),
        "dup": (f'<p><a href="https://doi.org/{doi}">Read the paper</a> or cite {doi} directly.</p>', ""),
        "link": (f'<p><a href="https://doi.org/{doi}">Read the paper</a></p>', ""),
        "dxlink": (f'<p><a href="http://dx.doi.org/{doi}">Publication record</a></p>', ""),
        "label": (f"<p>Reference: doi:{doi}.</p>", ""),
        "paren": (f"<p>The findings appear this week ({doi}).</p>", ""),
        "broken": (f"<p>Article: https://doi.org/{prefix} {suffix}</p>", ""),
        "dslash": (f"<p>Source: {prefix}//{suffix}</p>", ""),
        "short": (f'<p><a href="{short_url}">Paper (mirror)</a></p>', ""),
        "desc": ("", f" See doi:{doi} for details."),
    }[kind]


class _Boilerplate:
    """Shared site chrome for the large pages: a navigation block of 100+
    anchors (mostly off-scope), inline script and style, and a pool of
    filler paragraphs. None of it contains a DOI or a press-release meta tag."""

    def __init__(self, rng: random.Random, years: list[int]):
        nav = ['<a href="#top">Skip to content</a>', '<a href="/releases/">Newsroom</a>']
        nav += [f'<a href="/releases/{y}/">{y}</a>' for y in years[-8:]]
        for i in range(60):
            nav.append(f'<a href="https://www.campus{i % 7}.test/dept/{_FIELDS[i % len(_FIELDS)].lower()}'
                       f'/page-{i}.html">{_FIELDS[i % len(_FIELDS)]} department</a>')
        for i in range(30):
            nav.append(f'<a href="/outside/services/{i}.html">Service {i}</a>')
        nav += ['<a href="mailto:press@benchsci.test">Press office</a>',
                '<a href="javascript:void(0)">Menu</a>',
                '<a href="https://social.example/benchsci">Follow us</a>']
        for i in range(12):
            nav.append(f'<a href="https://partner{i}.example/">Partner {i}</a>')
        self.nav = "<nav><ul>\n" + "\n".join(f"<li>{a}</li>" for a in nav) + "\n</ul></nav>"
        self.script = ("<script>\nvar siteConfig = {sections: [" +
                       ", ".join(f'"s{i}"' for i in range(120)) +
                       "], tracking: false, theme: 'light'};\n" +
                       "".join(f"function handler{i}(e) {{ return e && e.target ? {i} : 0; }}\n"
                               for i in range(40)) + "</script>")
        self.style = ("<style>\n" + "".join(
            f".block-{i} {{ margin: {i % 9}px; padding: {i % 5}px; color: #{i * 37 % 4096:03x}; }}\n"
            for i in range(90)) + "</style>")
        self.paragraphs = [
            "<p>" + " ".join(rng.choice(_WORDS) for _ in range(rng.randint(70, 130))) + ".</p>"
            for _ in range(200)
        ]

    def body(self, rng: random.Random) -> str:
        return "\n".join(rng.choice(self.paragraphs) for _ in range(22))


def _render_release(rel: Release, chrome: _Boilerplate | None, rng: random.Random) -> bytes:
    head = ['<meta charset="utf-8">',
            f"<title>{rel.rid}: announcement</title>"]
    head += [f'<meta name="{name}" content="{value}">' for name, value in rel.meta]
    description = dict(rel.meta).get("description", "")
    body = [f"<h1>Announcement {rel.rid}</h1>", f"<p>{description}</p>", *rel.body_bits,
            '<p><a href="/releases/">All releases</a> · '
            '<a href="https://elsewhere.example/syndication">Syndicated copy</a></p>']
    if chrome is not None:
        head += [chrome.style, chrome.script]
        body = [chrome.nav, *body, chrome.body(rng)]
    return ("<!DOCTYPE html>\n<html><head>\n" + "\n".join(head) + "\n</head><body>\n"
            + "\n".join(body) + "\n</body></html>\n").encode("utf-8")


def _index_page(title: str, items: list[str], extra: list[str]) -> bytes:
    return (f'<!DOCTYPE html>\n<html><head><meta charset="utf-8"><title>{title}</title>'
            f"</head><body>\n<h1>{title}</h1>\n<ul>\n" + "\n".join(items)
            + "\n</ul>\n<p>" + "\n".join(extra) + "</p>\n"
            '<p><a href="/releases/">Back</a></p>\n</body></html>\n').encode("utf-8")


_NON_CONTENT_BODY = {
    "form": ('<!DOCTYPE html>\n<html><head><meta charset="utf-8"><title>Contact the press office'
             '</title></head><body>\n<form action="/releases/submit" method="post">'
             '<input name="email"><textarea name="message"></textarea>'
             "<button>Send</button></form>\n</body></html>\n"),
    "maintenance": ('<!DOCTYPE html>\n<html><head><meta charset="utf-8"><title>503 Service '
                    "Unavailable - scheduled maintenance</title></head><body>\n<p>The press "
                    "release service is temporarily unavailable.</p>\n</body></html>\n"),
    "empty": "",
    "txt": "plain text crawler notes; not a hypertext document\n",
}
_NON_CONTENT_EXT = {"sitemap": "xml", "txt": "txt"}


def _build_site(spec: Spec, rng: random.Random, site: Path, truth: dict) -> dict:
    """Write the site; return what the evidence generators need."""
    institutions = institution_names(spec.institutions)
    journals = journal_names(spec.journals)
    terms = vocabulary(spec.vocabulary)
    kw_cum = _zipf_cum_weights(len(terms))
    inst_cum = _zipf_cum_weights(len(institutions), 0.8)
    journal_cum = _zipf_cum_weights(len(journals), 0.9)
    type_cum = list(accumulate(w for _, w in _TYPES))
    region_cum = list(accumulate(w for _, w in _REGIONS))
    years = list(range(FIRST_YEAR, FIRST_YEAR + YEARS))
    year_cum = list(accumulate(1 + 0.05 * k for k in range(len(years))))

    n_big = round(spec.releases * spec.big_page_share)
    big_flags = [True] * n_big + [False] * (spec.releases - n_big)
    rng.shuffle(big_flags)
    n_anomalous = max(1, spec.releases // 500)
    n_bad_date = max(1, spec.releases // 1000)
    chrome = _Boilerplate(rng, years) if n_big else None

    releases: list[Release] = []
    seq: dict[int, int] = {}
    short_rows: list[tuple[str, str]] = []
    doi_counter = rng.randrange(len(DOI_KINDS))
    presentations: dict[str, int] = {}
    for i in range(spec.releases + n_bad_date):
        anomalous = i < n_anomalous
        bad_date = i >= spec.releases
        year = rng.randint(1960, 1990) if anomalous else years[_pick(rng, year_cum)]
        seq[year] = seq.get(year, 0) + 1
        org = _pick(rng, inst_cum)
        rid = f"{_place(org // len(_INST_KINDS) + 7).lower()}-{year}{seq[year]:05d}"
        subdir = "archive" if anomalous else str(year)
        ptype = _TYPES[bisect(type_cum, rng.random() * type_cum[-1])][0]
        region = _REGIONS[bisect(region_cum, rng.random() * region_cum[-1])][0]
        kws: list[str] = []
        for _ in range(rng.randint(1, 8)):
            term = terms[_pick(rng, kw_cum)]
            if term not in kws:
                kws.append(term)
        names = [journals[_pick(rng, journal_cum)]] if ptype == "Research" else []
        if names and rng.random() < 0.15:
            names.append(journals[_pick(rng, journal_cum)])
        n_dois = (rng.choice((1, 1, 1, 2, 3)) if ptype == "Research"
                  else (1 if rng.random() < 0.1 else 0))
        body_bits, desc_extra = [], ""
        for k in range(n_dois):
            kind = DOI_KINDS[doi_counter % len(DOI_KINDS)]
            doi_counter += 1
            presentations[kind] = presentations.get(kind, 0) + 1
            if kind == "dslash":
                names = [ACTA] + [j for j in names if j != ACTA]
            j = journals.index(names[0]) if names else 0
            doi = (f"10.{1000 + j}/acta-{year}-{seq[year]:05d}{k}" if kind == "dslash"
                   else f"10.{1000 + j}/j{j:03d}.{year}.{seq[year]:05d}{k}")
            short_url = f"https://doi.sh/{rid}-{k}"
            if kind == "short":
                short_rows.append((short_url, f"https://doi.org/{doi}"))
            frag, dfrag = _doi_markup(kind, doi, short_url)
            if frag:
                body_bits.append(frag)
            desc_extra += dfrag
        if n_dois and rng.random() < 0.1:
            # resolver link without a DOI behind it: a candidate the parser must drop
            body_bits.append('<p><a href="https://doi.org/pending">DOI pending</a></p>')
        display = institutions[org]
        if rng.random() < 0.3:
            display = display + rng.choice((" Press Office", " (Main Campus)"))
        description = f"Researchers at {display} report new findings on {kws[0]}.{desc_extra}"
        date = f"{year}-02-30" if bad_date else f"{year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
        meta = [("keywords", ", ".join(k.title() for k in kws)), ("description", description),
                ("date", date)]
        funder = rng.choice(_FUNDERS)
        if funder:
            meta.append(("funder", funder))
        if names:
            meta.append(("journal", "; ".join(names)))
        meta += [("type", ptype.upper() if rng.random() < 0.02 else ptype),
                 ("institution", display)]
        if ptype in ("Meeting", "Pubmeeting"):
            meta.append(("meeting", rng.choice(_MEETINGS)))
        if region is not None:
            meta.append(("region", region))
        big = big_flags[i] if i < spec.releases else False
        releases.append(Release(rid, year, f"releases/{subdir}/{rid}.html", meta, body_bits, big))

    pages: dict[str, bytes] = {}
    for rel in releases:
        pages[rel.path] = _render_release(rel, chrome if rel.big else None, rng)

    # non-content pages: ~5 % of the site, spread over the year directories
    n_non = round(NON_CONTENT_SHARE * spec.releases)
    n_non += rng.randint(-n_non // 20, n_non // 20)
    non_content: dict[int, list[tuple[str, str]]] = {}
    non_content_kinds: dict[str, int] = {}
    for n in range(n_non):
        kind = rng.choice(NON_CONTENT_KINDS)
        non_content_kinds[kind] = non_content_kinds.get(kind, 0) + 1
        year = rng.choice(years)
        path = f"releases/{year}/{kind}-{n}.{_NON_CONTENT_EXT.get(kind, 'html')}"
        non_content.setdefault(year, []).append((kind, path))
        if kind == "sitemap":
            locs = "\n".join(f"  <url><loc>{r.url}</loc></url>" for r in releases[:5])
            pages[path] = f'<?xml version="1.0" encoding="UTF-8"?>\n<urlset>\n{locs}\n</urlset>\n'.encode()
        elif kind != "dead":
            pages[path] = _NON_CONTENT_BODY[kind].encode("utf-8")

    by_year: dict[str, list[Release]] = {}
    for rel in releases:
        by_year.setdefault(rel.path.split("/")[1], []).append(rel)
    index_pages = 0
    for year in years:
        items = by_year.get(str(year), [])
        chunks = [items[k:k + PAGE_SIZE] for k in range(0, len(items), PAGE_SIZE)] or [[]]
        for page_no, chunk in enumerate(chunks, 1):
            links = [f'<li><a href="/{r.path}">{r.rid}</a></li>' for r in chunk]
            extra = []
            if page_no < len(chunks):
                extra.append(f'<a href="page-{page_no + 1}.html">Next page</a>')
            if page_no == 1:
                extra += [f'<a href="{p.rsplit("/", 1)[1]}">{kind}</a>'
                          for kind, p in non_content.get(year, [])]
                if chunk:
                    r = rng.choice(chunk)
                    extra += [f'<a href="/{r.path}?utm_source=feed">tracked</a>',
                              f'<a href="http://{HOST}/{r.path}#abstract">http variant</a>']
                extra += ['<a href="https://elsewhere.example/about.html">about</a>',
                          '<a href="/outside/top.html">campus home</a>',
                          '<a href="mailto:press@benchsci.test">write us</a>']
            name = "index.html" if page_no == 1 else f"page-{page_no}.html"
            pages[f"releases/{year}/{name}"] = _index_page(f"Releases {year} page {page_no}",
                                                            links, extra)
            index_pages += 1

    archive = [f'<li><a href="/{r.path}">{r.rid}</a></li>'
               for r in releases if r.path.startswith("releases/archive/")]
    pages["releases/index.html"] = _index_page(
        "Press release index", [f'<li><a href="{y}/">{y}</a></li>' for y in years] + archive,
        ['<a href="https://elsewhere.example/about.html">about the consortium</a>',
         '<a href="mailto:press@benchsci.test">write us</a>',
         f'<a href="http://{HOST}/releases/#top">home</a>'])
    index_pages += 1

    for path, data in pages.items():
        target = site / HOST / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)

    fetched = len(releases) + index_pages + n_non
    truth.update({
        "fetched": fetched,
        "press_releases": len(releases),
        "parsed": spec.releases,
        "pages_bytes": sum(len(b) for b in pages.values()),
        "big_pages": n_big,
        "doi_presentations": dict(sorted(presentations.items())),
        "non_content": dict(sorted(non_content_kinds.items())),
    })
    return {"releases": releases[:spec.releases], "short_rows": short_rows, "journals": journals,
            "institutions": institutions}


# ---------------------------------------------------------------------------
# Tweets, redirects, backlinks
# ---------------------------------------------------------------------------

class _Redirects:
    """Redirect-table rows for short-URL chains; chains are reused per key."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.rows: list[tuple[str, str]] = []
        self.heads: dict[tuple, list[str]] = {}
        self._n = 0

    def _code(self) -> str:
        self._n += 1
        return f"c{self._n:x}"

    def chain(self, key: tuple, target: str | None, reuse: float = 0.7) -> str:
        """Head of a 1-4 hop chain ending at ``target``; ``None`` targets
        make a cycle (key[0] == 'cycle') or a dead link (key[0] == 'dead')."""
        pool = self.heads.setdefault(key, [])
        if pool and self.rng.random() < reuse:
            return self.rng.choice(pool)
        code = self._code()
        hops = self.rng.randint(1, 4) if target is not None else self.rng.randint(2, 3)
        urls = [f"https://{SHORT_HOSTS[h]}/{code}" for h in range(hops)]
        if key[0] == "cycle":
            self.rows += list(zip(urls, urls[1:])) + [(urls[-1], urls[1 if hops > 2 else 0])]
        elif key[0] == "dead":
            self.rows += list(zip(urls, urls[1:])) + [(urls[-1], "")]
        else:
            self.rows += list(zip(urls, urls[1:] + [target]))
        pool.append(urls[0])
        return urls[0]


def _release_variant(rng: random.Random, rel: Release) -> str:
    return rng.choice((f"http://{HOST}/{rel.path}", f"{rel.url}?utm_source=tw",
                       f"{rel.url}#comments", f"https://{HOST.upper()}/{rel.path}"))


def _tweets(spec: Spec, rng: random.Random, releases: list[Release], redirects: _Redirects,
            out: Path, truth: dict) -> None:
    order = list(range(len(releases)))
    rng.shuffle(order)
    pop_cum = _zipf_cum_weights(len(releases), 0.9)
    lines: list[str] = []
    kept: set[str] = set()
    issued: list[str] = []
    outdated_n = offscope_n = 0
    for n in range(spec.tweets):
        tweet_id = f"{n:09d}"
        if issued and rng.random() < 0.01:
            tweet_id = rng.choice(issued)
        issued.append(tweet_id)
        urls: list = []
        outcomes: list[str] = []
        first = None
        for _ in range(rng.choice((1, 1, 1, 2, 2, 3))):
            rel = releases[order[_pick(rng, pop_cum)]]
            first = first or rel
            roll = rng.random()
            if roll < 0.30:
                url, outcome = rel.url, "matched"
            elif roll < 0.45:
                url, outcome = _release_variant(rng, rel), "matched"
            elif roll < 0.67:
                url, outcome = redirects.chain(("release", rel.rid), rel.url), "matched"
            elif roll < 0.69:
                outdated_n += 1
                url = redirects.chain(("outdated", outdated_n % 50),
                                      f"{BASE}/releases/{rel.year}/gone-{outdated_n % 50}.html")
                outcome = "outdated"
            elif roll < 0.71:
                url, outcome = redirects.chain(("offscope", rel.rid), f"https://blog.example/{rel.rid}"), "out"
            elif roll < 0.73:
                url, outcome = redirects.chain(("cycle", rng.randrange(40)), None), "out"
            elif roll < 0.75:
                url, outcome = redirects.chain(("dead", rng.randrange(40)), None), "out"
            elif roll < 0.83:
                outdated_n += 1
                url, outcome = f"{BASE}/releases/{rel.year}/gone-{outdated_n}.html", "outdated"
            else:
                offscope_n += 1
                url, outcome = f"https://news.example/story/{offscope_n}", "out"
            urls.append(url)
            outcomes.append(outcome)
        if rng.random() < 0.01:
            urls.append(rng.choice(("", 42)))  # bad URL entry: skipped, tweet still judged
        year = rng.randint(first.year, first.year + 2)
        record = {"tweet_id": tweet_id,
                  "created_at": f"{year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
                                f"T{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:00Z",
                  "author_id": f"u{rng.randrange(5000)}",
                  "urls": urls,
                  "is_retweet": rng.random() < 0.2}
        malformed = rng.random() < 0.005
        if malformed:
            broken = rng.randrange(4)
            if broken == 0:
                del record["created_at"]
            elif broken == 1:
                record["created_at"] = "yesterday"
            elif broken == 2:
                record["urls"] = 7
            else:
                del record["is_retweet"]
        lines.append(json.dumps(record, ensure_ascii=False))
        # ingest rules: malformed, retweets and ids already kept are dropped;
        # a tweet is kept when any URL matches or is outdated under the fold
        if malformed or record["is_retweet"] or tweet_id in kept:
            continue
        if any(o in ("matched", "outdated") for o in outcomes):
            kept.add(tweet_id)
    (out / "tweets.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    truth["mentions_kept"] = len(kept)


def _backlinks(spec: Spec, rng: random.Random, releases: list[Release], out: Path,
               truth: dict) -> None:
    order = list(range(len(releases)))
    rng.shuffle(order)
    pop_cum = _zipf_cum_weights(len(releases), 0.7)
    rows: list[list] = []

    def row(url: str) -> list:
        pages = rng.randint(1, 500)
        start = f"{rng.randint(2014, 2016)}-{rng.randint(1, 12):02d}-01"
        end = f"{rng.randint(2020, 2022)}-{rng.randint(1, 12):02d}-01"
        return [url, pages, rng.randint(0, pages), rng.randint(0, 100), rng.randint(0, 100),
                start if rng.random() < 0.9 else "", end if rng.random() < 0.9 else ""]

    while len(rows) < spec.backlink_rows:
        roll = rng.random()
        if roll < 0.70:
            rel = releases[order[_pick(rng, pop_cum)]]
            variants = [rel.url]
            if rng.random() < 0.5:
                variants.append(f"http://{HOST}/{rel.path}")
            if rng.random() < 0.2:
                variants.append(f"{rel.url}?page={rng.randint(2, 4)}")
            if rng.random() < 0.1:
                variants.append(f"{rel.url}#figure-{rng.randint(1, 3)}")
        elif roll < 0.85:
            path = f"releases/{rng.randint(1997, 2021)}/retired-{rng.randrange(spec.backlink_rows)}.html"
            variants = [f"https://{HOST}/{path}"] + ([f"http://{HOST}/{path}"] if rng.random() < 0.3 else [])
        else:
            path = f"coverage/{rng.randrange(spec.backlink_rows)}.html"
            variants = [f"https://media.example/{path}"] + (
                [f"http://media.example/{path}"] if rng.random() < 0.3 else [])
        rows += [row(v) for v in variants]
    del rows[spec.backlink_rows:]
    # canonical target of each row: https, no query or fragment
    attached: dict[str, None] = {}
    outdated: dict[str, None] = {}
    rejected: dict[str, None] = {}
    by_url = {r.url: r.rid for r in releases}
    for r in rows:
        url = r[0].split("?")[0].split("#")[0].replace("http://", "https://", 1)
        if url in by_url:
            attached[by_url[url]] = None
        elif url.startswith(f"{BASE}/releases/"):
            outdated[url] = None
        else:
            rejected[url] = None
    (out / "backlinks.csv").write_text(_csv_text(
        ["target_url", "mentioning_webpages", "mentioning_websites", "citation_flow",
         "trust_flow", "window_start", "window_end"], rows), encoding="utf-8")
    truth.update({"attached": len(attached), "outdated": len(outdated), "rejected": len(rejected)})


def _tables(rng: random.Random, built: dict, out: Path) -> None:
    alias_rows = []
    for name in built["institutions"]:
        if rng.random() < 0.8:
            alias_rows += [[name + " Press Office", name], [name + " (Main Campus)", name]]
    (out / "aliases_institutions.csv").write_text(
        _csv_text(["variant", "canonical"], alias_rows), encoding="utf-8")
    journal_rows = []
    for name in built["journals"]:
        journal_rows.append([name, name])
        if name.startswith("Journal of "):
            journal_rows.append(["J. " + name[len("Journal of "):], name])
    (out / "aliases_journals.csv").write_text(
        _csv_text(["variant", "canonical"], journal_rows), encoding="utf-8")
    (out / "doi_rewrites.csv").write_text(
        _csv_text(["journal_pattern", "find", "replace"],
                  [[ACTA, r"(10\.\d+)//", r"\1/"]]), encoding="utf-8")
    counts = [[name, rng.randint(20, 5000)] for name in built["journals"] if rng.random() < 0.9]
    counts.append(["Quarterly Null Results", 999])
    (out / "external_counts.csv").write_text(
        _csv_text(["journal", "publications_with_doi"], counts), encoding="utf-8")


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write one workload's inputs under ``out_dir``; return the ground truth."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    truth: dict = {"workload": workload, "seed": seed}
    built = _build_site(spec, rng, out_dir / "site", truth)
    redirects = _Redirects(rng)
    _tweets(spec, rng, built["releases"], redirects, out_dir, truth)
    _backlinks(spec, rng, built["releases"], out_dir, truth)
    (out_dir / "resolver.csv").write_text(
        _csv_text(["from_url", "to_url"], built["short_rows"] + redirects.rows), encoding="utf-8")
    _tables(rng, built, out_dir)
    truth.update({"tweet_records": spec.tweets, "backlink_rows": spec.backlink_rows,
                  "resolver_rows": len(built["short_rows"]) + len(redirects.rows)})
    return truth


def pipeline_config(inputs: Path, work: Path) -> dict:
    """Pipeline configuration values (as cli.build_config takes them) for
    generated inputs, writing under ``work``."""
    return {
        "seed_path": FOLD,
        "rate_limit": 1.0,
        "corpus_dir": str(work / "corpus"),
        "report_dir": str(work / "reports"),
        "fixtures_dir": str(inputs / "site"),
        "alias_institutions": str(inputs / "aliases_institutions.csv"),
        "alias_journals": str(inputs / "aliases_journals.csv"),
        "doi_rewrites": str(inputs / "doi_rewrites.csv"),
        "external_counts": str(inputs / "external_counts.csv"),
        "tweets_file": str(inputs / "tweets.jsonl"),
        "backlinks_file": str(inputs / "backlinks.csv"),
        "resolver_file": str(inputs / "resolver.csv"),
    }
