from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from pressmetrics.pagescan import scan_page
from pressmetrics.release_parser import (
    ParseError,
    PressType,
    Region,
    Repair,
    _BROKEN_RESOLVER,
    _candidates_from_text,
    clean_doi,
    extract_dois,
    extract_metadata,
    load_alias_table,
    normalize_institution,
    release_from_dict,
    release_to_dict,
    CORPUS_FIELDS,
)
from pressmetrics.rounding import percentage


def page(head: str = "", body: str = "") -> bytes:
    return f"<html><head>{head}</head><body>{body}</body></html>".encode()


FULL_HEAD = """
<meta name="keywords" content="Cancer, Medicine/Health, Genetics">
<meta name="description" content="A short summary.">
<meta name="date" content="2019-05-04">
<meta name="type" content="Research">
<meta name="institution" content="Bergstrom  Clinic">
<meta name="region" content="Europe">
"""


class TestExtractMetadata:
    def test_fields_verbatim(self):
        md = extract_metadata(scan_page(page(FULL_HEAD)))
        assert md.type is PressType.RESEARCH
        assert md.region is Region.EUROPE
        assert md.keywords == ["cancer", "medicine/health", "genetics"]
        assert md.date.isoformat() == "2019-05-04"
        assert md.institution == "Bergstrom Clinic"  # whitespace folded

    def test_optional_fields_absent(self):
        md = extract_metadata(scan_page(page(FULL_HEAD)))
        assert md.funder == "" and md.meeting == "" and md.journal == []

    def test_type_case_folding(self):
        md = extract_metadata(
            scan_page(page(FULL_HEAD.replace('content="Research"', 'content="RESEARCH"'))))
        assert md.type is PressType.RESEARCH

    def test_unknown_region_maps_to_unknown(self):
        md = extract_metadata(
            scan_page(page(FULL_HEAD.replace('content="Europe"', 'content="Atlantis"'))))
        assert md.region is Region.UNKNOWN

    @pytest.mark.parametrize("drop,field", [("date", "date"), ("type", "type")])
    def test_missing_structural_field(self, drop, field):
        head = "\n".join(line for line in FULL_HEAD.splitlines() if f'name="{drop}"' not in line)
        with pytest.raises(ParseError) as err:
            extract_metadata(scan_page(page(head)))
        assert err.value.field_name == field

    def test_bad_date_and_bad_type(self):
        with pytest.raises(ParseError):
            extract_metadata(scan_page(page(FULL_HEAD.replace("2019-05-04", "sometime in May"))))
        with pytest.raises(ParseError):
            extract_metadata(
                scan_page(page(FULL_HEAD.replace('content="Research"', 'content="Poster"'))))

    @pytest.mark.parametrize("raw", ["20190504", "2019-W18-6"])
    def test_only_a_yyyy_mm_dd_date_is_read(self, raw):
        """Python 3.11's date.fromisoformat reads both as 2019-05-04; 3.10's refuses both."""
        with pytest.raises(ParseError) as err:
            extract_metadata(scan_page(page(FULL_HEAD.replace("2019-05-04", raw))))
        assert err.value.field_name == "date"

    def test_journal_list_split_on_semicolons(self):
        head = FULL_HEAD + '<meta name="journal" content="Acta Synthetica; Global Health Reports">'
        assert extract_metadata(scan_page(page(head))).journal == [
            "Acta Synthetica", "Global Health Reports"]

    def test_deterministic(self):
        body = page(FULL_HEAD, "<p>text</p>")
        assert extract_metadata(scan_page(body)) == extract_metadata(scan_page(body))


class TestExtractDois:
    def test_link_and_text_dedup_to_least_repaired(self):
        body = page(body='<a href="https://doi.org/10.1000/xyz123">paper</a>'
                         "<p>cite 10.1000/xyz123 today</p>")
        refs = extract_dois(scan_page(body), stats=Counter())
        assert len(refs) == 1
        assert refs[0].normalized == "10.1000/xyz123"
        assert refs[0].repair is Repair.NONE

    def test_resolver_link_alone_is_stripped_wrapper(self):
        refs = extract_dois(scan_page(page(body='<a href="https://doi.org/10.1000/xyz123">paper</a>')),
                            stats=Counter())
        assert [(r.normalized, r.repair) for r in refs] == [("10.1000/xyz123", Repair.STRIPPED_WRAPPER)]

    def test_broken_resolver_space_join(self):
        refs = extract_dois(scan_page(page(body="<p>https://doi.org/10.1000 xyz123</p>")),
                            stats=Counter())
        assert [(r.normalized, r.repair) for r in refs] == [("10.1000/xyz123", Repair.BROKEN_URL_FIXED)]

    def test_rewrite_rule_marks_broken_url_fixed(self):
        refs = extract_dois(scan_page(page(body="<p>10.1234//acta.7</p>")),
                            rewrites=[(r"10\.1234//", "10.1234/")], stats=Counter())
        assert [(r.normalized, r.repair) for r in refs] == [("10.1234/acta.7", Repair.BROKEN_URL_FIXED)]

    def test_unshorten_map(self):
        body = page(body='<a href="https://sho.rt/x">mirror</a>')
        refs = extract_dois(scan_page(body),
                            unshorten={"https://sho.rt/x": "https://doi.org/10.2000/abc"}.get,
                            stats=Counter())
        assert [(r.normalized, r.repair) for r in refs] == [("10.2000/abc", Repair.UNSHORTENED)]

    def test_unrepairable_candidate_dropped_and_counted(self):
        stats = Counter()
        refs = extract_dois(scan_page(page(body='<a href="https://doi.org/10.1000">truncated</a>')),
                            stats=stats)
        assert refs == []
        assert stats["dropped_doi_candidates"] == 1

    def test_description_is_scanned(self):
        refs = extract_dois(scan_page(page()), description="see doi:10.3000/in-desc for details",
                            stats=Counter())
        assert [r.normalized for r in refs] == ["10.3000/in-desc"]

    def test_uppercase_normalized_lowercase(self):
        refs = extract_dois(scan_page(page(body="<p>10.1093/JHMAS/XXXI.4.480</p>")),
                            stats=Counter())
        assert refs[0].normalized == "10.1093/jhmas/xxxi.4.480"

    def test_clean_doi_rejects_junk(self):
        assert clean_doi("10.12/too-short-prefix") is None
        assert clean_doi("11.1234/not-a-doi") is None
        assert clean_doi("10.1234/balanced(1)") == "10.1234/balanced(1)"
        assert clean_doi("10.1234/unbalanced)") == "10.1234/unbalanced"


DOI_SUFFIX = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1, max_size=16).filter(
    lambda s: not s.endswith(".") and not s.startswith("."))
DOI = st.builds(lambda digits, suffix: f"10.{digits}/{suffix}",
                st.text(alphabet="0123456789", min_size=4, max_size=9), DOI_SUFFIX)
WRAPPERS = st.sampled_from([
    "{}", "doi:{}", "DOI: {}", "({})", "{}.", "see {}, and more",
    "https://doi.org/{}", "http://dx.doi.org/{}",
])


@given(doi=DOI, wrapper=WRAPPERS)
def test_wrapped_doi_recovered(doi, wrapper):
    body = page(body=f"<p>{wrapper.format(doi)}</p>")
    refs = extract_dois(scan_page(body), stats=Counter())
    assert [r.normalized for r in refs] == [doi]


@given(dois=st.lists(DOI, min_size=1, max_size=6, unique=True))
def test_dedup_by_normalized_value(dois):
    fragments = "".join(f"<p>{d} and again {d}</p>" for d in dois)
    refs = extract_dois(scan_page(page(body=fragments)), stats=Counter())
    assert sorted(r.normalized for r in refs) == sorted(dois)
    assert len(refs) == len({r.normalized for r in refs})


@given(st.lists(st.sampled_from(["doi.org/10.1234 abc", "DOI.ORG/10.5555  x", "doİ.org/10.1234 y",
                                 "doı.org/10.1234 z", "dx.doi.org/10.1/x", "https://doi.org/10.12345/a",
                                 "10.1234/abc", "DoI.OrG/", "/10.1234 ", "doi", ".org", " ", "\n", "text"]),
                max_size=8))
def test_gated_broken_resolver_scan_equals_ungated(parts):
    text = "".join(parts)
    ungated = [(m.group(1) + "/" + m.group(2), Repair.BROKEN_URL_FIXED)
               for m in _BROKEN_RESOLVER.finditer(text)]
    gated = [c for c in _candidates_from_text(text) if c[1] is Repair.BROKEN_URL_FIXED]
    assert gated == ungated


class TestCorpusFixture:
    def test_41_dois_across_38_releases(self, corpus, truth):
        got_pairs = {(r.id, d.normalized) for r in corpus for d in r.dois}
        assert got_pairs == oracle.doi_pairs(truth)
        assert len(got_pairs) == 41
        assert sum(1 for r in corpus if r.dois) == 38 == oracle.releases_with_doi(truth)

    def test_repairs_match_hand_labels(self, corpus, truth):
        expected = {(rel["id"], d["normalized"]): d["repair"]
                    for rel in truth["releases"] for d in rel["dois"]}
        for release in corpus:
            for doi in release.dois:
                assert doi.repair.value == expected[(release.id, doi.normalized)]

    def test_metadata_matches_hand_labels(self, corpus, truth):
        labels = {rel["id"]: rel for rel in truth["releases"]}
        for release in corpus:
            label = labels[release.id]
            md = release.metadata
            assert md.date.isoformat() == label["date"]
            assert md.type.value == label["type"]
            assert md.keywords == label["keywords"]
            assert md.region.value == label["region"]
            assert md.institution == label["institution_display"]
            assert md.journal == label["journal"]
            assert release.date_anomaly == label["date_anomaly"]

    def test_doi_share_formula(self, corpus):
        with_doi = sum(1 for r in corpus if r.dois)
        assert percentage(with_doi, len(corpus), 1) == oracle.pct_half_up(with_doi, len(corpus), 1)
        # printed-scale analogue of the same formula
        assert percentage(98305, 455703, 1) == 21.6

    def test_serialization_round_trip_and_field_order(self, corpus):
        for release in corpus:
            record = release_to_dict(release)
            assert tuple(record) == CORPUS_FIELDS
            assert release_to_dict(release_from_dict(record)) == record


class TestNormalizeInstitution:
    TABLE = {"university of x medical center": "University of X",
             "university of x": "University of X"}

    def test_subunit_merges_to_parent(self):
        assert normalize_institution("University of X Medical Center", self.TABLE) == "University of X"

    def test_unmatched_passes_through_folded(self):
        assert normalize_institution("  Fresh  Org ", self.TABLE) == "fresh org"

    def test_variants_normalize_equal(self):
        a = normalize_institution("UNIVERSITY OF X  MEDICAL CENTER", self.TABLE)
        b = normalize_institution("university of x", self.TABLE)
        assert a == b == "University of X"

    def test_alias_chain_rejected(self, tmp_path):
        table = tmp_path / "aliases.csv"
        table.write_text("variant,canonical\nA,B\nB,C\n")
        with pytest.raises(ValueError):
            load_alias_table(table)

    def test_two_canonicals_for_one_folded_variant_are_refused(self, tmp_path):
        table = tmp_path / "aliases.csv"
        table.write_text("variant,canonical\nMIT Press Office,MIT\nmit  press office,Harvard\n")
        with pytest.raises(ValueError) as err:
            load_alias_table(table)
        assert str(err.value).startswith(f"{table}:3: 'mit press office' maps to 'Harvard'")
        assert "on line 2" in str(err.value)

    def test_canonicals_self_map(self, tmp_path):
        table = tmp_path / "aliases.csv"
        table.write_text("variant,canonical\nNorthfield Univ.,Northfield University\n")
        loaded = load_alias_table(table)
        assert normalize_institution("NORTHFIELD UNIVERSITY", loaded) == "Northfield University"
