from collections import Counter

import pytest

import oracle
from pressmetrics.coupling import JournalCoverage, build_coupling_graph, journal_coverage


class TestCouplingGraph:
    def test_release_with_two_dois_fans_out(self, make_release):
        release = make_release("r1", dois=("10.1000/a", "10.2000/b"), journal=["Acta"])
        edges = build_coupling_graph([release])
        assert {(e.release_id, e.doi) for e in edges} == {("r1", "10.1000/a"), ("r1", "10.2000/b")}
        assert all(e.journal == "Acta" for e in edges)

    def test_release_without_dois_contributes_nothing(self, make_release):
        assert build_coupling_graph([make_release("r1")]) == []

    def test_fixture_corpus_yields_41_unique_edges(self, corpus, truth):
        edges = build_coupling_graph(corpus)
        pairs = [(e.release_id, e.doi) for e in edges]
        assert len(pairs) == len(set(pairs)) == 41
        assert set(pairs) == oracle.doi_pairs(truth)

    def test_doi_journal_enrichment_fills_gaps_only(self, make_release):
        with_journal = make_release("r1", dois=("10.1/a",), journal=["Named"])
        without = make_release("r2", dois=("10.2/b",))
        edges = build_coupling_graph([with_journal, without], {"10.1/a": "Other", "10.2/b": "Filled"})
        by_release = {e.release_id: e.journal for e in edges}
        assert by_release == {"r1": "Named", "r2": "Filled"}


class TestJournalCoverage:
    def test_printed_scale_rows(self, make_release):
        corpus = ([make_release(f"a{i}", journal=["PNAS"]) for i in range(15840)]
                  + [make_release(f"b{i}", journal=["PLOS Medicine"]) for i in range(2037)])
        rows = {r.journal: r for r in journal_coverage(
            corpus, {"PNAS": 90160, "PLOS Medicine": 4255},
            alias_table={"pnas": "PNAS", "plos medicine": "PLOS Medicine"}, stats=Counter())}
        assert rows["PNAS"].coverage_pct == 17.6
        assert rows["PLOS Medicine"].coverage_pct == 47.9

    def test_zero_numerator(self, make_release):
        rows = journal_coverage([], {"Empty Journal": 100}, stats=Counter())
        assert rows == [JournalCoverage("empty journal", 100, 0, 0.0)]

    def test_undefined_coverage_warns(self, make_release):
        stats = Counter()
        rows = journal_coverage([make_release("r1", journal=["Ghost"])], {}, stats=stats)
        assert rows[0].coverage_pct is None and rows[0].press_release_count == 1
        assert stats["undefined_coverage"] == 1

    def test_release_counts_once_per_journal(self, make_release):
        release = make_release("r1", journal=["Acta", "acta ", "Other"])
        rows = {r.journal: r.press_release_count for r in journal_coverage(
            [release], {"Acta": 10, "Other": 10}, alias_table={"acta": "Acta", "other": "Other"},
            stats=Counter())}
        assert rows == {"Acta": 1, "Other": 1}

    def test_multi_journal_release_counts_in_each(self, make_release):
        releases = [make_release("r1", journal=["A", "B"]), make_release("r2", journal=["A"])]
        rows = {r.journal: r.press_release_count for r in journal_coverage(
            releases, {"A": 10, "B": 10}, alias_table={"a": "A", "b": "B"}, stats=Counter())}
        assert rows == {"A": 2, "B": 1}

    def test_sorted_by_count_then_name(self, make_release):
        releases = ([make_release("r1", journal=["Beta"]), make_release("r2", journal=["Beta"])]
                    + [make_release("r3", journal=["Alpha"]), make_release("r4", journal=["Gamma"])])
        table = {"alpha": "Alpha", "beta": "Beta", "gamma": "Gamma"}
        rows = journal_coverage(releases, {"Alpha": 5, "Beta": 5, "Gamma": 5}, alias_table=table,
                                stats=Counter())
        assert [r.journal for r in rows] == ["Beta", "Alpha", "Gamma"]

    def test_alias_variants_merge(self, corpus, fixtures_dir):
        from pressmetrics.coupling import load_external_counts
        from pressmetrics.release_parser import load_alias_table
        rows = journal_coverage(corpus, load_external_counts(fixtures_dir / "external_counts.csv"),
                                alias_table=load_alias_table(fixtures_dir / "aliases_journals.csv"),
                                stats=Counter())
        by_name = {r.journal: r for r in rows}
        # uvd-201905 names "J. Fixture Sci."; it must merge into the canonical journal
        assert by_name["Journal of Fixture Science"].press_release_count == 12
        assert by_name["quarterly null results"].press_release_count == 0
        assert by_name["quarterly null results"].coverage_pct == 0.0
        assert by_name["midnight preprints"].coverage_pct is None


@pytest.mark.parametrize("line3,got", [("Science", 1), ("Science,7,extra", 3)])
def test_external_counts_row_width_names_file_and_line(tmp_path, line3, got):
    from pressmetrics.coupling import load_external_counts
    path = tmp_path / "external_counts.csv"
    path.write_text(f"journal,publications_with_doi\nNature,12\n{line3}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_external_counts(path)
    assert f"{path}:3: expected 2 fields, got {got}" in str(err.value)


@pytest.mark.parametrize("loader,text", [
    ("load_external_counts", "journal,publications_with_doi\nActa X,100\nActa Y,7\nActa X,5\n"),
    ("load_external_counts", "journal,publications_with_doi\nActa X,100\nActa Y,7\nACTA  X,5\n"),
    ("load_doi_journals", "doi,journal\n10.1/a,Acta X\n10.2/b,Acta Y\n10.1/A,Acta Z\n"),
])
def test_a_key_with_two_values_names_file_and_both_lines(tmp_path, loader, text):
    from pressmetrics import coupling
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        getattr(coupling, loader)(path)
    assert str(err.value).startswith(f"{path}:4: ")
    assert "on line 2" in str(err.value)


def test_a_negative_external_count_names_file_and_line_and_zero_stays_undefined(
        tmp_path, make_release):
    from pressmetrics.coupling import load_external_counts
    path = tmp_path / "external_counts.csv"
    path.write_text("journal,publications_with_doi\nActa X,0\nActa Y,-5\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_external_counts(path)
    assert str(err.value) == f"{path}:3: publications_with_doi is -5, below 0"
    path.write_text("journal,publications_with_doi\nActa X,0\n", encoding="utf-8")
    stats = Counter()
    rows = journal_coverage([make_release("r1", journal=["Acta X"])], load_external_counts(path),
                            stats=stats)
    assert rows == [JournalCoverage("acta x", 0, 1, None)] and stats["undefined_coverage"] == 1


def test_external_counts_accept_a_repeated_identical_row(tmp_path):
    from pressmetrics.coupling import load_external_counts
    path = tmp_path / "external_counts.csv"
    path.write_text("journal,publications_with_doi\nActa X,100\nActa X,100\n", encoding="utf-8")
    assert load_external_counts(path) == {"acta x": 100}


@pytest.mark.parametrize("fixture_sci,row", [(100, 100), (40, None)])
def test_aliased_external_names_keep_one_count_or_fail(tmp_path, fixtures_dir, fixture_sci, row):
    from pressmetrics.coupling import load_external_counts
    from pressmetrics.release_parser import load_alias_table
    path = tmp_path / "external_counts.csv"
    path.write_text(f"journal,publications_with_doi\nJ. Fixture Sci.,{fixture_sci}\n"
                    "Journal of Fixture Science,100\n", encoding="utf-8")
    counts = load_external_counts(path)
    aliases = load_alias_table(fixtures_dir / "aliases_journals.csv")
    if row is not None:
        assert journal_coverage([], counts, alias_table=aliases, stats=Counter()) == [
            JournalCoverage("Journal of Fixture Science", row, 0, 0.0)]
        return
    with pytest.raises(ValueError) as err:
        journal_coverage([], counts, alias_table=aliases, stats=Counter())
    assert str(err.value) == ("'j. fixture sci.' and 'journal of fixture science' both name "
                              "'Journal of Fixture Science', with 40 and 100 publications")
