from pathlib import Path

import pytest

from bridgeref.cli import main
from bridgeref.config import ResolverConfig
from bridgeref.corpus import parse_corpus, parse_discourse
from bridgeref.data import DEMO_CORPUS, LEXICON_DIR
from bridgeref.explain import parse_total_row, render_score_table
from bridgeref.resolver import resolve, resolve_discourse
from randgen import random_case

GOLDEN = Path(__file__).parent / "golden" / "explain"
DEMO_TARGETS = ("rate:8", "analysis:9", "cars:5", "house:9", "roof:4", "rain:1")


@pytest.mark.parametrize("flags", [[], ["--no-semantics"]])
@pytest.mark.parametrize("anaphor", DEMO_TARGETS)
def test_explain_prints_the_golden_tables(anaphor, flags, capsys):
    suffix = ".no-semantics.txt" if flags else ".txt"
    golden = GOLDEN / (anaphor.replace(":", "_") + suffix)
    assert main(["explain", "--corpus", str(DEMO_CORPUS), "--lexicons", str(LEXICON_DIR),
                 "--anaphor", anaphor, *flags]) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_official_rate_table(corpora, lexicons):
    rate = corpora["rate"]
    result = resolve(rate.phrase(8), None, rate, lexicons)
    table = render_score_table(result, rate)
    lines = table.splitlines()
    assert lines[0] == "anaphor: kouteibuai"
    header = lines[1]
    # pseudo candidate first, then real candidates most recent first
    assert header.index("INDEFINITE") < header.index("nisidoku")
    assert header.index("nisidoku") < header.index("jikokutuuka")
    assert header.index("jikokutuuka") < header.index("kyoutyou")
    assert header.index("kyoutyou") < header.index("dorudaka")
    for row in ("R3", "R4", "  Subject", "  Topic/Focus (W)", "  Distance (D)",
                "  Definiteness (P)", "  Similarity (S)", "Total Score"):
        assert any(line.startswith(row) for line in lines), row
    totals = next(line for line in lines if line.startswith("Total Score"))
    cells = [c.strip() for c in totals.split("|")][1:]
    assert cells == ["10", "25", "-23", "-24", "-17"]


def test_total_row_round_trips(corpora, lexicons):
    for doc in corpora.values():
        for result in resolve_discourse(doc, lexicons):
            table = render_score_table(result, doc)
            assert parse_total_row(table, doc) == result.all_scores


def test_pseudo_only_table(corpora, lexicons):
    rain = corpora["rain"]
    result = resolve(rain.phrase(1), None, rain, lexicons)
    table = render_score_table(result, rain)
    totals = next(line for line in table.splitlines()
                  if line.startswith("Total Score"))
    assert [c.strip() for c in totals.split("|")][1:] == ["10"]


def test_verbal_tables_carry_slot_labels(corpora, lexicons):
    analysis = corpora["analysis"]
    ga = render_score_table(
        resolve(analysis.phrase(9), "ga", analysis, lexicons), analysis)
    wo = render_score_table(
        resolve(analysis.phrase(9), "wo", analysis, lexicons), analysis)
    assert ga.splitlines()[0] == "anaphor: kaiseki  [ga slot]"
    assert wo.splitlines()[0] == "anaphor: kaiseki  [wo slot]"
    assert "butsurigakusha" in ga and "denkishingou" not in ga
    assert "denkishingou" in wo


def test_duplicate_lemmas_get_disambiguated(corpora, lexicons):
    # force a resolution whose candidates share a lemma
    from bridgeref.corpus import Discourse, Sentence
    from randgen import make_phrase

    doc = Discourse(doc_id="dup", sentences=(
        Sentence(0, (make_phrase(1, lemma="ie", particles=("ga",)),
                     make_phrase(2, lemma="aru", pos="verb"))),
        Sentence(1, (make_phrase(3, lemma="ie", particles=("wo",)),
                     make_phrase(4, lemma="miru", pos="verb"))),
        Sentence(2, (make_phrase(5, lemma="yane", particles=("wa",),
                                 ref="indefinite"),
                     make_phrase(6, lemma="aru", pos="verb"))),
    ))
    result = resolve(doc.phrase(5), None, doc, lexicons)
    table = render_score_table(result, doc)
    assert "ie#1" in table and "ie#3" in table
    assert parse_total_row(table, doc) == result.all_scores


def test_total_row_round_trips_on_random_discourses():
    default = ResolverConfig.default()
    for seed in range(1000):
        doc, lex = random_case(seed)
        for config in (default, default.without_semantics()):
            for result in resolve_discourse(doc, lex, config):
                table = render_score_table(result, doc)
                assert parse_total_row(table, doc) == result.all_scores, (seed, table)


def test_repeated_lemma_is_labelled_even_when_one_column_has_it(lexicons):
    # ie#1 is no candidate of yane, but a bare "ie" column could mean either.
    doc = parse_discourse(
        "#DOC t\n#SENT 0\n"
        "1\tie\tie\tnoun\tcommon\t-\t2\t-\t-\t-\t-\n"
        "2\tmita.\tmiru\tverb\t-\t-\t-\t-\t-\t-\t-\n"
        "#SENT 1\n"
        "3\tie\tie\tnoun\tcommon\twa\t4\t-\t-\t-\t-\n"
        "4\tatta.\taru\tverb\t-\t-\t-\t-\t-\t-\t-\n"
        "#SENT 2\n"
        "5\tyane\tyane\tnoun\tcommon\tga\t6\t-\t-\tindefinite\t-\n"
        "6\tmieta.\tmieru\tverb\t-\t-\t-\t-\t-\t-\t-\n")
    result = resolve(doc.phrase(5), None, doc, lexicons)
    assert result.all_scores == {"INDEFINITE": 10, 3: 24}
    table = render_score_table(result, doc)
    assert "ie#3" in table.splitlines()[1]
    assert parse_total_row(table, doc) == {"INDEFINITE": 10, 3: 24}


def test_table_without_candidates_reads_back_empty(lexicons):
    doc = parse_discourse(
        "#DOC t\n#SENT 0\n"
        "1\tyane\tyane\tnoun\tcommon\tga\t2\t-\t-\tdefinite\t-\n"
        "2\tmieta.\tmieru\tverb\t-\t-\t-\t-\t-\t-\t-\n")
    result = resolve(doc.phrase(1), None, doc, lexicons)
    assert result.all_scores == {}
    assert parse_total_row(render_score_table(result, doc), doc) == {}


def test_lemma_named_like_a_pseudo_candidate_gets_its_id(lexicons):
    doc = parse_discourse(
        "#DOC t\n#SENT 0\n"
        "1\tINDEFINITE\tINDEFINITE\tnoun\tcommon\twa\t2\t-\t-\t-\t-\n"
        "2\tatta.\taru\tverb\t-\t-\t-\t-\t-\t-\t-\n"
        "#SENT 1\n"
        "3\tyane\tyane\tnoun\tcommon\tga\t4\t-\t-\tindefinite\t-\n"
        "4\tmieta.\tmieru\tverb\t-\t-\t-\t-\t-\t-\t-\n")
    result = resolve(doc.phrase(3), None, doc, lexicons)
    table = render_score_table(result, doc)
    assert "INDEFINITE#1" in table.splitlines()[1]
    assert parse_total_row(table, doc) == result.all_scores == {"INDEFINITE": 10, 1: -16}


def test_a_lemma_holding_a_hash_cannot_take_another_phrase_label(lexicons):
    # "ie" at phrases 1 and 3 is labelled ie#1 and ie#3; a lemma "ie#1" as
    # its own name would be a second ie#1 column.
    doc = parse_discourse(
        "#DOC t\n#SENT 0\n"
        "1\tie\tie\tnoun\tcommon\twa\t2\t-\t-\t-\t-\n"
        "2\tatta.\taru\tverb\t-\t-\t-\t-\t-\t-\t-\n"
        "#SENT 1\n"
        "3\tie\tie\tnoun\tcommon\twa\t4\t-\t-\t-\t-\n"
        "4\tatta.\taru\tverb\t-\t-\t-\t-\t-\t-\t-\n"
        "#SENT 2\n"
        "5\tie#1\tie#1\tnoun\tcommon\twa\t6\t-\t-\t-\t-\n"
        "6\tatta.\taru\tverb\t-\t-\t-\t-\t-\t-\t-\n"
        "#SENT 3\n"
        "7\tyane\tyane\tnoun\tcommon\tga\t8\t-\t-\tindefinite\t-\n"
        "8\tmieta.\tmieru\tverb\t-\t-\t-\t-\t-\t-\t-\n")
    result = resolve(doc.phrase(7), None, doc, lexicons)
    assert result.all_scores == {"INDEFINITE": 10, 1: 22, 3: 23, 5: -16}
    table = render_score_table(result, doc)
    assert table.splitlines()[1].split() == [
        "|", "INDEFINITE", "|", "phrase5", "|", "ie#3", "|", "ie#1"]
    assert parse_total_row(table, doc) == result.all_scores


@pytest.mark.parametrize("lemma", ["i|e", " ie", "ie "])
def test_a_lemma_that_cannot_be_a_label_reads_back_by_phrase_id(lemma, lexicons):
    # The header splits at "|" and strips each cell, so such a lemma is
    # labelled phrase<id>.
    lines = []
    for line in DEMO_CORPUS.read_text(encoding="utf-8").splitlines():
        fields = line.split("\t")
        if len(fields) == 11 and fields[2] == "ie":
            fields[2] = lemma
        lines.append("\t".join(fields))
    documents = parse_corpus("\n".join(lines) + "\n")
    assert sum(p.lemma == lemma for d in documents for p in d.phrases()) == 3
    for doc in documents:
        for result in resolve_discourse(doc, lexicons):
            table = render_score_table(result, doc)
            assert parse_total_row(table, doc) == result.all_scores, table
