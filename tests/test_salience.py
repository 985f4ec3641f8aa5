import pytest

from bridgeref.salience import (
    DEFAULT_FOCUS_ROWS,
    WeightRow,
    classify_salience,
    default_rows,
    distance,
    parse_weight_row,
    salience_list,
)
from randgen import make_phrase


@pytest.mark.parametrize("subtype,particles,punct,expected", [
    # topic rows
    ("pronoun", ("ga",), None, ("topic", 21)),
    ("pronoun", ("wa",), None, ("topic", 21)),
    ("zero_pronoun", ("ga",), None, ("topic", 21)),
    ("common", ("wa",), None, ("topic", 20)),
    ("common", ("niwa",), None, ("topic", 20)),
    # focus rows
    ("pronoun", ("wo",), None, ("focus", 16)),
    ("zero_pronoun", ("ni",), None, ("focus", 16)),
    ("pronoun", ("kara",), None, ("focus", 16)),
    ("common", ("ga",), None, ("focus", 15)),
    ("common", ("mo",), None, ("focus", 15)),
    ("common", ("da",), None, ("focus", 15)),
    ("common", ("nara",), None, ("focus", 15)),
    ("common", ("koso",), None, ("focus", 15)),
    ("common", ("wo",), None, ("focus", 14)),
    ("common", ("ni",), None, ("focus", 14)),
    ("common", (), "comma", ("focus", 14)),
    ("common", (), "period", ("focus", 14)),
    ("common", ("he",), None, ("focus", 13)),
    ("common", ("de",), None, ("focus", 13)),
    ("common", ("kara",), None, ("focus", 13)),
    ("common", ("yori",), None, ("focus", 13)),
    # unclassified
    ("common", ("no",), None, None),
    ("common", (), None, None),
])
def test_weight_table_rows(subtype, particles, punct, expected):
    phrase = make_phrase(1, lemma="x", subtype=subtype,
                         particles=particles, punct=punct)
    assert classify_salience(phrase) == expected


def test_wa_marked_noun_is_never_a_focus():
    for extra in ((), ("wo",), ("he",), ("ga",)):
        phrase = make_phrase(1, lemma="x", particles=("wa",) + extra)
        assert classify_salience(phrase) == ("topic", 20)


def test_focus_rows_skip_a_wa_marked_noun_even_when_no_topic_row_is_given():
    # With the default rows a topic row always matches a wa-marked noun
    # first, so only focus rows on their own reach the wa exclusion.
    phrase = make_phrase(1, lemma="x", particles=("wa", "ga"))
    assert classify_salience(phrase, DEFAULT_FOCUS_ROWS) is None
    assert classify_salience(phrase, [parse_weight_row("focus", "noun:wa", 9)]) is None


def test_non_noun_is_never_salient():
    assert classify_salience(make_phrase(1, lemma="iku", pos="verb")) is None


def test_punct_row_needs_bare_noun():
    # a marked particle takes precedence over trailing punctuation
    phrase = make_phrase(1, lemma="x", particles=("he",), punct="period")
    assert classify_salience(phrase) == ("focus", 13)


def test_salience_list_of_official_rate_fixture(corpora):
    rate = corpora["rate"]
    entries = salience_list(rate, rate.phrase(8))
    assert [(e.phrase_id, e.kind, e.weight) for e in entries] == [
        (1, "topic", 20),     # kono dorudaka wa
        (2, "focus", 14),     # kyoutyou wo
        (4, "focus", 14),     # jikokutuuka wo
        (5, "topic", 21),     # zero pronoun ga
        (7, "focus", 15),     # nisidoku ga
    ]


def test_distances_in_official_rate_fixture(corpora):
    rate = corpora["rate"]
    anaphor = rate.phrase(8)
    entries = salience_list(rate, anaphor)
    by_id = {e.phrase_id: e for e in entries}
    assert distance(by_id[4], anaphor, entries) == 2   # jikokutuuka
    assert distance(by_id[2], anaphor, entries) == 3   # kyoutyou
    assert distance(by_id[1], anaphor, entries) == 2   # dorudaka
    assert distance(by_id[7], anaphor, entries) == 1   # nisidoku
    assert distance(by_id[5], anaphor, entries) == 1   # zero pronoun


def test_salience_list_empty_for_first_phrase(corpora):
    rain = corpora["rain"]
    assert salience_list(rain, rain.phrase(1)) == []


def test_salience_list_without_matching_particles(corpora):
    roof = corpora["roof"]
    # only the old-house phrase before yane is classified
    entries = salience_list(roof, roof.phrase(4))
    assert [(e.phrase_id, e.kind) for e in entries] == [(2, "focus")]


def test_salience_list_rejects_foreign_anaphor(corpora):
    with pytest.raises(ValueError, match="not part of"):
        salience_list(corpora["rate"], corpora["rain"].phrase(1))


def test_distance_rejects_foreign_entry(corpora):
    rate = corpora["rate"]
    anaphor = rate.phrase(8)
    entries = salience_list(rate, anaphor)
    stranger = salience_list(corpora["roof"], corpora["roof"].phrase(4))[0]
    with pytest.raises(ValueError, match="not in list"):
        distance(stranger, anaphor, entries)


def test_extra_rows_only_fill_gaps():
    rows = default_rows() + (parse_weight_row("focus", "noun:no", 12),)
    genitive = make_phrase(1, lemma="x", particles=("no",))
    assert classify_salience(genitive, rows) == ("focus", 12)
    # default rows still win for phrases they already cover
    topical = make_phrase(2, lemma="x", particles=("wa", "no"))
    assert classify_salience(topical, rows) == ("topic", 20)


def test_parse_weight_row_punct_suffix():
    row = parse_weight_row("focus", "noun:wo,ni:punct", 14)
    assert row.match_punct
    assert row.particles == frozenset({"wo", "ni"})


def test_parse_weight_row_rejects_junk():
    with pytest.raises(ValueError):
        parse_weight_row("focus", "noun", 14)
    with pytest.raises(ValueError):
        parse_weight_row("focus", "verb:wo", 14)
    with pytest.raises(ValueError):
        parse_weight_row("theme", "noun:wo", 14)


def test_parse_weight_row_rejects_unknown_particles():
    with pytest.raises(ValueError, match="unknown particle 'zz'"):
        parse_weight_row("topic", "noun:wa,zz", 5)


@pytest.mark.parametrize("fields, message", [
    (("topik", "nown", frozenset({"zz"}), False, 99),
     "weight row kind must be topic or focus, got 'topik'"),
    (("topic", "nown", frozenset({"ga"}), False, 9),
     "weight row class must be noun or pronoun, got 'nown'"),
    (("focus", "noun", frozenset({"zz", "ga"}), True, 9),
     "unknown particle 'zz' in weight row 'noun:ga,zz:punct'"),
    (("focus", "noun", frozenset(), False, 9), "weight row 'noun:' matches nothing"),
    (("focus", "noun", frozenset(), "off", 9), "weight row match_punct must be a bool, got 'off'"),
    (("focus", "noun", frozenset({"ga"}), False, "9"),
     "weight row weight must be an integer, got '9'"),
    (("focus", "noun", frozenset({"ga"}), False, 9.0),
     "weight row weight must be an integer, got 9.0"),
    (("focus", "noun", frozenset({"ga"}), False, True),
     "weight row weight must be an integer, got True"),
])
def test_a_weight_row_built_in_code_is_checked(fields, message):
    # Each of these rows used to be accepted, and resolving ran with it.
    with pytest.raises(ValueError) as excinfo:
        WeightRow(*fields)
    assert str(excinfo.value) == message
