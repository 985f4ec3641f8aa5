import dataclasses
import random
import tracemalloc

import pytest

from bridgeref.corpus import (
    CorpusFormatError,
    CorpusStructureError,
    Discourse,
    GoldAntecedent,
    Sentence,
    parse_corpus,
    parse_discourse,
    serialize_corpus,
    serialize_discourse,
    validate_discourse,
)
from bridgeref.data import DEMO_CORPUS
from randgen import make_phrase, random_case


def test_demo_corpus_layout(corpora):
    assert set(corpora) == {"rate", "analysis", "cars", "house", "roof", "rain"}
    rate = corpora["rate"]
    assert len(rate.sentences) == 2
    phrases = list(rate.phrases())
    assert len(phrases) == 9
    zeros = [p for p in phrases if p.is_zero_pronoun()]
    assert len(zeros) == 1
    assert zeros[0].surface == ""
    assert zeros[0].particles == ("ga",)


def test_punctuation_is_lifted_off_the_surface(corpora):
    root = corpora["rate"].phrase(3)
    assert root.surface == "gikushaku-saseteiru"
    assert root.punct_after == "period"


def test_empty_document_body():
    doc = parse_discourse("#DOC empty\n")
    assert doc.doc_id == "empty"
    assert doc.sentences == ()


def test_comma_surface_round_trip():
    text = (
        "#DOC t\n#SENT 0\n"
        "1\tneko,\tneko\tnoun\tcommon\two\t2\t-\t-\t-\t-\n"
        "2\tneta.\tneru\tverb\t-\t-\t-\t-\t-\t-\t-\n"
    )
    doc = parse_discourse(text)
    assert doc.phrase(1).surface == "neko"
    assert doc.phrase(1).punct_after == "comma"
    assert parse_discourse(serialize_discourse(doc)) == doc


def test_none_is_a_list_item_like_any_other_not_an_absent_marker():
    doc = _doc([make_phrase(1, lemma="ie", codes=("none",), head=3),
                make_phrase(2, lemma="kuni", codes=("none", "12"), head=3),
                make_phrase(3, lemma="neru", pos="verb")])
    assert validate_discourse(doc) == []
    assert parse_discourse(serialize_discourse(doc)) == doc
    with pytest.raises(CorpusFormatError,
                       match="^line 3: field 'particles': unknown particle 'none'$"):
        parse_discourse("#DOC t\n#SENT 0\n1\tie\tie\tnoun\tcommon\tnone\t-\t-\t-\t-\t-\n")


def test_dangling_head_is_a_structural_error():
    text = (
        "#DOC t\n#SENT 0\n"
        "1\tneko\tneko\tnoun\tcommon\tga\t9\t-\t-\t-\t-\n"
        "2\tneta.\tneru\tverb\t-\t-\t-\t-\t-\t-\t-\n"
    )
    with pytest.raises(CorpusStructureError, match="dangling head"):
        parse_discourse(text)


def test_forward_gold_is_a_structural_error():
    text = (
        "#DOC t\n#SENT 0\n"
        "1\tneko\tneko\tnoun\tcommon\tga\t2\t-\t-\t-\trel=part:2\n"
        "2\tneta.\tneru\tverb\t-\t-\t-\t-\t-\t-\t-\n"
    )
    with pytest.raises(CorpusStructureError, match="precede"):
        parse_discourse(text)


def test_malformed_line_names_line_and_field():
    text = (
        "#DOC t\n#SENT 0\n"
        "1\tneko\tneko\tnoun\tcommon\tzzz\t2\t-\t-\t-\t-\n"
        "2\tneta.\tneru\tverb\t-\t-\t-\t-\t-\t-\t-\n"
    )
    with pytest.raises(CorpusFormatError, match="line 3.*particles"):
        parse_discourse(text)


def test_phrase_lookup_names_the_id_and_the_document(corpora):
    with pytest.raises(KeyError, match="no phrase with id 999 in document 'rate'"):
        corpora["rate"].phrase(999)


def test_field_count_is_checked():
    with pytest.raises(CorpusFormatError, match="11 tab-separated"):
        parse_discourse("#DOC t\n#SENT 0\n1\tneko\tneko\n")


def test_zero_pronoun_particle_is_restricted():
    text = (
        "#DOC t\n#SENT 0\n"
        "1\t*\t-\tnoun\tzero_pronoun\the\t2\t-\t-\t-\t-\n"
        "2\tneta.\tneru\tverb\t-\t-\t-\t-\t-\t-\t-\n"
    )
    with pytest.raises(CorpusFormatError, match="zero pronoun"):
        parse_discourse(text)


def test_sentence_indices_must_be_contiguous():
    with pytest.raises(CorpusFormatError, match="out of order"):
        parse_discourse("#DOC t\n#SENT 1\n")


def test_sentence_before_any_document():
    with pytest.raises(CorpusFormatError, match="line 1: #SENT before any #DOC"):
        parse_corpus("#SENT 0\n")


def test_validate_flags_a_gap_in_sentence_indices():
    doc = Discourse(doc_id="t", sentences=(
        Sentence(0, (make_phrase(1, lemma="neru", pos="verb"),)),
        Sentence(2, (make_phrase(2, lemma="neru", pos="verb"),))))
    assert validate_discourse(doc) == [
        "sentence 2: indices must be contiguous from 0 (expected 1)"]


def test_labelled_none_gold_round_trips():
    text = (
        "#DOC t\n#SENT 0\n"
        "1\tbunseki\tbunseki\tnoun\tverbal\two\t2\t-\t-\t-\trel=ga:NONE\n"
        "2\tshita.\tsuru\tverb\t-\t-\t-\t-\t-\t-\t-\n"
    )
    doc = parse_discourse(text)
    assert doc.phrase(1).gold_antecedents == (GoldAntecedent("ga", None),)
    assert serialize_discourse(doc) == text


def test_parse_discourse_requires_exactly_one_document(corpora):
    with pytest.raises(CorpusFormatError, match="exactly one"):
        parse_discourse("#DOC a\n#DOC b\n")


def test_round_trip_on_all_fixture_documents(corpora):
    for doc in corpora.values():
        again = parse_discourse(serialize_discourse(doc))
        assert again == doc
        assert validate_discourse(again) == []


def _doc(*sentences):
    return Discourse(doc_id="t", sentences=tuple(
        Sentence(index=i, phrases=tuple(ps)) for i, ps in enumerate(sentences)))


def test_validate_fixture_documents_are_clean(corpora):
    for doc in corpora.values():
        assert validate_discourse(doc) == []


def test_validate_flags_zero_pronoun_with_surface():
    bad = make_phrase(1, lemma="x", subtype="zero_pronoun", particles=("ga",))
    bad = dataclasses.replace(bad, surface="oops")
    doc = _doc([bad, make_phrase(2, lemma="neru", pos="verb")])
    violations = validate_discourse(doc)
    assert any("zero pronoun" in v and "surface" in v for v in violations)


def test_validate_flags_forward_gold():
    phrase = make_phrase(
        1, lemma="neko", particles=("ga",), head=2,
        gold=(GoldAntecedent("part", 2),))
    doc = _doc([phrase, make_phrase(2, lemma="neru", pos="verb")])
    violations = validate_discourse(doc)
    assert any("gold antecedent" in v for v in violations)


def test_validate_flags_double_root():
    doc = _doc([
        make_phrase(1, lemma="neko", particles=("ga",)),
        make_phrase(2, lemma="neru", pos="verb"),
    ])
    violations = validate_discourse(doc)
    assert any("head-less" in v for v in violations)


def test_multi_document_parse_keeps_order():
    text = "#DOC a\n#SENT 0\n1\tx.\tx\tnoun\tcommon\tga\t-\t-\t-\t-\t-\n#DOC b\n"
    docs = parse_corpus(text)
    assert [d.doc_id for d in docs] == ["a", "b"]


_RECORD = "1\tx.\tx\tnoun\tcommon\tga\t-\t-\t-\t-\t-"


@pytest.mark.parametrize("text, lineno, directive", [
    (f"#DOCUMENT x\n#SENT 0\n{_RECORD}\n", 1, "#DOCUMENT"),
    (f"#DOC x\n#SENTENCE 0\n{_RECORD}\n", 2, "#SENTENCE"),
    (f"#DOC x\n#SENT 0\n{_RECORD}\n#DOCx\n", 4, "#DOCx"),
], ids=["document", "sentence", "inside-a-sentence"])
def test_directives_are_matched_exactly(text, lineno, directive):
    with pytest.raises(CorpusFormatError) as excinfo:
        parse_corpus(text)
    assert str(excinfo.value) == f"line {lineno}: unknown directive {directive!r}"
    assert [d.doc_id for d in parse_corpus("#DOC\tx\n#SENT\t0\n")] == ["x"]


@pytest.mark.parametrize("line", ["#DOC rate\tx", "#DOC rate x", "#DOC\trate  x "])
def test_a_document_id_with_whitespace_inside_is_rejected(line):
    with pytest.raises(CorpusFormatError) as excinfo:
        parse_corpus(f"% comment\n{line}\n#SENT 0\n{_RECORD}\n")
    assert str(excinfo.value).startswith("line 2: #DOC id must be one token")


@pytest.mark.parametrize("doc_id", ["%rate", "%"])
def test_a_document_id_opening_with_a_percent_sign_is_rejected(doc_id):
    # A predictions line opening with '%' is a comment, so eval would drop
    # every unit of the document.
    fault = f"must not start with '%', got {doc_id!r}"
    with pytest.raises(CorpusFormatError) as excinfo:
        parse_corpus(f"#DOC {doc_id}\n#SENT 0\n{_RECORD}\n")
    assert str(excinfo.value) == f"line 1: #DOC id {fault}"
    doc = dataclasses.replace(parse_corpus(f"#DOC a\n#SENT 0\n{_RECORD}\n")[0], doc_id=doc_id)
    assert validate_discourse(doc) == [f"document id {fault}"]
    assert [d.doc_id for d in parse_corpus(f"#DOC a%\n#SENT 0\n{_RECORD}\n")] == ["a%"]


def test_record_outside_sentence_block():
    with pytest.raises(CorpusFormatError, match="outside"):
        parse_corpus("1\tx\tx\tnoun\tcommon\tga\t-\t-\t-\t-\t-\n")


def test_validate_flags_duplicate_ids():
    doc = _doc([
        make_phrase(1, lemma="a", particles=("ga",), head=2),
        make_phrase(2, lemma="neru", pos="verb"),
    ], [
        make_phrase(2, lemma="b", particles=("wo",), head=3),
        make_phrase(3, lemma="miru", pos="verb"),
    ])
    violations = validate_discourse(doc)
    assert any("strictly increase" in v or "not unique" in v for v in violations)


def test_a_repeated_phrase_id_is_reported_with_the_phrase_it_names():
    with pytest.raises(CorpusStructureError) as excinfo:
        parse_corpus("#DOC t\n#SENT 0\n"
                     "1\tie\tie\tnoun\tcommon\tga\t2\t-\t-\t-\t-\n"
                     "2\tmita.\tmiru\tverb\t-\t-\t-\t-\t-\t-\t-\n"
                     "#SENT 1\n"
                     "2\tyane\tyane\tnoun\tcommon\two\t3\t-\t-\t-\t-\n"
                     "3\tmita.\tmiru\tverb\t-\t-\t-\t-\t-\t-\t-\n")
    assert str(excinfo.value) == (
        "document 't': phrase 2: ids must strictly increase in document order")


CYCLE_DOC = (
    "#DOC loop\n#SENT 0\n"
    "1\tneko\tneko\tnoun\tcommon\tga\t2\t-\t-\t-\t-\n"
    "2\tinu\tinu\tnoun\tcommon\two\t1\t-\t-\t-\t-\n"
    "3\tmita.\tmiru\tverb\t-\t-\t-\t-\t-\t-\t-\n"
    "#SENT 1\n"
    "4\tsono inu\tinu\tnoun\tcommon\tga\t5\t-\t-\t-\t-\n"
    "5\thoeta.\thoeru\tverb\t-\t-\t-\t-\t-\t-\t-\n"
)


def test_head_cycle_is_a_structural_error():
    with pytest.raises(CorpusStructureError,
                       match="document 'loop': phrase 1: head chain never reaches"):
        parse_corpus(CYCLE_DOC)


def test_validate_flags_head_cycle():
    doc = _doc([
        make_phrase(1, lemma="neko", particles=("ga",), head=2),
        make_phrase(2, lemma="inu", particles=("wo",), head=1),
        make_phrase(3, lemma="miru", pos="verb"),
    ], [
        make_phrase(4, lemma="inu", particles=("ga",), head=5),
        make_phrase(5, lemma="hoeru", pos="verb"),
    ])
    assert validate_discourse(doc) == [
        "phrase 1: head chain never reaches the root of sentence 0",
        "phrase 2: head chain never reaches the root of sentence 0",
    ]


def test_head_less_sentence_is_a_structural_error():
    text = (
        "#DOC t\n#SENT 0\n"
        "1\tneko\tneko\tnoun\tcommon\tga\t2\t-\t-\t-\t-\n"
        "2\tneta.\tneru\tverb\t-\t-\t1\t-\t-\t-\t-\n"
    )
    with pytest.raises(CorpusStructureError, match="never reaches the root"):
        parse_discourse(text)


def test_serialize_parse_round_trip_on_random_discourses():
    for seed in range(1000):
        d, _ = random_case(seed)
        assert parse_discourse(serialize_discourse(d)) == d


# Replacement values for one field: empty, absent, wrong type, out of range,
# unknown vocabulary, malformed lists and gold items, stray separators.
_MUTANTS = (
    "", "-", "*", "x", "0", "-1", "3", "999", "1.5", "none", "noun", "verb",
    "zero_pronoun", "relational", "wa", "wa,zz", "ga,", ",", ".", "、",
    "subject_main", "definite", "12,34", "rel=", "rel=NONE", "rel=a:NONE",
    "rel=a:", "rel=a:x", "rel=a:1", "rel=a:99", "rel=a:1,b", "a\tb", "#SENT 0",
    "#DOC", "%",
)


def test_mutated_demo_lines_raise_only_corpus_errors():
    lines = DEMO_CORPUS.read_text(encoding="utf-8").splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("%")]
    rng = random.Random(20)
    outcomes = {"parsed": 0, "format": 0, "structure": 0}
    for _ in range(2000):
        i = rng.choice(data)
        sep = "\t" if "\t" in lines[i] else " "
        fields = lines[i].split(sep)
        j = rng.randrange(len(fields))
        if rng.random() < 0.8:
            fields[j] = rng.choice(_MUTANTS)
        else:
            fields[j] = fields[j][:rng.randrange(len(fields[j]) + 1)]
        mutated = lines[:i] + [sep.join(fields)] + lines[i + 1:]
        try:
            parse_corpus("\n".join(mutated))
            outcomes["parsed"] += 1
        except CorpusFormatError:
            outcomes["format"] += 1
        except CorpusStructureError:
            outcomes["structure"] += 1
    assert all(outcomes.values()), outcomes


_GOOD_RECORD = ["1", "neko", "neko", "noun", "common", "ga", "2", "-", "-", "-", "-"]
_COLUMNS = {"surface": 1, "lemma": 2, "pos": 3, "subtype": 4, "particles": 5,
            "clause_role": 7, "refprop": 9}
_ZERO = {"surface": "*", "lemma": "-", "subtype": "zero_pronoun"}
_ZERO_PHRASE = {"surface": "", "lemma": "", "noun_subtype": "zero_pronoun"}


@pytest.mark.parametrize("field,record,fields", [
    pytest.param("subtype", {"subtype": "animal"}, {"noun_subtype": "animal"},
                 id="unknown-subtype"),
    pytest.param("subtype", {"subtype": "-"}, {"noun_subtype": None},
                 id="noun-without-subtype"),
    pytest.param("particles", {"particles": "ga,zzz"}, {"particles": ("ga", "zzz")},
                 id="unknown-particle"),
    pytest.param("surface", {**_ZERO, "surface": "kare"},
                 {**_ZERO_PHRASE, "surface": "kare"}, id="zero-pronoun-surface"),
    pytest.param("particles", {**_ZERO, "particles": "he"},
                 {**_ZERO_PHRASE, "particles": ("he",)}, id="zero-pronoun-particle"),
    pytest.param("particles", {**_ZERO, "particles": "-"},
                 {**_ZERO_PHRASE, "particles": ()}, id="zero-pronoun-no-particle"),
    pytest.param("clause_role", {"clause_role": "subject"}, {"clause_role": "subject"},
                 id="unknown-clause-role"),
    pytest.param("refprop", {"refprop": "specific"}, {"ref_property": "specific"},
                 id="unknown-refprop"),
    pytest.param("pos", {"pos": "-"}, {"pos": "-"}, id="pos-dash"),
    pytest.param("pos", {"pos": ""}, {"pos": ""}, id="pos-empty"),
])
def test_field_rule_reads_the_same_when_parsing_and_validating(field, record, fields):
    columns = list(_GOOD_RECORD)
    for name, value in record.items():
        columns[_COLUMNS[name]] = value
    text = ("#DOC t\n#SENT 0\n" + "\t".join(columns) + "\n"
            "2\tneta.\tneru\tverb\t-\t-\t-\t-\t-\t-\t-\n")
    with pytest.raises(CorpusFormatError) as raised:
        parse_discourse(text)
    prefix = f"line 3: field '{field}': "
    assert str(raised.value).startswith(prefix)
    message = str(raised.value)[len(prefix):]

    phrase = dataclasses.replace(
        make_phrase(1, lemma="neko", particles=("ga",), head=2), **fields)
    doc = _doc([phrase, make_phrase(2, lemma="neru", pos="verb")])
    assert validate_discourse(doc) == [f"phrase 1: {message}"]


_VERB_RECORD = "2\tneta.\tneru\tverb\t-\t-\t-\t-\t-\t-\t-"
# One document per copy: a plain noun and a zero pronoun, each the good twin
# of the bad records below but for the one field they break.
_GOOD_DOCUMENT = "\n".join([
    "#DOC good", "#SENT 0", "\t".join(_GOOD_RECORD), _VERB_RECORD, "#SENT 1",
    "3\t*\t-\tnoun\tzero_pronoun\tga\t4\t-\t-\t-\t-", "4" + _VERB_RECORD[1:],
]) + "\n"
_BAD_RECORDS = [
    ("subtype", {"subtype": "animal"}),
    ("subtype", {"subtype": "-"}),
    ("particles", {"particles": "ga,zzz"}),
    ("surface", {**_ZERO, "surface": "kare"}),
    ("particles", {**_ZERO, "particles": "he"}),
    ("particles", {**_ZERO, "particles": "-"}),
    ("clause_role", {"clause_role": "subject"}),
    ("refprop", {"refprop": "specific"}),
    ("pos", {"pos": "-"}),
]


def _bad_document(record):
    columns = list(_GOOD_RECORD)
    for name, value in record.items():
        columns[_COLUMNS[name]] = value
    return "#DOC bad\n#SENT 0\n" + "\t".join(columns) + "\n" + _VERB_RECORD + "\n"


def _format_error(text):
    with pytest.raises(CorpusFormatError) as raised:
        parse_corpus(text)
    return str(raised.value)


@pytest.mark.parametrize("field,record", _BAD_RECORDS)
def test_bad_record_after_good_lines_reads_as_when_alone(field, record):
    good = _GOOD_DOCUMENT * 250                   # 1,000 good records
    offset = good.count("\n")
    alone = _format_error(_bad_document(record))
    prefix = f"line 3: field '{field}': "
    assert alone.startswith(prefix)
    message = alone[len(prefix):]
    late = f"line {offset + 3}: field '{field}': {message}"
    assert _format_error(good + _bad_document(record)) == late
    assert _format_error(good + _bad_document(record) * 2) == late


def test_serialize_parse_round_trip_on_many_copies_of_the_demo(corpora):
    documents = list(corpora.values()) * 500
    assert parse_corpus(serialize_corpus(documents)) == documents


def test_equal_fields_parsed_in_one_call_are_one_shared_string():
    text = DEMO_CORPUS.read_text(encoding="utf-8")
    first, second = (text.replace("#DOC ", f"#DOC {copy}.") for copy in "ab")
    documents = parse_corpus(first + second)
    half = len(documents) // 2
    assert [d.doc_id for d in documents[half:]] == [
        "b" + d.doc_id[1:] for d in documents[:half]]
    for a, b in zip(documents[:half], documents[half:]):
        for p, q in zip(a.phrases(), b.phrases()):
            assert p == q
            for name in ("lemma", "surface", "pos", "clause_role"):
                assert getattr(p, name) is getattr(q, name), (a.doc_id, p.id, name)


def test_parse_peak_stays_near_what_the_documents_hold():
    # Lines are freed as they are read, so parsing needs little beyond the
    # documents it returns.
    text = DEMO_CORPUS.read_text(encoding="utf-8") * 500
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        documents = parse_corpus(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(documents) == 3000
    assert peak - held < len(text) / 2, (peak - held, held - before, len(text))


# The field separator and every character ``str.splitlines`` ends a line at.
_UNWRITABLE = ["\t"] + [c for c in map(chr, range(0x10000)) if len(f"a{c}b".splitlines()) > 1]


@pytest.mark.parametrize("char", _UNWRITABLE, ids=lambda c: f"U+{ord(c):04X}")
def test_field_text_is_rejected_unless_it_reads_back(char):
    # Phrase 2 holds the character in one field; what validate_discourse
    # passes must serialise and parse back unchanged.
    fields = {"surface": f"ne{char}ko", "lemma": f"ne{char}ko", "pos": f"no{char}un",
              "sem_codes": ("15", f"1{char}2"),
              "gold": (GoldAntecedent(f"pa{char}rt", 1), GoldAntecedent(None, None))}
    for name, value in fields.items():
        noun = make_phrase(2, lemma="yane", particles=("ga",), head=3, codes=("15",),
                           gold=[GoldAntecedent("part", 1)])
        attribute = {"sem_codes": "sem_codes", "gold": "gold_antecedents"}.get(name, name)
        doc = _doc([make_phrase(1, lemma="ie", particles=("no",), head=2),
                    dataclasses.replace(noun, **{attribute: value}),
                    make_phrase(3, lemma="mieru", pos="verb")])
        faults = validate_discourse(doc)
        if faults:
            assert faults == [f"phrase 2: holds {char!r}, which no field can carry"], name
        else:
            assert parse_corpus(serialize_corpus([doc])) == [doc], name


def _reads_back(doc):
    try:
        return parse_corpus(serialize_corpus([doc])) == [doc]
    except CorpusFormatError:
        return False


def test_gold_items_are_rejected_unless_they_read_back():
    def doc_with(*gold):
        noun = make_phrase(2, lemma="yane", particles=("ga",), head=3, codes=("15",),
                           gold=gold)
        return _doc([make_phrase(1, lemma="ie", particles=("no",), head=2), noun,
                     make_phrase(3, lemma="mieru", pos="verb")])

    separators = "holds ':' or ',', which separate gold items"
    faulty = {GoldAntecedent("a:b", 1): f"label 'a:b' {separators}",
              GoldAntecedent("a,b", 1): f"label 'a,b' {separators}",
              GoldAntecedent("a,b", None): f"label 'a,b' {separators}",
              GoldAntecedent(None, 1): "antecedent 1 has no label"}
    for item, message in faulty.items():
        doc = doc_with(item)
        assert validate_discourse(doc) == [f"phrase 2: {message}"]
        assert not _reads_back(doc), item
    for item in (GoldAntecedent("part", 1), GoldAntecedent("", 1), GoldAntecedent("NONE", 1),
                 GoldAntecedent("part", None), GoldAntecedent("NONE", None),
                 GoldAntecedent(None, None)):
        doc = doc_with(item, GoldAntecedent("x", 1))
        assert validate_discourse(doc) == []
        assert _reads_back(doc), item


_MARKER_FAULTS = [
    ("lemma", "-", "'-' reads back as no lemma"),
    ("surface", "*", "'*' reads back as a zero pronoun's empty surface"),
    ("surface", "abc,", "ends in ',', which reads back as punctuation after it"),
    ("surface", "abc\u3002", "ends in '\u3002', which reads back as punctuation after it"),
    ("sem_codes", ("-",), "'-' reads back as no codes"),
    ("sem_codes", ("15", "1,2"), "code '1,2' does not read back as one code"),
    ("sem_codes", ("",), "code '' does not read back as one code"),
]


@pytest.mark.parametrize("name, value, message", _MARKER_FAULTS,
                         ids=[repr(value) for _, value, _ in _MARKER_FAULTS])
def test_a_marker_or_separator_in_field_text_is_rejected(name, value, message):
    # Each of these used to pass validate_discourse and read back as
    # another phrase.
    noun = make_phrase(2, lemma="yane", particles=("ga",), head=3, codes=("15",))
    doc = _doc([make_phrase(1, lemma="ie", particles=("no",), head=2),
                dataclasses.replace(noun, **{name: value}),
                make_phrase(3, lemma="mieru", pos="verb")])
    assert validate_discourse(doc) == [f"phrase 2: {message}"]
    assert not _reads_back(doc)


def test_marker_characters_that_read_back_pass():
    noun = make_phrase(2, lemma="yane", particles=("ga",), head=3, codes=("15",))
    for change in ({"lemma": "-x"}, {"lemma": "x-"}, {"surface": "*x"},
                   {"surface": "abc,", "punct_after": "comma"},
                   {"surface": ",", "punct_after": "period"}, {"surface": ",a"},
                   {"sem_codes": ("1", "-")}, {"sem_codes": ("-1",)}):
        doc = _doc([make_phrase(1, lemma="ie", particles=("no",), head=2),
                    dataclasses.replace(noun, **change),
                    make_phrase(3, lemma="mieru", pos="verb")])
        assert validate_discourse(doc) == [], change
        assert _reads_back(doc), change


def test_a_document_id_or_pos_reads_back_unless_validate_discourse_reports_it():
    # The parser and validate_discourse share one rule on each.
    noun = make_phrase(1, lemma="neko", particles=("ga",), head=2)
    verb = make_phrase(2, lemma="neru", pos="verb")
    for doc_id in ("a b", "", " a", "a ", "a\tb", "a\u00a0b", "a\u2028b", "a\x1fb",
                   "a", "rate.1", "#x", "%x", "-", "a\x00b"):
        doc = dataclasses.replace(_doc([noun, verb]), doc_id=doc_id)
        faults = validate_discourse(doc)
        assert faults in ([], [f"document id must be one token, got {doc_id!r}"],
                          [f"document id must not start with '%', got {doc_id!r}"])
        assert _reads_back(doc) == (not faults), repr(doc_id)
    for pos in ("", "-", "verb", "-x", "x-", "no un", "*"):
        doc = _doc([dataclasses.replace(noun, pos=pos, noun_subtype=None), verb])
        faults = validate_discourse(doc)
        assert faults in ([], ["phrase 1: missing"])
        assert _reads_back(doc) == (not faults), repr(pos)


# Integers are an optional '-' then ASCII digits; Python's int() would also
# take Arabic-Indic digits, a '+' sign and '_' separators.
@pytest.mark.parametrize("old, new, message", [
    ("1\tkono", "١\tkono", "line 8: field 'id': not an integer: '١'"),
    ("\twa\t3\t", "\twa\t+3\t", "line 8: field 'head': not an integer: '+3'"),
    ("\twa\t3\t", "\twa\t٣\t", "line 8: field 'head': not an integer: '٣'"),
    ("#SENT 1\n", "#SENT ١\n", "line 11: #SENT index not an integer: '١'"),
    ("#SENT 1\n", "#SENT +1\n", "line 11: #SENT index not an integer: '+1'"),
    ("rel=bridging:7", "rel=bridging:٧",
     "line 16: field 'gold': bad antecedent id '٧'"),
    ("rel=bridging:7", "rel=bridging:0_7", "line 16: field 'gold': bad antecedent id '0_7'"),
])
def test_integers_are_a_minus_sign_and_ascii_digits(old, new, message):
    text = DEMO_CORPUS.read_text(encoding="utf-8")
    assert _format_error(text.replace(old, new, 1)) == message


def test_integers_may_have_leading_zeros_and_a_minus_sign():
    text = DEMO_CORPUS.read_text(encoding="utf-8")
    assert parse_corpus(text.replace("#SENT 1\n", "#SENT 01\n", 1)
                        .replace("\twa\t3\t", "\twa\t003\t", 1)) == parse_corpus(text)
    [document] = parse_corpus("#DOC a\n#SENT 0\n-2\tie\tie\tnoun\tcommon\t-\t-\t-\t-\t-\t-\n"
                              "-1\tinu\tinu\tnoun\tcommon\t-\t-2\t-\t-\t-\t-\n")
    assert [(p.id, p.head_id) for p in document.phrases()] == [(-2, None), (-1, -2)]


@pytest.mark.parametrize("codes", ["-,", ",-"])
def test_sem_codes_that_split_to_a_lone_dash_are_rejected_whatever_came_before(codes):
    columns = list(_GOOD_RECORD)
    columns[8] = codes
    bad = "#DOC bad\n#SENT 0\n" + "\t".join(columns) + "\n" + _VERB_RECORD + "\n"
    message = "field 'sem_codes': '-' reads back as no codes"
    lines = _GOOD_DOCUMENT.count("\n")
    # A record of the same shape before it, or only after it.
    assert _format_error(_GOOD_DOCUMENT + bad) == f"line {lines + 3}: {message}"
    assert _format_error(bad + _GOOD_DOCUMENT) == f"line 3: {message}"
