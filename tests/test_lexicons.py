import dataclasses

import pytest

from bridgeref.lexicons import (
    CaseSlot,
    LexiconFormatError,
    Thesaurus,
    VerbCaseFrame,
    load_case_frames,
    load_noun_attributes,
    load_thesaurus,
    lookup_case_frame,
    satisfies_constraint,
    similarity_level,
    similarity_score,
    xnoy_modifier_set,
)
from bridgeref.config import DEFAULT_SIMILARITY_TABLE
from randgen import make_phrase


def test_similarity_identity_is_full_code_depth(lexicons):
    # kuni carries the four-digit code 1253
    assert similarity_level("kuni", "kuni", lexicons.thesaurus) == 4


def test_similarity_of_sibling_countries(lexicons):
    # nisidoku 12530 and nihon 12531 share the country prefix 1253
    assert similarity_level("nisidoku", "nihon", lexicons.thesaurus) == 4
    assert similarity_level("nihon", "nisidoku", lexicons.thesaurus) == 4


def test_similarity_of_unknown_lemma_is_zero(lexicons):
    assert similarity_level("dorudaka", "nihon", lexicons.thesaurus) == 0
    assert similarity_level("nihon", "dorudaka", lexicons.thesaurus) == 0


def test_similarity_reaches_max_depth_only_on_identical_deep_codes(lexicons):
    thesaurus = lexicons.thesaurus
    lemmas = sorted(thesaurus.codes)
    for a in lemmas:
        for b in lemmas:
            level = similarity_level(a, b, thesaurus)
            deep_shared = set(thesaurus.lookup(a)) & set(thesaurus.lookup(b)) & {
                c for c in thesaurus.lookup(a) if len(c) == thesaurus.max_depth}
            assert (level == thesaurus.max_depth) == bool(deep_shared), (a, b)


def test_similarity_symmetry_across_fixture_lemmas(lexicons):
    lemmas = sorted(lexicons.thesaurus.codes)[:12] + ["missing"]
    for a in lemmas:
        for b in lemmas:
            assert (similarity_level(a, b, lexicons.thesaurus)
                    == similarity_level(b, a, lexicons.thesaurus))


def test_similarity_score_default_anchor_points():
    assert similarity_score(4, DEFAULT_SIMILARITY_TABLE) == 7
    assert similarity_score(0, DEFAULT_SIMILARITY_TABLE) == -30
    assert similarity_score(2, DEFAULT_SIMILARITY_TABLE) == -10


def test_similarity_score_rejects_out_of_range_levels():
    with pytest.raises(ValueError, match="outside"):
        similarity_score(9, DEFAULT_SIMILARITY_TABLE)


def test_similarity_score_monotone_default_table():
    scores = [DEFAULT_SIMILARITY_TABLE[level] for level in sorted(DEFAULT_SIMILARITY_TABLE)]
    assert scores == sorted(scores)


def test_modifier_set_for_official_rate(lexicons):
    assert xnoy_modifier_set("kouteibuai", lexicons.xnoy, lexicons.attrs) == {
        "nihon", "beikoku"}


def test_modifier_set_drops_adjectival_x(lexicons):
    # hontou is flagged adjectival, so "hontou no hannin" is unusable
    assert xnoy_modifier_set("hannin", lexicons.xnoy, lexicons.attrs) == set()


def test_modifier_set_empty_for_non_anaphoric_y(lexicons):
    assert lexicons.xnoy.modifiers_of("tsuru") != ()
    assert xnoy_modifier_set("tsuru", lexicons.xnoy, lexicons.attrs) == set()


def test_case_frame_lookup_via_verbal_noun_mapping(lexicons):
    frame = lookup_case_frame("kaiseki", lexicons.case_frames)
    assert frame is not None
    assert frame.verb_lemma == "kaiseki-suru"
    assert frame.surface_cases() == ("ga", "wo")
    ga = frame.slot("ga")
    assert ga.example_nouns == ("seito", "kare")


def test_case_frame_lookup_direct(lexicons):
    frame = lookup_case_frame("mukau", lexicons.case_frames)
    assert frame.surface_cases() == ("ga", "ni")
    assert frame.slot("ga").example_nouns == ("kare", "hune")


def test_case_frame_lookup_unknown(lexicons):
    assert lookup_case_frame("odoru", lexicons.case_frames) is None


def test_constraint_match_human_subject(lexicons, config):
    frame = lookup_case_frame("kaiseki", lexicons.case_frames)
    candidate = make_phrase(1, lemma="butsurigakusha")
    ok, score = satisfies_constraint(
        candidate, frame.slot("ga"), lexicons.thesaurus, config.similarity_table)
    assert ok
    assert score >= similarity_score(config.example_match_min_level,
                                     config.similarity_table)


def test_constraint_failure_gets_no_match_score(lexicons, config):
    frame = lookup_case_frame("kaiseki", lexicons.case_frames)
    candidate = make_phrase(1, lemma="denkishingou")
    ok, score = satisfies_constraint(
        candidate, frame.slot("ga"), lexicons.thesaurus, config.similarity_table)
    assert (ok, score) == (False, -30)


def test_example_similarity_satisfies_vehicle_slot(lexicons, config):
    frame = lookup_case_frame("mukau", lexicons.case_frames)
    candidate = make_phrase(1, lemma="kuruma")
    ok, score = satisfies_constraint(
        candidate, frame.slot("ga"), lexicons.thesaurus, config.similarity_table)
    assert ok
    assert score == 7  # shares the vehicle category 1540 with hune


def test_literal_example_always_satisfies(lexicons, config):
    slot = CaseSlot("wo", (), ("sorobanzuku",))  # lemma absent from the thesaurus
    candidate = make_phrase(1, lemma="sorobanzuku")
    ok, score = satisfies_constraint(
        candidate, slot, lexicons.thesaurus, config.similarity_table)
    assert ok
    assert score == config.similarity_table[lexicons.thesaurus.max_depth]


def test_every_listed_example_satisfies_its_slot(lexicons, config):
    for frame in lexicons.case_frames.frames.values():
        for slot in frame.slots:
            for example in slot.example_nouns:
                ok, _ = satisfies_constraint(
                    make_phrase(1, lemma=example), slot,
                    lexicons.thesaurus, config.similarity_table)
                assert ok, (frame.verb_lemma, slot.surface_case, example)


def test_sem_code_annotation_backs_up_missing_thesaurus_entry(lexicons, config):
    frame = lookup_case_frame("kaiseki", lexicons.case_frames)
    candidate = make_phrase(1, lemma="novelword", codes=("11129",))
    ok, _ = satisfies_constraint(
        candidate, frame.slot("ga"), lexicons.thesaurus, config.similarity_table)
    assert ok


def test_thesaurus_loader_rejects_non_digit_codes(tmp_path):
    path = tmp_path / "thesaurus.tsv"
    path.write_text("neko\tabc\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError, match="digit"):
        load_thesaurus(path)


def test_thesaurus_multiple_codes_per_lemma(tmp_path):
    path = tmp_path / "thesaurus.tsv"
    path.write_text("kizu\t11100\nkizu\t18100\nhito\t111\n", encoding="utf-8")
    thesaurus = load_thesaurus(path)
    assert thesaurus.lookup("kizu") == ("11100", "18100")
    assert similarity_level("kizu", "hito", thesaurus) == 3


def test_case_frame_loader_rejects_empty_slot(tmp_path):
    path = tmp_path / "caseframes.txt"
    path.write_text("verb neru\nslot case=ga constraints=- examples=-\n",
                    encoding="utf-8")
    with pytest.raises(LexiconFormatError, match="constraints or examples"):
        load_case_frames(path)


def test_case_frame_loader_rejects_duplicate_cases(tmp_path):
    path = tmp_path / "caseframes.txt"
    path.write_text(
        "verb neru\nslot case=ga constraints=11 examples=-\n"
        "slot case=ga constraints=12 examples=-\n",
        encoding="utf-8")
    with pytest.raises(LexiconFormatError, match="duplicate"):
        load_case_frames(path)


def test_non_digit_thesaurus_code_names_the_file_and_line(tmp_path):
    path = tmp_path / "thesaurus.tsv"
    path.write_text("% lemma<TAB>code\nkuni\t1253\nie\t12a\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError) as excinfo:
        load_thesaurus(path)
    assert str(excinfo.value) == (
        f"{path}: line 3: thesaurus code for 'ie' must be a nonempty digit string")


def test_case_frame_constraint_must_be_a_digit_string(tmp_path):
    path = tmp_path / "caseframes.txt"
    for bad in ("x1112", "1a", "12.3"):
        path.write_text(f"verb neru\nslot case=ga constraints=11,{bad} examples=-\n",
                        encoding="utf-8")
        with pytest.raises(LexiconFormatError) as excinfo:
            load_case_frames(path)
        assert str(excinfo.value) == (
            f"{path}: line 2: case-frame constraint {bad!r} must be a nonempty digit string")
    path.write_text("verb neru\nslot case=ga constraints=11,- examples=-\n", encoding="utf-8")
    assert load_case_frames(path).frames["neru"].slots[0].constraints == ("11",)


def test_duplicate_case_names_the_line_of_the_second_slot(tmp_path):
    path = tmp_path / "caseframes.txt"
    path.write_text(
        "verb neru\nslot case=ga constraints=11 examples=-\n"
        "slot case=wo constraints=12 examples=-\n"
        "slot case=ga constraints=13 examples=-\nverb kaku\n",
        encoding="utf-8")
    with pytest.raises(LexiconFormatError) as excinfo:
        load_case_frames(path)
    assert str(excinfo.value) == f"{path}: line 4: duplicate surface case in frame 'neru'"


def test_a_slot_line_with_a_bad_constraint_and_a_repeated_case_names_the_constraint(tmp_path):
    path = tmp_path / "caseframes.txt"
    path.write_text("verb neru\nslot case=ga constraints=11 examples=-\n"
                    "slot case=ga constraints=1a examples=-\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError) as excinfo:
        load_case_frames(path)
    assert str(excinfo.value) == (
        f"{path}: line 3: case-frame constraint '1a' must be a nonempty digit string")


def test_a_case_slot_built_in_code_takes_only_a_surface_case(lexicons):
    # Upper-cased demo slots used to resolve, and to fail only once their
    # predictions were written.
    slots = [slot for frame in lexicons.case_frames.frames.values() for slot in frame.slots]
    assert slots
    for slot in slots:
        case = slot.surface_case.upper()
        with pytest.raises(ValueError, match=f"^unknown surface case {case!r}$"):
            dataclasses.replace(slot, surface_case=case)
    with pytest.raises(ValueError, match="^unknown surface case 'no'$"):
        CaseSlot("no", ("1",), ())


@pytest.mark.parametrize("code", ["1a", "", "1²"])
def test_a_case_slot_built_in_code_takes_only_ascii_digit_constraints(code):
    # caseframes.txt rejects the same constraint with the same message.
    with pytest.raises(LexiconFormatError) as excinfo:
        CaseSlot("ga", ("15", code), ())
    assert str(excinfo.value) == (f"case-frame constraint {code!r} must be a "
                                  f"nonempty digit string")


def test_a_case_slot_built_in_code_needs_constraints_or_examples():
    with pytest.raises(ValueError, match="^slot needs constraints or examples$"):
        CaseSlot("ga", (), ())


def test_a_case_frame_built_in_code_has_one_slot_per_surface_case(lexicons):
    # Two ga slots used to score one unit of demo 'analysis' twice.
    frame = lexicons.case_frames.frames["kaiseki-suru"]
    with pytest.raises(ValueError) as excinfo:
        VerbCaseFrame(frame.verb_lemma, frame.slots + (frame.slot("ga"),))
    assert str(excinfo.value) == "duplicate surface case in frame 'kaiseki-suru'"


def test_attribute_loader_rejects_unknown_flags(tmp_path):
    path = tmp_path / "nounattrs.tsv"
    path.write_text("neko\tfluffy\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError, match="unknown flags"):
        load_noun_attributes(path)


def test_thesaurus_from_entries_tracks_max_depth():
    thesaurus = Thesaurus.from_entries([("a", "123"), ("b", "12345")])
    assert thesaurus.max_depth == 5


def test_load_lexicons_reports_missing_files(tmp_path):
    from bridgeref.lexicons import load_lexicons
    with pytest.raises(LexiconFormatError, match="missing lexicon file"):
        load_lexicons(tmp_path)


def test_case_frame_loader_rejects_verbal_noun_without_its_verb(tmp_path):
    path = tmp_path / "caseframes.txt"
    path.write_text("vn yomi -> yomu\nverb kaku\nslot case=ga constraints=1 examples=-\n"
                    "vn kaki -> kaku\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError, match="line 1: verbal noun 'yomi' .*'yomu'"):
        load_case_frames(path)
    path.write_text("vn kaki -> kaku\nverb kaku\nslot case=ga constraints=1 examples=-\n",
                    encoding="utf-8")
    assert load_case_frames(path).verbal_nouns == {"kaki": "kaku"}


@pytest.mark.parametrize("code", ["1a", "1²", "١٢", ""])
def test_a_thesaurus_built_in_code_takes_only_ascii_digit_codes(code):
    with pytest.raises(LexiconFormatError) as excinfo:
        Thesaurus(codes={"kuni": ("1253",), "ie": (code,)}, max_depth=4)
    assert str(excinfo.value) == "thesaurus code for 'ie' must be a nonempty digit string"
    with pytest.raises(LexiconFormatError):
        Thesaurus.from_entries([("ie", code)])


@pytest.mark.parametrize("code", ["1²", "١٢"])
def test_non_ascii_digits_are_rejected_naming_the_line(tmp_path, code):
    thesaurus = tmp_path / "thesaurus.tsv"
    thesaurus.write_text(f"kuni\t1253\nie\t{code}\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError) as excinfo:
        load_thesaurus(thesaurus)
    assert str(excinfo.value) == (
        f"{thesaurus}: line 2: thesaurus code for 'ie' must be a nonempty digit string")
    frames = tmp_path / "caseframes.txt"
    frames.write_text(f"verb neru\nslot case=ga constraints=11,{code} examples=-\n",
                      encoding="utf-8")
    with pytest.raises(LexiconFormatError) as excinfo:
        load_case_frames(frames)
    assert str(excinfo.value) == (
        f"{frames}: line 2: case-frame constraint {code!r} must be a nonempty digit string")


def test_a_repeated_verb_block_is_rejected_naming_both_lines(tmp_path):
    path = tmp_path / "caseframes.txt"
    path.write_text(
        "verb miru\nslot case=ga constraints=1112 examples=-\n"
        "slot case=wo constraints=15 examples=-\n"
        "verb kaku\nslot case=ga constraints=1112 examples=-\n"
        "verb miru\nslot case=de constraints=171 examples=-\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError) as excinfo:
        load_case_frames(path)
    assert str(excinfo.value) == f"{path}: line 6: verb 'miru' already has a block at line 1"


def test_a_repeated_verbal_noun_mapping_is_rejected_naming_both_lines(tmp_path):
    path = tmp_path / "caseframes.txt"
    path.write_text(
        "verb miru\nslot case=ga constraints=1112 examples=-\n"
        "verb suru\nslot case=ga constraints=1112 examples=-\n"
        "vn kenbutsu -> miru\n% the same noun again\nvn kenbutsu -> suru\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError) as excinfo:
        load_case_frames(path)
    assert str(excinfo.value) == (
        f"{path}: line 7: verbal noun 'kenbutsu' is already mapped at line 5")
