import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bridgeref.config import ConfigError, ResolverConfig
from bridgeref.corpus import Discourse, Sentence, parse_discourse, validate_discourse
from bridgeref.data import LEXICON_DIR
from bridgeref.lexicons import (
    CaseFrameDict,
    CaseSlot,
    LexiconSet,
    NounAttributes,
    Thesaurus,
    VerbCaseFrame,
    XnoYStore,
    load_lexicons,
)
from bridgeref.resolver import (
    NOMINAL,
    RELATIONAL,
    SKIP,
    VERBAL,
    Target,
    _run_caches,
    detect_targets,
    propose_no_antecedent,
    referential_property,
    resolve,
    resolve_discourse,
)
from randgen import make_phrase


def _doc(*sentences, doc_id="t"):
    return Discourse(doc_id=doc_id, sentences=tuple(
        Sentence(index=i, phrases=tuple(ps)) for i, ps in enumerate(sentences)))


def _lex(thesaurus=None, pairs=(), flags=None, frames=None, verbal_nouns=None):
    return LexiconSet(
        thesaurus=thesaurus or Thesaurus(codes={}, max_depth=5),
        case_frames=CaseFrameDict(frames=frames or {},
                                  verbal_nouns=verbal_nouns or {}),
        xnoy=XnoYStore(pairs=tuple(pairs)),
        attrs=NounAttributes(flags=flags or {}),
    )


# --- referential property ---------------------------------------------------

def test_annotated_properties_map_to_scores(corpora, config):
    rate = corpora["rate"]
    assert referential_property(rate.phrase(8), rate, config) == ("indefinite", -5)


def test_default_definiteness_scores(config):
    doc = _doc([make_phrase(1, lemma="ie", ref="definite"),
                make_phrase(2, lemma="neru", pos="verb")])
    assert referential_property(doc.phrase(1), doc, config) == ("definite", 0)
    doc2 = _doc([make_phrase(1, lemma="ie", ref="generic"),
                 make_phrase(2, lemma="neru", pos="verb")])
    assert referential_property(doc2.phrase(1), doc2, config) == ("generic", -5)


def test_auto_property_demonstrative(corpora, config):
    rate = corpora["rate"]
    # "kono dorudaka" is annotated auto; the kono prefix makes it definite
    assert referential_property(rate.phrase(1), rate, config)[0] == "definite"


def test_auto_property_prior_mention(corpora, config):
    house = corpora["house"]
    assert referential_property(house.phrase(10), house, config)[0] == "definite"


def test_auto_property_fresh_is_indefinite(corpora, config):
    roof = corpora["roof"]
    assert referential_property(roof.phrase(4), roof, config) == ("indefinite", -5)


# --- target detection --------------------------------------------------------

def test_detect_targets_official_rate(corpora, lexicons):
    targets = detect_targets(corpora["rate"], lexicons)
    modes = {t.phrase_id: t.mode for t in targets}
    assert modes == {1: SKIP, 2: SKIP, 4: SKIP, 5: SKIP, 7: SKIP, 8: NOMINAL}


def test_detect_targets_verbal_noun_per_slot(corpora, lexicons):
    targets = [t for t in detect_targets(corpora["analysis"], lexicons)
               if t.mode == VERBAL]
    assert targets == [Target(9, VERBAL, "ga"), Target(9, VERBAL, "wo")]


def test_detect_targets_relational(corpora, lexicons):
    targets = {t.phrase_id: t.mode for t in detect_targets(corpora["cars"], lexicons)}
    assert targets[5] == RELATIONAL


def test_non_anaphoric_noun_is_skipped(lexicons):
    doc = _doc([make_phrase(1, lemma="tsuru", particles=("ga",)),
                make_phrase(2, lemma="tobu", pos="verb")])
    targets = detect_targets(doc, lexicons)
    assert targets == [Target(1, SKIP, None)]


# --- individual rules ---------------------------------------------------------

def _r1_proposals(anaphor, doc, config):
    # "ie" is a plain-noun target once some "X no ie" example exists
    result = resolve(anaphor, None, doc, _lex(pairs=[("kuruma", "ie")]), config)
    return [(p.candidate, p.points, p.rule) for p in result.proposals if p.rule == "R1"]


def test_prior_mentions_rule(config):
    doc = _doc(
        [make_phrase(1, lemma="ie", particles=("no",)),
         make_phrase(2, lemma="aru", pos="verb")],
        [make_phrase(3, lemma="ie", particles=("ga",), ref="definite"),
         make_phrase(4, lemma="neru", pos="verb")],
    )
    assert _r1_proposals(doc.phrase(3), doc, config) == [(1, 30, "R1")]


def test_prior_mentions_need_a_match(config):
    doc = _doc([make_phrase(1, lemma="ie", ref="definite"),
                make_phrase(2, lemma="neru", pos="verb")])
    assert _r1_proposals(doc.phrase(1), doc, config) == []


def test_pseudo_candidates(config):
    assert [(p.candidate, p.points, p.rule)
            for p in propose_no_antecedent("indefinite", config)] == [
        ("INDEFINITE", 10, "R3")]
    assert [(p.candidate, p.points, p.rule)
            for p in propose_no_antecedent("generic", config)] == [
        ("GENERIC", 10, "R2")]
    assert propose_no_antecedent("definite", config) == []


# --- full resolution ----------------------------------------------------------

def test_official_rate_resolution(corpora, lexicons):
    rate = corpora["rate"]
    result = resolve(rate.phrase(8), None, rate, lexicons)
    assert result.all_scores == {
        "INDEFINITE": 10, 7: 25, 4: -23, 2: -24, 1: -17}
    assert result.winner == 7
    assert result.total == 25
    assert not result.direct


def test_official_rate_breakdowns(corpora, lexicons):
    rate = corpora["rate"]
    result = resolve(rate.phrase(8), None, rate, lexicons)
    detail = {p.candidate: p.breakdown for p in result.proposals
              if p.breakdown is not None}
    assert detail[7].base == 23 and detail[7].similarity == 7
    assert (detail[1].weight, detail[1].dist) == (20, 2)
    assert (detail[2].weight, detail[2].dist) == (14, 3)
    assert (detail[4].weight, detail[4].dist) == (14, 2)
    for breakdown in detail.values():
        assert breakdown.definiteness == -5


def test_verbal_noun_slots(corpora, lexicons):
    analysis = corpora["analysis"]
    ga = resolve(analysis.phrase(9), "ga", analysis, lexicons)
    assert ga.winner == 3                   # butsurigakusha
    assert ga.all_scores == {"INDEFINITE": 10, 3: 21}
    wo = resolve(analysis.phrase(9), "wo", analysis, lexicons)
    assert wo.winner == 5                   # tairyou-no deeta
    assert wo.all_scores == {"INDEFINITE": 10, 5: 18, 1: 8}


def test_relational_noun_through_verb_frame(corpora, lexicons):
    cars = corpora["cars"]
    result = resolve(cars.phrase(5), None, cars, lexicons)
    assert result.winner == 2               # takusan-no kuruma
    assert result.total == 15               # 15 - 2 - 5 + 7
    assert result.all_scores == {"INDEFINITE": 10, 2: 15}


def test_relational_noun_modifying_a_noun(corpora, lexicons):
    house = corpora["house"]
    result = resolve(house.phrase(9), None, house, lexicons)
    assert result.winner == 3               # ie in the first sentence
    assert result.total == 30
    assert result.all_scores == {3: 30}
    assert {p.rule for p in result.proposals} == {"R6"}


def test_resolution_with_no_candidates(corpora, lexicons):
    rain = corpora["rain"]
    result = resolve(rain.phrase(1), None, rain, lexicons)
    assert result.winner == "INDEFINITE"
    assert result.total == 10
    assert result.all_scores == {"INDEFINITE": 10}


def test_repeated_mention_wins_and_marks_direct():
    lex = _lex(pairs=[("yama", "ie")])
    doc = _doc(
        [make_phrase(1, lemma="ie", particles=("no",)),
         make_phrase(2, lemma="aru", pos="verb")],
        [make_phrase(3, lemma="ie", particles=("no",)),
         make_phrase(4, lemma="aru", pos="verb")],
        [make_phrase(5, lemma="ie", particles=("ga",), ref="definite"),
         make_phrase(6, lemma="neru", pos="verb")],
    )
    result = resolve(doc.phrase(5), None, doc, lex)
    # two equal repeated-mention proposals: recency breaks the tie
    assert result.all_scores == {1: 30, 3: 30}
    assert result.winner == 3
    assert result.direct


def test_a_zero_pronoun_with_a_lemma_is_never_proposed(lexicons):
    # The format lets a zero pronoun carry a lemma; it still only holds a
    # salience slot.  R1 used to propose phrase 1 here with 30 points.
    doc = parse_discourse(
        "#DOC zp\n#SENT 0\n"
        "1\t*\tyane\tnoun\tzero_pronoun\tga\t2\tsubject_main\t-\t-\t-\n"
        "2\taru.\taru\tverb\t-\t-\t-\t-\t-\t-\t-\n#SENT 1\n"
        "3\tsono yane\tyane\tnoun\tcommon\tga\t4\t-\t-\tdefinite\t-\n"
        "4\ttakai.\ttakai\tverb\t-\t-\t-\t-\t-\t-\t-\n")
    assert validate_discourse(doc) == []
    [result] = resolve_discourse(doc, lexicons)
    assert result.anaphor_id == 3
    assert (result.winner, result.total, result.direct) == (None, 0, False)
    assert result.all_scores == {} and result.proposals == ()


def test_real_candidate_beats_pseudo_on_ties():
    thesaurus = Thesaurus(codes={"tatemono": ("1541",), "kare": ("1540",)},
                          max_depth=5)
    lex = _lex(thesaurus=thesaurus, pairs=[("tatemono", "yane")])
    doc = _doc(
        [make_phrase(1, lemma="kare", subtype="pronoun", particles=("wo",)),
         make_phrase(2, lemma="miru", pos="verb")],
        [make_phrase(3, lemma="yane", particles=("ga",), ref="indefinite"),
         make_phrase(4, lemma="aru", pos="verb")],
    )
    result = resolve(doc.phrase(3), None, doc, lex)
    # kare: 16 - 1 - 5 + 0 = 10, exactly the pseudo candidate's points
    assert result.all_scores == {"INDEFINITE": 10, 1: 10}
    assert result.winner == 1


def test_verbal_noun_with_empty_pool_keeps_pseudo_only():
    frames = {"suru": VerbCaseFrame("suru", (CaseSlot("ga", ("11",), ()),))}
    lex = _lex(frames=frames, verbal_nouns={"benkyou": "suru"})
    doc = _doc([make_phrase(1, lemma="benkyou", subtype="verbal",
                            particles=("ga",), ref="indefinite"),
                make_phrase(2, lemma="hajimaru", pos="verb")])
    result = resolve(doc.phrase(1), "ga", doc, lex)
    assert result.all_scores == {"INDEFINITE": 10}
    assert result.winner == "INDEFINITE"


def test_relational_noun_without_prior_match_has_no_winner():
    lex = _lex(flags={"tonari": frozenset({"relational"})})
    doc = _doc([
        make_phrase(1, lemma="tonari", subtype="relational",
                    particles=("no",), head=2, ref="definite"),
        make_phrase(2, lemma="yama", particles=("ni",), head=3),
        make_phrase(3, lemma="aru", pos="verb"),
    ])
    result = resolve(doc.phrase(1), None, doc, lex)
    assert result.all_scores == {}
    assert result.winner is None
    assert result.total == 0


def test_relational_noun_without_verb_frame_keeps_pseudo():
    lex = _lex(flags={"ichibu": frozenset({"relational"})})
    doc = _doc([
        make_phrase(1, lemma="kuruma", particles=("ga",)),
        make_phrase(2, lemma="tomaru", pos="verb"),
    ], [
        make_phrase(3, lemma="ichibu", subtype="relational",
                    particles=("wa",), head=4, role="subject_main",
                    ref="indefinite"),
        make_phrase(4, lemma="ugoku", pos="verb"),
    ])
    result = resolve(doc.phrase(3), None, doc, lex)
    assert result.all_scores == {"INDEFINITE": 10}


def test_slot_resolution_ignores_repeated_event_mentions():
    # a repeated definite verbal noun is not offered as its own slot filler
    frames = {"kaiseki-suru": VerbCaseFrame(
        "kaiseki-suru", (CaseSlot("ga", ("11",), ()),))}
    lex = _lex(frames=frames, verbal_nouns={"kaiseki": "kaiseki-suru"})
    doc = _doc(
        [make_phrase(1, lemma="kaiseki", subtype="verbal", particles=("ga",)),
         make_phrase(2, lemma="hajimaru", pos="verb")],
        [make_phrase(3, lemma="kaiseki", subtype="verbal", particles=("ga",),
                     ref="definite"),
         make_phrase(4, lemma="tsuzuku", pos="verb")],
    )
    result = resolve(doc.phrase(3), "ga", doc, lex)
    assert result.all_scores == {}          # no repeat bonus, no pseudo
    assert result.winner is None


def test_a_repeated_mention_its_case_slot_excludes_wins_from_far_back():
    # ichibu fills the ga slot of oku, which takes only code 12345.  Phrase 1
    # repeats it but fails the slot, so it scores R1's 30 alone; 31 topics
    # pass the slot, the newest scoring 20 - 1 + 0 + 10 = 29.  A bound on
    # phrase 1 that counts its R4/R5 points, 30 + 30 - 32 = 28, would miss it.
    frames = {"oku": VerbCaseFrame("oku", (CaseSlot("ga", ("12345",), ()),))}
    lex = _lex(flags={"ichibu": frozenset({"relational"})}, frames=frames)
    sentences = [[make_phrase(1, lemma="ichibu", particles=("wa",), head=2),
                  make_phrase(2, lemma="aru", pos="verb")]]
    for k in range(31):
        sentences.append([make_phrase(3 + 2 * k, lemma=f"x{k}", particles=("wa",),
                                      head=4 + 2 * k, codes=("12345",)),
                          make_phrase(4 + 2 * k, lemma="aru", pos="verb")])
    sentences.append([make_phrase(65, lemma="ichibu", subtype="relational",
                                  particles=("ga",), head=66, ref="definite"),
                      make_phrase(66, lemma="oku", pos="verb")])
    doc = _doc(*sentences)
    result = resolve(doc.phrase(65), None, doc, lex)
    assert (result.winner, result.total, result.direct) == (1, 30, True)
    assert result.all_scores[1] == 30 and result.all_scores[63] == 29
    assert max(result.all_scores.values()) == 30


def test_resolve_rejects_non_targets(corpora, lexicons):
    rate = corpora["rate"]
    with pytest.raises(ValueError, match="not an anaphora target"):
        resolve(rate.phrase(2), None, rate, lexicons)


def test_resolve_rejects_unknown_slot(corpora, lexicons):
    analysis = corpora["analysis"]
    with pytest.raises(ValueError, match="no 'ni' slot"):
        resolve(analysis.phrase(9), "ni", analysis, lexicons)
    with pytest.raises(ValueError, match="does not take a case slot"):
        resolve(corpora["rate"].phrase(8), "ga", corpora["rate"], lexicons)


def test_resolve_rejects_a_phrase_of_another_document(corpora, lexicons):
    with pytest.raises(ValueError, match="not part of document 'analysis'"):
        resolve(corpora["rate"].phrase(8), None, corpora["analysis"], lexicons)


def test_referential_property_rejects_a_phrase_of_another_document(corpora):
    # It used to score the stranger against the other document's lemmas.
    with pytest.raises(ValueError, match="^anaphor 2 is not part of document 'rate'$"):
        referential_property(corpora["rain"].phrase(2), corpora["rate"])


def test_resolve_discourse_covers_all_targets(corpora, lexicons):
    results = resolve_discourse(corpora["analysis"], lexicons)
    assert [(r.anaphor_id, r.slot) for r in results] == [(9, "ga"), (9, "wo")]


def test_ablation_switch_zeroes_similarity(corpora, lexicons, config):
    rate = corpora["rate"]
    result = resolve(rate.phrase(8), None, rate, lexicons,
                     config.without_semantics())
    assert result.all_scores == {"INDEFINITE": 10, 7: 18, 4: 7, 2: 6, 1: 13}
    assert result.winner == 7


def test_ablation_keeps_slot_filters(corpora, lexicons, config):
    # with similarity zeroed the constraint filter still applies, and the
    # object slot loses its edge over the no-antecedent reading
    analysis = corpora["analysis"]
    bare = config.without_semantics()
    ga = resolve(analysis.phrase(9), "ga", analysis, lexicons, bare)
    assert ga.all_scores == {"INDEFINITE": 10, 3: 14}    # 20 - 1 - 5 + 0
    assert ga.winner == 3
    wo = resolve(analysis.phrase(9), "wo", analysis, lexicons, bare)
    assert wo.all_scores == {"INDEFINITE": 10, 5: 8, 1: 8}
    assert wo.winner == "INDEFINITE"


def test_resolution_is_deterministic(corpora, lexicons):
    rate = corpora["rate"]
    first = resolve(rate.phrase(8), None, rate, lexicons)
    second = resolve(rate.phrase(8), None, rate, lexicons)
    assert first == second


def test_score_arithmetic_of_every_weighted_proposal(corpora, lexicons):
    for doc in corpora.values():
        for result in resolve_discourse(doc, lexicons):
            for proposal in result.proposals:
                b = proposal.breakdown
                if b is None:
                    continue
                if b.base is not None:
                    assert proposal.points == b.base + b.definiteness + b.similarity
                else:
                    assert proposal.points == (
                        b.weight - b.dist + b.definiteness + b.similarity)


HEAD_CYCLE = """
import dataclasses
from bridgeref import load_lexicons, parse_corpus, resolve_discourse
from bridgeref.corpus import Discourse, Sentence, parse_discourse, validate_discourse
from bridgeref.data import DEMO_CORPUS, LEXICON_DIR
rate = next(d for d in parse_corpus(DEMO_CORPUS.read_text(encoding="utf-8"))
            if d.doc_id == "rate")
first, second = rate.sentences
# The root of sentence 1 (phrase 9) now hangs from its child, phrase 8.
looped = Sentence(index=1, phrases=tuple(
    dataclasses.replace(p, head_id=8) if p.id == 9 else p for p in second.phrases))
try:
    resolve_discourse(Discourse("rate", (first, looped)), load_lexicons(LEXICON_DIR))
except ValueError as exc:
    print(exc)
"""


def test_a_head_cycle_built_in_code_is_an_error_not_an_endless_walk():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", HEAD_CYCLE], env=env,
                         capture_output=True, text=True, timeout=10)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (
        "document 'rate': phrase 8: head chain never reaches the root of sentence 1\n")


# --- lexicon depth against the similarity table -------------------------------

def test_a_thesaurus_code_deeper_than_the_table_fails_before_any_result(
        corpora, config, tmp_path):
    lex = tmp_path / "lexicons"
    shutil.copytree(LEXICON_DIR, lex)
    with (lex / "thesaurus.tsv").open("a", encoding="utf-8") as f:
        f.write("\nie\t1712345\n")
    deep = load_lexicons(lex)
    results = []
    with pytest.raises(ConfigError) as excinfo:
        for discourse in corpora.values():
            results.append(resolve_discourse(discourse, deep, config))
    assert results == []
    assert str(excinfo.value) == ("thesaurus.tsv: lemma 'ie' has code 1712345, deeper "
                                  "than the similarity table (levels 0..5)")


def test_a_case_frame_constraint_deeper_than_the_table_fails_without_semantics(
        corpora, lexicons, config):
    frames = {**lexicons.case_frames.frames,
              "fukaku": VerbCaseFrame("fukaku", (CaseSlot("ga", ("1234567",), ()),))}
    deep = dataclasses.replace(lexicons, case_frames=CaseFrameDict(
        frames=frames, verbal_nouns=lexicons.case_frames.verbal_nouns))
    rate = corpora["rate"]
    with pytest.raises(ConfigError, match="^caseframes.txt: verb 'fukaku' has code 1234567, "
                                          "deeper than the similarity table"):
        resolve(rate.phrase(8), None, rate, deep, config.without_semantics())


def test_a_thesaurus_max_depth_deeper_than_the_table_is_rejected(corpora):
    with pytest.raises(ConfigError, match="^thesaurus max_depth 7, deeper than"):
        resolve_discourse(corpora["rate"], _lex(thesaurus=Thesaurus(codes={}, max_depth=7)))


def test_a_rejected_pair_leaves_the_held_caches_to_the_sound_pair(corpora, lexicons, config):
    rate = corpora["rate"]
    before = resolve_discourse(rate, lexicons, config)
    held = _run_caches(lexicons, config)
    with pytest.raises(ConfigError):
        resolve_discourse(rate, _lex(thesaurus=Thesaurus(codes={}, max_depth=7)), config)
    assert _run_caches(lexicons, config) is held
    assert resolve_discourse(rate, lexicons, config) == before


def test_a_thesaurus_code_longer_than_its_max_depth_is_rejected(lexicons):
    codes = {lemma: tuple(code + "00" for code in lemma_codes)
             for lemma, lemma_codes in lexicons.thesaurus.codes.items()}
    lemma, [code, *_] = next(iter(codes.items()))
    with pytest.raises(ValueError, match=f"^thesaurus lemma {lemma!r} has code {code}, "
                                         "longer than max_depth 5$"):
        Thesaurus(codes=codes, max_depth=5)
    assert Thesaurus(codes=codes, max_depth=7) == Thesaurus.from_entries(
        (lemma, code) for lemma, lemma_codes in codes.items() for code in lemma_codes)
