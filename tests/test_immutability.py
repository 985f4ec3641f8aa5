"""Documents, lexicons and configurations are read-only all the way down."""
import copy
import dataclasses
import pickle

import pytest

from bridgeref.config import ResolverConfig
from bridgeref.lexicons import (
    CaseFrameDict,
    CaseSlot,
    NounAttributes,
    Thesaurus,
    VerbCaseFrame,
    XnoYStore,
)
from bridgeref.resolver import detect_targets, resolve_discourse


_MAPPINGS = {
    "Thesaurus.codes": lambda corpora, lex, config: lex.thesaurus.codes,
    "CaseFrameDict.frames": lambda corpora, lex, config: lex.case_frames.frames,
    "CaseFrameDict.verbal_nouns":
        lambda corpora, lex, config: lex.case_frames.verbal_nouns,
    "NounAttributes.flags": lambda corpora, lex, config: lex.attrs.flags,
    "XnoYStore._by_y": lambda corpora, lex, config: lex.xnoy._by_y,
    "Discourse._by_id": lambda corpora, lex, config: corpora["rate"]._by_id,
    "ResolverConfig.definiteness": lambda corpora, lex, config: config.definiteness,
    "ResolverConfig.similarity_table":
        lambda corpora, lex, config: config.similarity_table,
}


@pytest.mark.parametrize("name", list(_MAPPINGS))
def test_internal_mapping_refuses_item_assignment(name, corpora, lexicons, config):
    mapping = _MAPPINGS[name](corpora, lexicons, config)
    key = next(iter(mapping))
    with pytest.raises(TypeError):
        mapping[key] = mapping[key]
    with pytest.raises(TypeError):
        del mapping[key]


def test_constructors_copy_the_dicts_they_are_given():
    codes = {"ie": ("12",)}
    thesaurus = Thesaurus(codes=codes, max_depth=2)
    flags = {"ie": frozenset({"relational"})}
    attrs = NounAttributes(flags=flags)
    table = {0: -30, 1: 10}
    config = ResolverConfig(similarity_table=table)
    codes["ie"] = ("99",)
    flags.clear()
    table[1] = 99
    assert thesaurus.lookup("ie") == ("12",)
    assert attrs.has("ie", "relational")
    assert config.similarity_table[1] == 10
    replaced = dataclasses.replace(config, subject_base=1)
    assert replaced.similarity_table == {0: -30, 1: 10}
    with pytest.raises(TypeError):
        replaced.similarity_table[0] = 0



def test_a_thesaurus_keeps_its_own_codes_not_the_callers_list():
    codes = ["1253"]
    thesaurus = Thesaurus(codes={"ie": codes}, max_depth=4)
    codes.append("99999")
    assert thesaurus.lookup("ie") == ("1253",)


def test_an_xnoy_store_keeps_its_own_pairs_not_the_callers_list():
    pairs = [("kuni", "kokki")]
    store = XnoYStore(pairs=pairs)
    pairs.append(("ie", "kokki"))
    assert store.pairs == (("kuni", "kokki"),)
    assert store.modifiers_of("kokki") == ("kuni",)


def test_noun_attributes_keep_their_own_flags_not_the_callers_set():
    flags = {"relational"}
    attrs = NounAttributes(flags={"yane": flags})
    flags.add("non_anaphoric")
    assert not attrs.has("yane", "non_anaphoric")
    assert attrs.flags["yane"] == frozenset({"relational"})


def test_case_frames_built_from_lists_resolve_like_the_loaded_ones(corpora, lexicons, config):
    frames = {verb: VerbCaseFrame(verb, [
        CaseSlot(s.surface_case, list(s.constraints), list(s.example_nouns))
        for s in frame.slots]) for verb, frame in lexicons.case_frames.frames.items()}
    listed = dataclasses.replace(lexicons, case_frames=CaseFrameDict(
        frames=frames, verbal_nouns=lexicons.case_frames.verbal_nouns))
    for d in corpora.values():
        assert resolve_discourse(d, listed, config) == resolve_discourse(d, lexicons, config)
    assert listed == lexicons


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Thesaurus(codes={"kuni": ("1253",), "ie": "1253"}, max_depth=4),
                 "thesaurus codes for 'ie' must be a collection, not a string: '1253'",
                 id="thesaurus-codes"),
    pytest.param(lambda: XnoYStore(pairs="kuni"),
                 "xnoy pairs must be a collection, not a string: 'kuni'", id="xnoy-pairs"),
    pytest.param(lambda: XnoYStore(pairs=("ab",)),
                 "xnoy pair must be a collection, not a string: 'ab'", id="xnoy-pair"),
    pytest.param(lambda: NounAttributes(flags={"yane": "relational"}),
                 "noun attribute flags for 'yane' must be a collection, not a string: "
                 "'relational'", id="attribute-flags"),
    pytest.param(lambda: CaseSlot("ga", "15", ()),
                 "case slot 'ga' constraints must be a collection, not a string: '15'",
                 id="slot-constraints"),
    pytest.param(lambda: CaseSlot("ga", (), "hito"),
                 "case slot 'ga' example_nouns must be a collection, not a string: 'hito'",
                 id="slot-examples"),
    pytest.param(lambda: VerbCaseFrame("iku", "ga"),
                 "case frame 'iku' slots must be a collection, not a string: 'ga'",
                 id="frame-slots"),
])
def test_a_string_where_a_lexicon_collection_belongs_is_rejected(build, message):
    with pytest.raises(TypeError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_read_only_objects_pickle_and_copy(corpora, lexicons, config):
    for obj in (lexicons, config, corpora["rate"]):
        for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert clone == obj
    clone = pickle.loads(pickle.dumps(corpora["rate"]))
    assert clone.phrase(8) == corpora["rate"].phrase(8)
    with pytest.raises(TypeError):
        clone._by_id[8] = None
    modifiers = lexicons.xnoy.modifiers_of("yane")
    clone = pickle.loads(pickle.dumps(lexicons))
    assert modifiers and clone.xnoy.modifiers_of("yane") == modifiers


def _slotted_objects(corpora, lexicons, config):
    """One or more instances of every slotted class, from the demo corpus."""
    objects = {}
    for d in corpora.values():
        objects.setdefault("Sentence", []).extend(d.sentences)
        objects.setdefault("Phrase", []).extend(d.phrases())
        objects.setdefault("Target", []).extend(detect_targets(d, lexicons))
        for result in resolve_discourse(d, lexicons, config):
            objects.setdefault("ResolutionResult", []).append(result)
            for proposal in result.proposals:
                objects.setdefault("Proposal", []).append(proposal)
                if proposal.breakdown is not None:
                    objects.setdefault("ScoreBreakdown", []).append(proposal.breakdown)
    return objects


def test_slotted_objects_refuse_new_attributes_and_field_assignment(
        corpora, lexicons, config):
    objects = _slotted_objects(corpora, lexicons, config)
    assert sorted(objects) == [
        "Phrase", "Proposal", "ResolutionResult", "ScoreBreakdown", "Sentence", "Target"]
    for name, instances in objects.items():
        for obj in instances:
            assert not hasattr(obj, "__dict__"), name
            first = dataclasses.fields(obj)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, first, getattr(obj, first))
            # Not even the route frozen dataclasses use in __init__ adds one.
            with pytest.raises(AttributeError):
                object.__setattr__(obj, "note", "extra")


def test_slotted_objects_pickle_copy_and_replace(corpora, lexicons, config):
    for name, instances in _slotted_objects(corpora, lexicons, config).items():
        for obj in instances:
            for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj),
                          copy.copy(obj), dataclasses.replace(obj)):
                assert type(clone) is type(obj), name
                assert clone == obj and repr(clone) == repr(obj), name
            first = dataclasses.fields(obj)[0].name
            changed = dataclasses.replace(obj, **{first: None})
            assert getattr(changed, first) is None and changed != obj, name
            assert getattr(obj, first) is not None, name
