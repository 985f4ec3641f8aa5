"""Documents, lexicons and configurations are read-only all the way down."""
import copy
import dataclasses
import pickle

import pytest

from bridgeref.config import ResolverConfig
from bridgeref.lexicons import NounAttributes, Thesaurus


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
