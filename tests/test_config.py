import copy
import dataclasses
import pickle
import shutil

import pytest

from bridgeref.cli import main
from bridgeref.config import ConfigError, ResolverConfig, load_config
from bridgeref.corpus import Discourse, Sentence
from bridgeref.data import DEMO_CORPUS, LEXICON_DIR
from bridgeref.lexicons import LexiconFormatError, load_lexicons
from bridgeref.resolver import resolve, resolve_discourse
from bridgeref.salience import WeightRow
from randgen import make_phrase, random_long_case


def test_defaults():
    config = ResolverConfig.default()
    assert config.definiteness == {"definite": 0, "indefinite": -5, "generic": -5}
    assert config.similarity_table == {0: -30, 1: -20, 2: -10, 3: 0, 4: 7, 5: 10}
    assert config.subject_base == 23
    assert config.identity_points == 30
    assert config.relational_points == 30
    assert config.pseudo_points == 10


def test_load_config_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "% tweak everything\n"
        "definite=2\n"
        "sim.3=1\n"
        "sim.4=8\n"
        "subject_base=25\n"
        "pseudo_points=12\n"
        "weight.focus.noun:no=12\n"
        "weight.topic.pronoun:mo:punct=19\n",
        encoding="utf-8")
    config = load_config(path)
    assert config.definiteness["definite"] == 2
    assert config.similarity_table[3] == 1
    assert config.similarity_table[4] == 8
    assert config.subject_base == 25
    assert config.pseudo_points == 12
    assert len(config.extra_weight_rows) == 2
    assert config.extra_weight_rows[0].particles == frozenset({"no"})
    assert config.extra_weight_rows[1].match_punct


def test_load_config_rejects_non_monotone_table(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("sim.5=-99\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="monotonic"):
        load_config(path)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mystery=1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_load_config_rejects_gappy_table(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("sim.9=50\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="contiguous"):
        load_config(path)


def test_extra_weight_rows_feed_the_resolver(lexicons, tmp_path):
    # a genitive phrase only becomes a candidate once a noun:no row exists
    doc = Discourse(doc_id="t", sentences=(
        Sentence(0, (make_phrase(1, lemma="nihon", particles=("no",), head=2),
                     make_phrase(2, lemma="keizai", particles=("wa",), head=3),
                     make_phrase(3, lemma="tsuyoi", pos="verb"))),
        Sentence(1, (make_phrase(4, lemma="kouteibuai", particles=("ga",),
                                 ref="indefinite"),
                     make_phrase(5, lemma="agaru", pos="verb"))),
    ))
    plain = resolve(doc.phrase(4), None, doc, lexicons)
    assert 1 not in plain.all_scores
    path = tmp_path / "run.cfg"
    path.write_text("weight.focus.noun:no=12\n", encoding="utf-8")
    config = load_config(path)
    boosted = resolve(doc.phrase(4), None, doc, lexicons, config)
    # nihon: 12 - 1 - 5 + 10 (identity with the observed modifier nihon)
    assert boosted.all_scores[1] == 16


def test_weights_file_in_lexicon_dir_is_rejected(tmp_path):
    target = tmp_path / "lexicons"
    shutil.copytree(LEXICON_DIR, target)
    weights = target / "weights.tsv"
    weights.write_text("focus\tnoun:no\t12\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError, match="--config") as excinfo:
        load_lexicons(target)
    assert str(weights) in str(excinfo.value)
    assert "weight.<topic|focus>.<pattern>=<w>" in str(excinfo.value)


def test_resolve_with_a_weights_file_exits_1_and_writes_nothing(tmp_path, capsys):
    target = tmp_path / "lexicons"
    shutil.copytree(LEXICON_DIR, target)
    (target / "weights.tsv").write_text("focus\tnoun:no\t12\n", encoding="utf-8")
    out = tmp_path / "preds.tsv"
    assert main(["resolve", "--corpus", str(DEMO_CORPUS), "--lexicons", str(target),
                 "--out", str(out)]) == 1
    assert "weights.tsv" in capsys.readouterr().err
    assert not out.exists()


def test_load_config_rejects_unreachable_example_level(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("example_match_min_level=6\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="example_match_min_level=6") as excinfo:
        load_config(path)
    assert str(path) in str(excinfo.value)
    path.write_text("example_match_min_level=6\nsim.6=12\n", encoding="utf-8")
    assert load_config(path).example_match_min_level == 6


def test_unknown_weight_row_particle_names_file_and_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("weight.focus.noun:no=12\nweight.topic.noun:zz=5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 2: unknown particle 'zz'") as excinfo:
        load_config(path)
    assert str(path) in str(excinfo.value)


def test_config_built_in_code_is_checked():
    for fields, message in [
            ({"definiteness": {"definite": 0}}, "definiteness must score exactly"),
            ({"similarity_table": {}}, "contiguous"),
            ({"similarity_table": {0: -30, 2: 5}}, "contiguous"),
            ({"similarity_table": {0: 10, 1: -5}}, "monotonic")]:
        with pytest.raises(ConfigError, match=message):
            ResolverConfig(**fields)
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(ResolverConfig.default(), **fields)
    sound = ResolverConfig(definiteness={"definite": 1, "indefinite": -4, "generic": -6},
                           similarity_table={0: -9, 1: 0, 2: 4})
    for clone in (pickle.loads(pickle.dumps(sound)), copy.deepcopy(sound)):
        assert clone == sound


def test_weight_row_with_a_bad_suffix_names_file_and_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("weight.topic.noun:ga:xyz=5\n", encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert str(excinfo.value) == (
        f"{path}: line 1: bad weight row suffix 'xyz' (only 'punct' allowed)")


def test_extra_weight_rows_given_as_a_list_are_held_as_a_tuple():
    # A list used to construct, and resolving with it raised a bare TypeError.
    row = WeightRow("focus", "noun", frozenset({"no"}), False, 12)
    listed = ResolverConfig(extra_weight_rows=[row])
    assert type(listed.extra_weight_rows) is tuple and listed.extra_weight_rows == (row,)
    d, lex = random_long_case(0)
    assert resolve_discourse(d, lex, listed) == resolve_discourse(
        d, lex, ResolverConfig(extra_weight_rows=(row,)))


def test_extra_weight_rows_hold_only_weight_rows():
    item = ("focus", "noun:no", 12)
    message = r"^extra_weight_rows must hold WeightRow items, got \('focus', 'noun:no', 12\)$"
    with pytest.raises(ConfigError, match=message):
        ResolverConfig(extra_weight_rows=(item,))
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(ResolverConfig.default(), extra_weight_rows=[item])


def test_a_weight_row_keeps_its_own_particles():
    # A row used to keep the caller's set, so emptying the set after a run
    # left the run's caches on the old row while a new config saw the new one.
    particles = {"no"}
    row = WeightRow("topic", "noun", particles, False, 60)
    config = ResolverConfig(extra_weight_rows=(row,))
    d, lex = random_long_case(0)
    before = resolve_discourse(d, lex, config)
    assert before != resolve_discourse(d, lex, ResolverConfig.default())
    particles.clear()
    assert row.particles == frozenset({"no"})
    assert resolve_discourse(d, lex, config) == before
    assert resolve_discourse(d, lex, ResolverConfig(extra_weight_rows=(row,))) == before


@pytest.mark.parametrize("fields, message", [
    ({"subject_base": "23"}, "subject_base must be an integer, got '23'"),
    ({"identity_points": 30.0}, "identity_points must be an integer, got 30.0"),
    ({"relational_points": None}, "relational_points must be an integer, got None"),
    ({"pseudo_points": True}, "pseudo_points must be an integer, got True"),
    ({"example_match_min_level": "4"}, "example_match_min_level must be an integer"),
    ({"definiteness": {"definite": "0", "indefinite": -5, "generic": -5}},
     "definite must be an integer, got '0'"),
    ({"similarity_table": {0: -30, 1: "5"}}, "sim.1 must be an integer, got '5'"),
    ({"extra_weight_rows": None},
     "extra_weight_rows must be a collection of WeightRow items, got None"),
    ({"extra_weight_rows": "wa"},
     "extra_weight_rows must be a collection of WeightRow items, got 'wa'"),
    ({"similarity_table": {0: -30, "1": 5}}, "similarity level must be an integer, got '1'"),
    ({"similarity_table": {0: -30, True: 5}}, "similarity level must be an integer, got True"),
])
def test_config_value_types_are_checked(fields, message):
    with pytest.raises(ConfigError, match=message):
        ResolverConfig(**fields)
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(ResolverConfig.default(), **fields)


@pytest.mark.parametrize("text, message", [("sim.9=50\n", "contiguous"),
                                           ("sim.5=-99\n", "monotonic")])
def test_unsound_table_in_a_file_names_the_file(tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=message) as excinfo:
        load_config(path)
    assert str(excinfo.value).startswith(f"{path}: ")


@pytest.mark.parametrize("line, message", [
    ("indefinite=x", "indefinite must be an integer, got 'x'"),
    ("sim.4=x", "sim.4 must be an integer, got 'x'"),
    ("sim.x=1", "similarity level must be an integer, got 'x'"),
    ("subject_base=2.5", "subject_base must be an integer, got '2.5'"),
    ("weight.focus.noun:ga=x", "weight.focus.noun:ga must be an integer, got 'x'"),
    # Python's int() takes these; the integer rule is a '-' and ASCII digits.
    ("pseudo_points=1_0", "pseudo_points must be an integer, got '1_0'"),
    ("definite=٣", "definite must be an integer, got '٣'"),
    ("sim.+4=8", "similarity level must be an integer, got '+4'"),
])
def test_a_value_that_is_not_an_integer_names_file_line_and_key(tmp_path, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(f"% one comment\n{line}\n", encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert str(excinfo.value) == f"{path}: line 2: {message}"


def test_without_semantics_zeroes_every_score_and_keeps_the_levels(corpora, lexicons):
    config = ResolverConfig(similarity_table={0: -9, 1: 0, 2: 4, 3: 6, 4: 8, 5: 9},
                            subject_base=19)
    bare = config.without_semantics()
    assert bare.similarity_table == dict.fromkeys(range(6), 0)
    assert dataclasses.replace(bare, similarity_table=config.similarity_table) == config
    breakdowns = [p.breakdown for d in corpora.values()
                  for result in resolve_discourse(d, lexicons, bare)
                  for p in result.proposals if p.breakdown is not None]
    assert breakdowns and all(b.similarity == 0 for b in breakdowns)


def test_semantics_off_in_a_file_zeroes_the_table_wherever_the_line_is(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("sim.4=8\n", encoding="utf-8")
    expected = load_config(path).without_semantics()
    assert expected.similarity_table == dict.fromkeys(range(6), 0)
    for text in ("semantics=off\nsim.4=8\n", "sim.4=8\nsemantics=off\n",
                 "semantics=on\nsim.4=8\nsemantics=false\n"):
        path.write_text(text, encoding="utf-8")
        assert load_config(path) == expected, text
    path.write_text("semantics=off\nsim.4=8\nsemantics=on\n", encoding="utf-8")
    assert load_config(path).similarity_table[4] == 8
    # The file's own table is checked before it is zeroed.
    path.write_text("semantics=off\nsim.5=-99\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="monotonic"):
        load_config(path)
