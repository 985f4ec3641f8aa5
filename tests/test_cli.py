import random
import re
import shutil
from pathlib import Path

import pytest

from bridgeref.cli import main
from bridgeref.config import ResolverConfig
from bridgeref.data import DEMO_CORPUS, LEXICON_DIR
from bridgeref.explain import render_score_table
from bridgeref.lexicons import LexiconFormatError, load_lexicons
from bridgeref.resolver import SKIP, detect_targets, resolve
from test_corpus import CYCLE_DOC

LEX = str(LEXICON_DIR)
CORPUS = str(DEMO_CORPUS)


def test_resolve_writes_predictions(tmp_path, capsys):
    out = tmp_path / "preds.tsv"
    assert main(["resolve", "--corpus", CORPUS, "--lexicons", LEX,
                 "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("%")]
    assert "rate\t8\t-\t7\t25" in lines
    assert "analysis\t9\tga\t3\t21" in lines
    assert "analysis\t9\two\t5\t18" in lines
    assert "rain\t1\t-\tNONE\t10" in lines


def test_resolve_to_stdout(capsys):
    assert main(["resolve", "--corpus", CORPUS, "--lexicons", LEX]) == 0
    assert "rate\t8\t-\t7\t25" in capsys.readouterr().out


def test_resolve_no_semantics(capsys):
    assert main(["resolve", "--corpus", CORPUS, "--lexicons", LEX,
                 "--no-semantics"]) == 0
    out = capsys.readouterr().out
    assert "rate\t8\t-\t7\t18" in out


def test_eval_round_trip(tmp_path, capsys):
    out = tmp_path / "preds.tsv"
    main(["resolve", "--corpus", CORPUS, "--lexicons", LEX, "--out", str(out)])
    assert main(["eval", "--corpus", CORPUS, "--predictions", str(out)]) == 0
    report = capsys.readouterr().out
    assert "total       100% (6/6)      100% (6/6)" in report
    assert "once per case slot" in report


def test_explain_outputs_score_tables(capsys):
    assert main(["explain", "--corpus", CORPUS, "--lexicons", LEX,
                 "--anaphor", "rate:8"]) == 0
    out = capsys.readouterr().out
    assert "Total Score" in out
    assert "nisidoku" in out


def test_explain_verbal_noun_prints_one_table_per_slot(capsys):
    assert main(["explain", "--corpus", CORPUS, "--lexicons", LEX,
                 "--anaphor", "analysis:9"]) == 0
    out = capsys.readouterr().out
    assert "[ga slot]" in out and "[wo slot]" in out


def test_explain_splits_a_document_id_holding_colons_at_the_last_colon(
        tmp_path, capsys):
    corpus = tmp_path / "news.adc"
    corpus.write_text(DEMO_CORPUS.read_text(encoding="utf-8").replace(
        "#DOC analysis\n", "#DOC news:analysis\n"), encoding="utf-8")
    assert main(["explain", "--corpus", CORPUS, "--lexicons", LEX,
                 "--anaphor", "analysis:9"]) == 0
    expected = capsys.readouterr().out
    assert main(["explain", "--corpus", str(corpus), "--lexicons", LEX,
                 "--anaphor", "news:analysis:9"]) == 0
    assert capsys.readouterr().out == expected


def test_explain_non_target_is_a_data_error(capsys):
    assert main(["explain", "--corpus", CORPUS, "--lexicons", LEX,
                 "--anaphor", "rate:2"]) == 1
    assert "not an anaphora target" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--no-semantics"]])
def test_explain_prints_the_per_target_tables_of_every_target(
        flags, corpora, lexicons, capsys):
    config = ResolverConfig.default()
    if flags:
        config = config.without_semantics()
    explained = 0
    for doc_id, doc in corpora.items():
        slots = {}
        for target in detect_targets(doc, lexicons):
            if target.mode != SKIP:
                slots.setdefault(target.phrase_id, []).append(target.slot)
        for phrase_id, phrase_slots in slots.items():
            expected = "\n".join(
                render_score_table(resolve(doc.phrase(phrase_id), slot, doc, lexicons,
                                           config), doc)
                for slot in phrase_slots)
            assert main(["explain", "--corpus", CORPUS, "--lexicons", LEX,
                         "--anaphor", f"{doc_id}:{phrase_id}", *flags]) == 0
            assert capsys.readouterr().out == expected, (doc_id, phrase_id)
            explained += 1
    assert explained == 6


@pytest.mark.parametrize("anaphor, code, message", [
    ("rate:x", 2, "must be an integer, got 'x'"),
    ("nosuch:1", 1, "no document 'nosuch'"),
    ("rate:99", 1, "no phrase 99 in document 'rate'"),
    ("rate:+8", 2, "must be an integer, got '+8'"),
])
def test_explain_rejects_an_anaphor_it_cannot_find(anaphor, code, message, capsys):
    assert main(["explain", "--corpus", CORPUS, "--lexicons", LEX,
                 "--anaphor", anaphor]) == code
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["resolve", "--corpus", "{dir}", "--lexicons", LEX, "--out", "{dir}/preds.tsv"],
    ["resolve", "--corpus", CORPUS, "--lexicons", LEX, "--out", "{dir}"],
    ["resolve", "--corpus", CORPUS, "--lexicons", LEX, "--config", "{dir}",
     "--out", "{dir}/preds.tsv"],
    ["eval", "--corpus", CORPUS, "--predictions", "{dir}"],
])
def test_a_directory_in_place_of_a_file_is_a_data_error(argv, tmp_path, capsys):
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_missing_corpus_file_is_a_data_error(capsys):
    assert main(["resolve", "--corpus", "/nonexistent.adc",
                 "--lexicons", LEX]) == 1


def test_bad_config_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("sim.0=99\n", encoding="utf-8")   # breaks monotonicity
    assert main(["resolve", "--corpus", CORPUS, "--lexicons", LEX,
                 "--config", str(config)]) == 2
    assert "configuration error" in capsys.readouterr().err


BAD_CORPUS = "#DOC bad\n#SENT 0\n1\tneko\n"      # too few fields: exit 1 if read


def test_bad_config_is_reported_before_the_corpus_is_read(tmp_path, capsys):
    corpus = tmp_path / "bad.adc"
    corpus.write_text(BAD_CORPUS, encoding="utf-8")
    config = tmp_path / "bad.cfg"
    config.write_text("sim.0=99\n", encoding="utf-8")
    assert main(["explain", "--corpus", str(corpus), "--lexicons", LEX,
                 "--anaphor", "rate:8"]) == 1
    capsys.readouterr()
    assert main(["resolve", "--corpus", str(corpus), "--lexicons", LEX,
                 "--config", str(config)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_anaphor_without_a_colon_is_reported_before_the_corpus_is_read(tmp_path, capsys):
    corpus = tmp_path / "bad.adc"
    corpus.write_text(BAD_CORPUS, encoding="utf-8")
    assert main(["explain", "--corpus", str(corpus), "--lexicons", LEX,
                 "--anaphor", "rate8"]) == 2
    assert "DOC:ID" in capsys.readouterr().err


def test_config_overrides_apply(tmp_path, capsys):
    config = tmp_path / "tweak.cfg"
    config.write_text("indefinite=-3\n", encoding="utf-8")
    assert main(["resolve", "--corpus", CORPUS, "--lexicons", LEX,
                 "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "rate\t8\t-\t7\t27" in out   # every weighted total shifts by +2


def test_build_dict_with_merge(tmp_path, capsys):
    lex = LEXICON_DIR
    assert main(["build-dict",
                 "--xnoy", str(lex / "xnoy.tsv"),
                 "--thesaurus", str(lex / "thesaurus.tsv"),
                 "--attrs", str(lex / "nounattrs.tsv"),
                 "--merge", "genshu:kokumin"]) == 0
    out = capsys.readouterr().out
    assert "Y kokumin" in out
    assert "merged-from:kokumin" in out
    assert "rejected: hontou" in out


def test_build_dict_bad_merge_argument(capsys):
    lex = LEXICON_DIR
    assert main(["build-dict",
                 "--xnoy", str(lex / "xnoy.tsv"),
                 "--thesaurus", str(lex / "thesaurus.tsv"),
                 "--attrs", str(lex / "nounattrs.tsv"),
                 "--merge", "nonsense"]) == 2


def test_build_dict_merge_from_an_unknown_noun_is_a_data_error(capsys):
    lex = LEXICON_DIR
    assert main(["build-dict",
                 "--xnoy", str(lex / "xnoy.tsv"),
                 "--thesaurus", str(lex / "thesaurus.tsv"),
                 "--attrs", str(lex / "nounattrs.tsv"),
                 "--merge", "genshu:nosuch"]) == 1
    captured = capsys.readouterr()
    assert "no examples for head noun 'nosuch'" in captured.err and captured.out == ""


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["resolve"])          # missing required arguments
    assert excinfo.value.code == 2


def test_resolve_rejects_head_cycle_before_writing(tmp_path, capsys):
    corpus = tmp_path / "loop.adc"
    corpus.write_text(CYCLE_DOC, encoding="utf-8")
    out = tmp_path / "preds.tsv"
    assert main(["resolve", "--corpus", str(corpus), "--lexicons", LEX,
                 "--out", str(out)]) == 1
    assert "document 'loop'" in capsys.readouterr().err
    assert not out.exists()


def test_thesaurus_deeper_than_similarity_table_is_a_config_error(tmp_path, capsys):
    lex = tmp_path / "lexicons"
    shutil.copytree(LEXICON_DIR, lex)
    with (lex / "thesaurus.tsv").open("a", encoding="utf-8") as f:
        f.write("\nie\t1712345\n")
    out = tmp_path / "preds.tsv"
    assert main(["resolve", "--corpus", CORPUS, "--lexicons", str(lex),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "thesaurus.tsv" in err and "'ie'" in err and "1712345" in err
    assert not out.exists()


def test_case_frame_constraint_deeper_than_similarity_table(tmp_path, capsys):
    lex = tmp_path / "lexicons"
    shutil.copytree(LEXICON_DIR, lex)
    with (lex / "caseframes.txt").open("a", encoding="utf-8") as f:
        f.write("\nverb fukaku\nslot case=ga constraints=1234567 examples=-\n")
    assert main(["explain", "--corpus", CORPUS, "--lexicons", str(lex),
                 "--anaphor", "rate:8"]) == 2
    captured = capsys.readouterr()
    assert "caseframes.txt" in captured.err and "'fukaku'" in captured.err
    assert "1234567" in captured.err and captured.out == ""


def test_unreachable_example_match_level_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("example_match_min_level=9\n", encoding="utf-8")
    out = tmp_path / "preds.tsv"
    assert main(["resolve", "--corpus", CORPUS, "--lexicons", LEX,
                 "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(config) in err and "example_match_min_level=9" in err
    assert not out.exists()


def test_verbal_noun_mapped_to_a_missing_verb_is_a_data_error(tmp_path, capsys):
    lex = tmp_path / "lexicons"
    shutil.copytree(LEXICON_DIR, lex)
    frames = lex / "caseframes.txt"
    lineno = len(frames.read_text(encoding="utf-8").splitlines()) + 1
    with frames.open("a", encoding="utf-8") as f:
        f.write("vn foo -> nosuchverb\n")
    out = tmp_path / "preds.tsv"
    assert main(["resolve", "--corpus", CORPUS, "--lexicons", str(lex),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"caseframes.txt: line {lineno}:" in err
    assert "'foo'" in err and "'nosuchverb'" in err
    assert not out.exists()


def test_case_frame_constraint_that_is_not_a_code_is_a_data_error(tmp_path, capsys):
    lex = tmp_path / "lexicons"
    shutil.copytree(LEXICON_DIR, lex)
    frames = lex / "caseframes.txt"
    lines = frames.read_text(encoding="utf-8").splitlines()
    lineno = next(n for n, line in enumerate(lines, 1) if "constraints=1112 " in line)
    lines[lineno - 1] = lines[lineno - 1].replace("constraints=1112 ", "constraints=x1112 ")
    frames.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "preds.tsv"
    assert main(["resolve", "--corpus", CORPUS, "--lexicons", str(lex),
                 "--out", str(out)]) == 1
    assert (f"caseframes.txt: line {lineno}: case-frame constraint 'x1112' must be a "
            f"nonempty digit string") in capsys.readouterr().err
    assert not out.exists()


def test_weight_row_with_an_unknown_particle_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("semantics=on\nweight.topic.noun:zz=5\n", encoding="utf-8")
    out = tmp_path / "preds.tsv"
    assert main(["resolve", "--corpus", CORPUS, "--lexicons", LEX,
                 "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{config}: line 2:" in err and "'zz'" in err
    assert not out.exists()


def _demo_predictions(tmp_path):
    out = tmp_path / "preds.tsv"
    assert main(["resolve", "--corpus", CORPUS, "--lexicons", LEX,
                 "--out", str(out)]) == 0
    return out


def test_eval_rejects_a_repeated_unit(tmp_path, capsys):
    out = _demo_predictions(tmp_path)
    lines = out.read_text(encoding="utf-8").splitlines()
    first = lines.index("rate\t8\t-\t7\t25") + 1
    out.write_text("\n".join(lines + ["rate\t8\t-\t7\t25"]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--corpus", CORPUS, "--predictions", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"lines {first} and {len(lines) + 1}" in captured.err
    assert "rate:8" in captured.err and captured.out == ""


def test_eval_rejects_a_slot_that_is_not_a_surface_case(tmp_path, capsys):
    out = _demo_predictions(tmp_path)
    lines = out.read_text(encoding="utf-8").splitlines()
    at = lines.index("analysis\t9\tga\t3\t21")
    lines[at] = "analysis\t9\tzz\t3\t21"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--corpus", CORPUS, "--predictions", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {out}: predictions line {at + 1}: "
                            f"slot 'zz' is not a surface case\n")
    assert captured.out == ""


def test_a_document_id_opening_with_a_percent_sign_stops_resolve_and_eval(tmp_path, capsys):
    # Its predictions lines would read as comments, and eval would score
    # the corpus without them.
    out = _demo_predictions(tmp_path)
    text = DEMO_CORPUS.read_text(encoding="utf-8")
    lineno = text.splitlines().index("#DOC rate") + 1
    corpus = tmp_path / "percent.adc"
    corpus.write_text(text.replace("#DOC rate\n", "#DOC %rate\n"), encoding="utf-8")
    out.write_text(out.read_text(encoding="utf-8").replace("\nrate\t", "\n%rate\t"),
                   encoding="utf-8")
    fault = f"error: {corpus}: line {lineno}: #DOC id must not start with '%', got '%rate'\n"
    capsys.readouterr()
    assert main(["resolve", "--corpus", str(corpus), "--lexicons", LEX]) == 1
    assert capsys.readouterr() == ("", fault)
    assert main(["eval", "--corpus", str(corpus), "--predictions", str(out)]) == 1
    assert capsys.readouterr() == ("", fault)


def test_eval_rejects_a_winner_the_document_lacks(tmp_path, capsys):
    out = _demo_predictions(tmp_path)
    text = out.read_text(encoding="utf-8").replace("rate\t8\t-\t7\t25", "rate\t8\t-\t999\t25")
    out.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--corpus", CORPUS, "--predictions", str(out)]) == 1
    captured = capsys.readouterr()
    assert "rate:8" in captured.err and "999" in captured.err and captured.out == ""


def test_eval_rejects_a_winner_after_its_anaphor(tmp_path, capsys):
    out = _demo_predictions(tmp_path)
    text = out.read_text(encoding="utf-8").replace("rate\t8\t-\t7\t25", "rate\t8\t-\t9\t25")
    out.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--corpus", CORPUS, "--predictions", str(out)]) == 1
    captured = capsys.readouterr()
    assert "rate:8" in captured.err and "antecedent 9" in captured.err
    assert "does not precede" in captured.err and captured.out == ""


def test_eval_rejects_an_anaphor_scored_whole_and_by_slot(tmp_path, capsys):
    out = _demo_predictions(tmp_path)
    lines = out.read_text(encoding="utf-8").splitlines()
    whole = lines.index("rate\t8\t-\t7\t25") + 1
    out.write_text("\n".join(lines + ["rate\t8\tga\t7\t25"]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--corpus", CORPUS, "--predictions", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"lines {whole} and {len(lines) + 1}" in captured.err
    assert "rate:8" in captured.err and captured.out == ""


def test_eval_rejects_a_slot_on_a_non_verbal_anaphor(tmp_path, capsys):
    out = _demo_predictions(tmp_path)
    text = out.read_text(encoding="utf-8").replace("rate\t8\t-\t7\t25", "rate\t8\tga\t7\t25")
    out.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--corpus", CORPUS, "--predictions", str(out)]) == 1
    captured = capsys.readouterr()
    assert "rate:8" in captured.err and "'ga'" in captured.err and captured.out == ""


@pytest.mark.parametrize("line, message", [
    ("rate\t8\t-\tx\t25", "bad integer field"),
    ("rate\t99\t-\t7\t25", "document 'rate' has no phrase 99"),
])
def test_eval_rejects_a_line_it_cannot_place(line, message, tmp_path, capsys):
    out = _demo_predictions(tmp_path)
    text = out.read_text(encoding="utf-8").replace("rate\t8\t-\t7\t25", line)
    out.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--corpus", CORPUS, "--predictions", str(out)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


_LEXICON_MUTANTS = (
    "", "-", "x", "0", "1", "12", "1712345", "abc", "1a", "%", "->", "verb", "slot",
    "vn", "case=ga", "case=zz", "case=", "constraints=", "constraints=-",
    "constraints=1234567", "constraints=1,,2", "examples=", "examples=-",
    "examples=ie", "relational", "non_anaphoric", "adjectival,zz", ",", "ie\tyane",
)


def _mutate_line(rng, line, mutants):
    """One seeded edit of one line: a token replaced, cut or dropped, or a separator swapped."""
    sep = next((s for s in ("\t", " ", "=") if s in line), "\t")
    tokens = line.split(sep)
    j = rng.randrange(len(tokens))
    roll = rng.random()
    if roll < 0.6:
        tokens[j] = rng.choice(mutants)
    elif roll < 0.8:
        tokens[j] = tokens[j][:rng.randrange(len(tokens[j]) + 1)]
    elif roll < 0.9:
        del tokens[j]
    else:
        return rng.choice([s for s in ("\t", " ", "=") if s != sep]).join(tokens)
    return sep.join(tokens)


def _mutated_text(rng, text, mutants):
    """``text`` with one line edited, deleted or doubled."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    roll = rng.random()
    if roll < 0.8:
        changed = [_mutate_line(rng, lines[i], mutants)]
    elif roll < 0.9:
        changed = []
    else:
        changed = [lines[i], lines[i]]
    return "\n".join(lines[:i] + changed + lines[i + 1:]) + "\n"


def test_mutated_lexicon_lines_exit_0_1_or_2(tmp_path, capsys):
    lex = tmp_path / "lexicons"
    shutil.copytree(LEXICON_DIR, lex)
    names = sorted(p.name for p in LEXICON_DIR.iterdir())
    commands = [
        ["resolve", "--corpus", CORPUS, "--lexicons", str(lex)],
        ["explain", "--corpus", CORPUS, "--lexicons", str(lex), "--anaphor", "rate:8"],
        ["explain", "--corpus", CORPUS, "--lexicons", str(lex), "--anaphor", "analysis:9"],
        ["build-dict", "--xnoy", str(lex / "xnoy.tsv"), "--thesaurus",
         str(lex / "thesaurus.tsv"), "--attrs", str(lex / "nounattrs.tsv")],
    ]
    rng = random.Random(7)
    codes = []
    for n in range(500):
        name = names[n % len(names)]
        original = (LEXICON_DIR / name).read_text(encoding="utf-8")
        (lex / name).write_text(_mutated_text(rng, original, _LEXICON_MUTANTS),
                                encoding="utf-8")
        codes.append(main(commands[n // len(names) % len(commands)]))
        capsys.readouterr()
        (lex / name).write_text(original, encoding="utf-8")
    assert {0, 1} <= set(codes) <= {0, 1, 2}, sorted(set(codes))


def test_every_rejected_lexicon_mutation_names_its_file_and_line(tmp_path):
    lex = tmp_path / "lexicons"
    shutil.copytree(LEXICON_DIR, lex)
    names = sorted(p.name for p in LEXICON_DIR.iterdir())
    rng = random.Random(13)
    outcomes = []
    for n in range(600):
        name = names[n % len(names)]
        original = (LEXICON_DIR / name).read_text(encoding="utf-8")
        (lex / name).write_text(_mutated_text(rng, original, _LEXICON_MUTANTS),
                                encoding="utf-8")
        try:
            load_lexicons(lex)
            outcomes.append("accepted")
        except LexiconFormatError as exc:
            assert re.match(rf"{re.escape(str(lex / name))}: line \d+: ", str(exc)), str(exc)
            outcomes.append("rejected")
        (lex / name).write_text(original, encoding="utf-8")
    assert set(outcomes) == {"accepted", "rejected"}


def test_resolve_names_the_line_of_a_non_digit_thesaurus_code(tmp_path, capsys):
    lex = tmp_path / "lexicons"
    shutil.copytree(LEXICON_DIR, lex)
    thesaurus = lex / "thesaurus.tsv"
    lineno = len(thesaurus.read_text(encoding="utf-8").splitlines()) + 1
    with thesaurus.open("a", encoding="utf-8") as f:
        f.write("ie\t12a\n")
    assert main(["resolve", "--corpus", CORPUS, "--lexicons", str(lex)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{thesaurus}: line {lineno}: thesaurus code for 'ie'" in captured.err


def test_a_repeated_document_id_is_a_data_error(tmp_path, capsys):
    twice = tmp_path / "twice.adc"
    twice.write_text(Path(CORPUS).read_text(encoding="utf-8") * 2, encoding="utf-8")
    predictions = _demo_predictions(tmp_path)
    out = tmp_path / "twice.tsv"
    assert main(["resolve", "--corpus", str(twice), "--lexicons", LEX,
                 "--out", str(out)]) == 1
    assert not out.exists()
    assert f"{twice}: document id 'rate' is repeated" in capsys.readouterr().err
    assert main(["eval", "--corpus", str(twice), "--predictions", str(predictions)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"{twice}: document id 'rate'" in captured.err


@pytest.mark.parametrize("text, message", [
    ("rate\t8\n", "predictions line 1: expected 5 fields"),
    ("x\t8\t-\t7\t25\n", "predictions name unknown document 'x'"),
])
def test_eval_names_the_predictions_file(text, message, tmp_path, capsys):
    predictions = tmp_path / "preds.tsv"
    predictions.write_text(text, encoding="utf-8")
    assert main(["eval", "--corpus", CORPUS, "--predictions", str(predictions)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {predictions}: {message}\n"


@pytest.mark.parametrize("name, code", [
    ("lexicons/thesaurus.tsv", 1), ("lexicons/caseframes.txt", 1),
    ("lexicons/xnoy.tsv", 1), ("lexicons/nounattrs.tsv", 1),
    ("demo.adc", 1), ("preds.tsv", 1), ("run.cfg", 2),
])
def test_a_file_that_is_not_utf8_is_named(name, code, tmp_path, capsys):
    shutil.copytree(LEXICON_DIR, tmp_path / "lexicons")
    shutil.copy(CORPUS, tmp_path / "demo.adc")
    _demo_predictions(tmp_path)
    (tmp_path / "run.cfg").write_text("sim.4=8\n", encoding="utf-8")
    bad = tmp_path / name
    with bad.open("ab") as f:
        f.write(b"\xff")
    capsys.readouterr()
    if name == "preds.tsv":
        argv = ["eval", "--corpus", str(tmp_path / "demo.adc"), "--predictions", str(bad)]
    else:
        argv = ["resolve", "--corpus", str(tmp_path / "demo.adc"),
                "--lexicons", str(tmp_path / "lexicons"), "--config", str(tmp_path / "run.cfg")]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = "configuration error: " if code == 2 else "error: "
    assert captured.err.startswith(f"{prefix}{bad}: not valid UTF-8: ")


@pytest.mark.parametrize("old, new, message", [
    ("\tkyoutyou\tnoun\t", "\tkyoutyou\tnoun\t\t", "line 9: "),
    ("\tkyoutyou\tnoun\tcommon\two\t3\t", "\tkyoutyou\tnoun\tcommon\two\t99\t",
     "document 'rate': "),
])
def test_eval_names_the_corpus_file_of_a_broken_record(old, new, message, tmp_path, capsys):
    predictions = _demo_predictions(tmp_path)
    corpus = tmp_path / "broken.adc"
    corpus.write_text(Path(CORPUS).read_text(encoding="utf-8").replace(old, new, 1),
                      encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--corpus", str(corpus), "--predictions", str(predictions)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {corpus}: {message}" in captured.err


_CONFIG = """\
definite=0
indefinite=-5
generic=-5
sim.0=-30
sim.1=-20
sim.2=-10
sim.3=0
sim.4=7
sim.5=10
subject_base=23
identity_points=30
relational_points=30
pseudo_points=10
example_match_min_level=4
semantics=on
weight.focus.noun:no=12
"""
_CONFIG_MUTANTS = (
    "", "=", "-1", "0", "5", "99", "100000", "x", "1.5", "on", "off", "true",
    "sim.6", "sim.-1", "sim.x", "sim.", "definite", "generic", "bogus", "semantics",
    "example_match_min_level", "weight.topic.noun:ga", "weight.focus.pronoun:zz",
    "weight.topic", "weight.x.noun:no", "weight.focus.noun:", "weight.focus.noun:no:punct",
    "weight.focus.noun::punct", "weight.focus.verb:no", "#", "%",
)


def test_mutated_config_lines_exit_0_or_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    rng = random.Random(11)
    codes = []
    for _ in range(500):
        config.write_text(_mutated_text(rng, _CONFIG, _CONFIG_MUTANTS), encoding="utf-8")
        codes.append(main(["resolve", "--corpus", CORPUS, "--lexicons", LEX,
                           "--config", str(config)]))
        capsys.readouterr()
    assert set(codes) == {0, 2}, sorted(set(codes))


@pytest.mark.parametrize("bad_first", [False, True])
def test_resolve_rejects_sem_codes_that_split_to_a_lone_dash_in_either_order(
        bad_first, tmp_path, capsys):
    good = "1\tneko\tneko\tnoun\tcommon\tga\t2\t-\t-\t-\t-\n2\tneta.\tneru\tverb\t-\t-\t-\t-\t-\t-\t-\n"
    bad = good.replace("\t-\t-\t-\t-\n", "\t-\t-,\t-\t-\n", 1)
    records = [bad, good] if bad_first else [good, bad]
    corpus = tmp_path / "codes.adc"
    corpus.write_text("".join(f"#DOC d{k}\n#SENT 0\n{r}" for k, r in enumerate(records)),
                      encoding="utf-8")
    out = tmp_path / "out.tsv"
    assert main(["resolve", "--corpus", str(corpus), "--lexicons", LEX,
                 "--out", str(out)]) == 1
    line = 3 if bad_first else 7
    assert capsys.readouterr().err == (
        f"error: {corpus}: line {line}: field 'sem_codes': '-' reads back as no codes\n")
    assert not out.exists()


@pytest.mark.parametrize("name, code", [
    ("lexicons/thesaurus.tsv", 1), ("lexicons/caseframes.txt", 1),
    ("lexicons/xnoy.tsv", 1), ("lexicons/nounattrs.tsv", 1),
    ("demo.adc", 1), ("preds.tsv", 1), ("run.cfg", 2),
])
def test_a_file_that_opens_with_a_byte_order_mark_is_named(name, code, tmp_path, capsys):
    shutil.copytree(LEXICON_DIR, tmp_path / "lexicons")
    shutil.copy(CORPUS, tmp_path / "demo.adc")
    _demo_predictions(tmp_path)
    (tmp_path / "run.cfg").write_text("sim.4=8\n", encoding="utf-8")
    bad = tmp_path / name
    bad.write_bytes(b"\xef\xbb\xbf" + bad.read_bytes())
    capsys.readouterr()
    if name == "preds.tsv":
        argv = ["eval", "--corpus", str(tmp_path / "demo.adc"), "--predictions", str(bad)]
    else:
        argv = ["resolve", "--corpus", str(tmp_path / "demo.adc"),
                "--lexicons", str(tmp_path / "lexicons"), "--config", str(tmp_path / "run.cfg")]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = "configuration error: " if code == 2 else "error: "
    assert captured.err == (f"{prefix}{bad}: starts with a UTF-8 byte-order mark "
                            "(bytes ef bb bf); save the file without it\n")
