"""The CLI reads its corpus and resolution results as streams.

Every command parses the corpus one document at a time, so a corpus of many
documents is never held whole.  ``resolve`` turns each result into its
prediction as it comes, so a long document's proposals are never all held
at once; ``explain`` reads no further than the first target past the phrase
it was asked for.
"""
import random
import shutil
import tracemalloc
from pathlib import Path

import pytest

from bridgeref import _files, resolver
from bridgeref._files import BLOCK, split_lines
from bridgeref.cli import _documents, main
from bridgeref.config import ResolverConfig
from bridgeref.corpus import _parse_stream, parse_corpus, serialize_corpus
from bridgeref.data import DEMO_CORPUS, LEXICON_DIR
from bridgeref.explain import render_score_table
from bridgeref.lexicons import load_lexicons
from bridgeref.resolver import resolve_discourse
from randgen import random_case, random_marked_case
from test_cli import _demo_predictions

ROOT = Path(__file__).resolve().parents[1]
LEX = str(LEXICON_DIR)


@pytest.fixture(scope="module")
def long_doc(workloads, tmp_path_factory):
    """The benchmark's ``long_doc`` inputs: one document of 1,504 phrases."""
    return workloads.build("long_doc", 3, ROOT, tmp_path_factory.mktemp("long_doc"))


@pytest.fixture(scope="module")
def many_short(workloads, tmp_path_factory):
    """The benchmark's ``many_short`` inputs: 3,002 documents."""
    return workloads.build("many_short", 3, ROOT, tmp_path_factory.mktemp("many_short"))


def _traced_peak(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_resolve_and_eval_peak_below_what_the_parsed_corpus_holds(many_short, tmp_path):
    predictions = str(tmp_path / "preds.tsv")
    resolve_peak = _traced_peak(["resolve", "--corpus", many_short["corpus"],
                                 "--lexicons", many_short["lexicons"], "--out", predictions])
    eval_peak = _traced_peak(["eval", "--corpus", many_short["corpus"],
                              "--predictions", predictions])

    text = Path(many_short["corpus"]).read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        documents = parse_corpus(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(documents) > 3000
    assert resolve_peak < held and eval_peak < held, (resolve_peak, eval_peak, held)


def test_resolve_and_eval_peak_below_twice_the_corpus_file(many_short, tmp_path):
    """The corpus is read in blocks, so neither its text nor its lines are held whole."""
    size = Path(many_short["corpus"]).stat().st_size
    predictions = str(tmp_path / "preds.tsv")
    resolve_peak = _traced_peak(["resolve", "--corpus", many_short["corpus"],
                                 "--lexicons", many_short["lexicons"], "--out", predictions])
    eval_peak = _traced_peak(["eval", "--corpus", many_short["corpus"],
                              "--predictions", predictions])
    assert resolve_peak < 2 * size and eval_peak < 2 * size, (resolve_peak, eval_peak, size)


def test_resolve_peaks_below_half_of_what_the_results_hold(long_doc, tmp_path):
    tracemalloc.start()
    try:
        assert main(["resolve", "--corpus", long_doc["corpus"],
                     "--lexicons", long_doc["lexicons"],
                     "--out", str(tmp_path / "preds.tsv")]) == 0
        cli_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    [discourse] = parse_corpus(Path(long_doc["corpus"]).read_text(encoding="utf-8"))
    lexicons = load_lexicons(long_doc["lexicons"])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = resolve_discourse(discourse, lexicons, ResolverConfig.default())
        for result in results:
            result.all_scores
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(results) > 200
    assert cli_peak < held / 2, (cli_peak, held)


@pytest.mark.parametrize("flags", [[], ["--no-semantics"]])
def test_explain_prints_the_tables_of_the_document_results(flags, corpora, lexicons,
                                                           capsys):
    config = ResolverConfig.default()
    if flags:
        config = config.without_semantics()
    explained = 0
    for doc_id, doc in corpora.items():
        tables: dict[int, list[str]] = {}
        for result in resolve_discourse(doc, lexicons, config):
            tables.setdefault(result.anaphor_id, []).append(render_score_table(result, doc))
        for phrase_id, phrase_tables in tables.items():
            assert main(["explain", "--corpus", str(DEMO_CORPUS), "--lexicons",
                         str(LEXICON_DIR), "--anaphor", f"{doc_id}:{phrase_id}",
                         *flags]) == 0
            assert capsys.readouterr().out == "\n".join(phrase_tables), (doc_id, phrase_id)
            explained += 1
    assert explained == 6


def test_explain_stops_at_the_first_target_past_the_phrase(long_doc, monkeypatch, capsys):
    [discourse] = parse_corpus(Path(long_doc["corpus"]).read_text(encoding="utf-8"))
    targets = sorted({r.anaphor_id for r in resolve_discourse(
        discourse, load_lexicons(long_doc["lexicons"]))})
    resolved = []
    sweep_resolve = resolver._Sweep.resolve

    def counting(self, anaphor, *args):
        resolved.append(anaphor.id)
        return sweep_resolve(self, anaphor, *args)

    monkeypatch.setattr(resolver._Sweep, "resolve", counting)
    assert main(["explain", "--corpus", long_doc["corpus"], "--lexicons",
                 long_doc["lexicons"], "--anaphor", f"long:{targets[2]}"]) == 0
    assert "Total Score" in capsys.readouterr().out
    assert sorted(set(resolved)) == targets[:4]


# A document appended to the demo corpus that breaks it, and the message
# that names it.
_BROKEN_LAST = [
    pytest.param("#DOC broken\n#SENT 0\n1\tie\tie\tnoun\tcommon\t-\t9\t-\t-\t-\t-\n",
                 "document 'broken': phrase 1: dangling head 9 "
                 "(heads must stay within sentence 0)",
                 id="dangling-head"),
    pytest.param(DEMO_CORPUS.read_text(encoding="utf-8").split("#DOC analysis")[0],
                 "document id 'rate' is repeated", id="repeated-id"),
]


@pytest.mark.parametrize("last, message", _BROKEN_LAST)
def test_a_broken_last_document_fails_every_command(last, message, tmp_path, capsys):
    corpus = tmp_path / "corpus.adc"
    corpus.write_text(DEMO_CORPUS.read_text(encoding="utf-8") + last, encoding="utf-8")
    predictions = _demo_predictions(tmp_path)
    out = tmp_path / "out.tsv"
    capsys.readouterr()
    for argv in (["resolve", "--corpus", str(corpus), "--lexicons", LEX, "--out", str(out)],
                 ["eval", "--corpus", str(corpus), "--predictions", str(predictions)],
                 ["explain", "--corpus", str(corpus), "--lexicons", LEX,
                  "--anaphor", "rate:8"]):
        assert main(argv) == 1, argv[0]
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {corpus}: {message}\n", argv[0]
    assert not out.exists()


_MALFORMED = [
    "#SENT 0\n",
    "#DOC a\n#SENT 0\n1\tneko\n",
    "#DOC a\n#SENT 1\n",
    "#DOC a\n#SENT 0\n1\tie\tie\tnoun\tcommon\t-\t9\t-\t-\t-\t-\n",
    "#DOC a\n#SENT 0\n1\tie\tie\tnoun\tanimal\t-\t-\t-\t-\t-\t-\n",
    "#DOC a\n#DOC\n",
    "#DOC a\n#SENT 0\n2\tie\tie\tnoun\tcommon\t-\t-\t-\t-\t-\trel=part:1\n",
    "#DOCUMENT a\n",
]


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


def test_the_stream_yields_what_parse_corpus_returns():
    rng = random.Random(5)
    demo = DEMO_CORPUS.read_text(encoding="utf-8")
    texts = [serialize_corpus([random_case(seed)[0] for seed in range(k, k + 5)])
             for k in range(0, 200, 5)]
    texts += [demo + bad for bad in _MALFORMED]
    texts += [bad + demo for bad in _MALFORMED]
    for _ in range(100):
        lines = demo.splitlines(keepends=True)
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(_MALFORMED))
        texts.append("".join(lines))
    outcomes = set()
    for text in texts:
        expected = _outcome(parse_corpus, text)
        assert _outcome(lambda t: list(_parse_stream(t)), text) == expected
        outcomes.add(type(expected) if isinstance(expected, list) else expected[0])
    assert len(outcomes) == 3, outcomes


def test_the_stream_yields_a_document_before_reading_the_next():
    demo = DEMO_CORPUS.read_text(encoding="utf-8")
    stream = _parse_stream(demo + _MALFORMED[1])
    assert [next(stream).doc_id for _ in range(6)] == [
        "rate", "analysis", "cars", "house", "roof", "rain"]
    with pytest.raises(ValueError, match="line 86: expected 11 tab-separated fields"):
        next(stream)


def test_errors_come_in_the_order_the_inputs_are_read(tmp_path, capsys):
    """Config, then lexicons, then corpus; eval: predictions, then the corpus in order."""
    corpus = tmp_path / "corpus.adc"
    corpus.write_text(DEMO_CORPUS.read_text(encoding="utf-8") + _MALFORMED[1],
                      encoding="utf-8")
    lex = tmp_path / "lexicons"
    shutil.copytree(LEXICON_DIR, lex)
    with (lex / "thesaurus.tsv").open("a", encoding="utf-8") as f:
        f.write("ie\t12a\n")
    predictions = tmp_path / "preds.tsv"

    def error(*argv):
        assert main(list(argv)) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    for command in (["resolve"], ["explain", "--anaphor", "rate:8"]):
        assert "thesaurus.tsv: line" in error(*command, "--corpus", str(corpus),
                                               "--lexicons", str(lex))
    predictions.write_text("rate\t8\n", encoding="utf-8")
    assert error("eval", "--corpus", str(corpus), "--predictions", str(predictions)) == (
        f"error: {predictions}: predictions line 1: expected 5 fields\n")
    # A unit of an early document fails before a broken later document is read,
    # and units are checked in corpus order, not in the order they are listed.
    predictions.write_text("rain\t99\t-\t7\t25\nrate\t98\t-\t7\t25\n", encoding="utf-8")
    assert error("eval", "--corpus", str(corpus), "--predictions", str(predictions)) == (
        f"error: {predictions}: document 'rate' has no phrase 98\n")
    # A document the corpus lacks is known only once the whole corpus is read.
    predictions.write_text("x\t8\t-\t7\t25\n", encoding="utf-8")
    assert error("eval", "--corpus", str(corpus), "--predictions", str(predictions)) == (
        f"error: {corpus}: line 86: expected 11 tab-separated fields, got 2\n")


def _cut(text, sizes):
    """``text`` in consecutive slices whose lengths cycle through ``sizes``."""
    start, k = 0, 0
    while start < len(text):
        yield text[start:start + sizes[k % len(sizes)]]
        start += sizes[k % len(sizes)]
        k += 1


def _texts_with_every_line_end():
    demo = DEMO_CORPUS.read_text(encoding="utf-8")
    record = "2\tkyoutyou\tkyoutyou\tnoun"
    texts = [demo, demo.rstrip("\n"), demo.replace("kyoutyou", "協調")]
    texts += [demo.replace("\n", end) for end in ("\r\n", "\r", "\u2028", "\x0c", "\x85")]
    # A line end inside a record splits it; each reports its line number.
    texts += [demo.replace(record, record.replace("kyou", f"kyou{end}", 1))
              for end in ("\r", "\r\n", "\u2028", "\x0c", "\n\r")]
    texts += [(demo + bad).replace("\n", "\r\n") for bad in (_MALFORMED[1], _MALFORMED[3])]
    texts += [serialize_corpus([random_case(seed)[0] for seed in range(k, k + 3)])
              for k in range(0, 30, 3)]
    texts += [serialize_corpus([random_marked_case(seed)[0]]) for seed in range(40)]
    return texts


def test_text_cut_anywhere_reads_as_the_whole_text():
    """Slices of 1 to 7 characters cut lines anywhere, "\\r\\n" pairs too."""
    rng = random.Random(11)
    outcomes = set()
    for text in _texts_with_every_line_end():
        expected = _outcome(parse_corpus, text)
        outcomes.add(type(expected) if isinstance(expected, list) else expected[0])
        cuts = [[size] for size in range(1, 8)]
        cuts += [[rng.randint(1, 7) for _ in range(13)] for _ in range(3)]
        for sizes in cuts:
            assert list(split_lines(_cut(text, sizes))) == text.splitlines(), (text, sizes)
            assert _outcome(lambda t: list(_parse_stream(_cut(t, sizes))), text) == expected, (
                text, sizes)
    assert len(outcomes) == 3, outcomes


def _write_bytes(tmp_path, data):
    corpus = tmp_path / "corpus.adc"
    corpus.write_bytes(data)
    return str(corpus)


def _demo_copies(copies):
    """A valid corpus of ``copies`` renamed copies of the demo documents."""
    demo = DEMO_CORPUS.read_text(encoding="utf-8")
    return "".join(demo.replace("#DOC ", f"#DOC c{k}-") for k in range(copies))


def test_a_byte_that_is_not_utf8_far_into_the_corpus_is_named_with_its_offset(tmp_path,
                                                                                  capsys):
    data = _demo_copies(80).encode("utf-8")
    offset = data.index(b"\n#DOC", 200_000) + 1
    assert offset > 3 * BLOCK
    corpus = _write_bytes(tmp_path, data[:offset] + b"\xff" + data[offset:])
    out = tmp_path / "out.tsv"
    capsys.readouterr()
    assert main(["resolve", "--corpus", corpus, "--lexicons", LEX, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == (f"error: {corpus}: not valid UTF-8: byte 0xff "
                            f"at offset {offset}: invalid start byte\n")
    assert not out.exists()


@pytest.mark.parametrize("across", ["猫", "\r\n"])
def test_a_character_or_line_end_across_a_block_boundary_reads_as_the_whole(across, tmp_path):
    head = "% " + "x" * (BLOCK - 3)                # ``across`` starts at byte BLOCK - 1
    text = head + across + "\n" + _demo_copies(2)
    assert len(head.encode("utf-8")) == BLOCK - 1
    corpus = _write_bytes(tmp_path, text.encode("utf-8"))
    assert list(_documents(corpus)) == parse_corpus(text)
    # A broken record after the boundary is reported at the line parse_corpus names.
    broken = text + _MALFORMED[1]
    corpus = _write_bytes(tmp_path, broken.encode("utf-8"))
    with pytest.raises(ValueError) as whole:
        parse_corpus(broken)
    with pytest.raises(ValueError) as read:
        list(_documents(corpus))
    assert str(read.value) == f"{corpus}: {whole.value}"


@pytest.mark.filterwarnings("error::ResourceWarning")
def test_a_corpus_error_partway_through_the_file_leaves_it_closed(tmp_path, monkeypatch,
                                                                  capsys):
    opened = []

    def tracked_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(_files, "open", tracked_open, raising=False)
    copies = _demo_copies(45)
    assert len(copies.encode("utf-8")) > 2 * BLOCK
    corpus = _write_bytes(tmp_path, (copies + _MALFORMED[1] + copies).encode("utf-8"))
    line = copies.count("\n") + 3
    predictions = _demo_predictions(tmp_path)
    capsys.readouterr()
    for argv in (["resolve", "--corpus", corpus, "--lexicons", LEX],
                 ["eval", "--corpus", corpus, "--predictions", str(predictions)],
                 ["explain", "--corpus", corpus, "--lexicons", LEX, "--anaphor", "c0-rate:8"]):
        del opened[:]
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err == (
            f"error: {corpus}: line {line}: expected 11 tab-separated fields, got 2\n")
        assert opened and all(file.closed for file in opened), argv[0]
