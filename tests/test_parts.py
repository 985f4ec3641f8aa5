"""``resolve`` and ``eval`` run a multi-document corpus in forked byte ranges.

Whatever the number of ranges, the predictions file and the ``eval`` output
are byte-identical to those of one range read in one process, and so are
the exit code and error message of a broken corpus or predictions file,
wherever the fault lies: a failed range makes the parent read the whole
corpus again in order.  No run leaves a child process behind.
"""
import dataclasses
import functools
import os
import random
import signal
import threading
from contextlib import contextmanager, suppress
from pathlib import Path

import pytest

from bridgeref import cli
from bridgeref._files import BLOCK
from bridgeref.cli import main
from bridgeref.corpus import Discourse, GoldAntecedent, Sentence, serialize_corpus
from bridgeref.data import LEXICON_DIR
from bridgeref.lexicons import LexiconSet, XnoYStore
from randgen import random_case, random_long_case
from test_stream import _demo_copies

LEX = str(LEXICON_DIR)
_in_parts = cli._in_parts


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _with_gold(rng, d: Discourse, doc_id: str) -> Discourse:
    """``d`` renamed, with a gold item on every phrase, naming an earlier one if any."""
    earlier = []
    sentences = []
    for sent in d.sentences:
        phrases = []
        for p in sent.phrases:
            if earlier and rng.random() < 0.7:
                gold = GoldAntecedent(rng.choice(("ga", "wo", "ni", "rel")), rng.choice(earlier))
            else:
                gold = GoldAntecedent(None, None)
            phrases.append(dataclasses.replace(p, gold_antecedents=(gold,)))
            earlier.append(p.id)
        sentences.append(Sentence(index=sent.index, phrases=tuple(phrases)))
    return Discourse(doc_id=doc_id, sentences=tuple(sentences))


def _random_corpus(seed, documents):
    """ADC text of seeded ``random_case`` documents, every tenth a ``random_long_case``,
    and one lexicon set that holds every "X no Y" pair the cases drew."""
    rng = random.Random(seed)
    cases = [(random_long_case if k % 10 == 0 else random_case)(seed * 10_000 + k)
             for k in range(documents)]
    first = cases[0][1]
    lexicons = LexiconSet(
        thesaurus=first.thesaurus, case_frames=first.case_frames, attrs=first.attrs,
        xnoy=XnoYStore(pairs=tuple(pair for _, lex in cases for pair in lex.xnoy.pairs)))
    text = serialize_corpus([_with_gold(rng, d, f"r{seed}-{k}")
                             for k, (d, _) in enumerate(cases)])
    return text, lexicons


def _run(monkeypatch, parts, argv):
    """``main(argv)`` with the corpus split into ``parts`` ranges at most."""
    monkeypatch.setattr(cli, "_in_parts", functools.partial(_in_parts, parts=parts))
    code = main(argv)
    _assert_no_child_left()
    return code


def _resolve_and_eval(monkeypatch, capsys, parts, corpus, out):
    capsys.readouterr()
    assert _run(monkeypatch, parts, ["resolve", "--corpus", corpus, "--lexicons", LEX,
                                     "--out", str(out)]) == 0
    assert _run(monkeypatch, parts, ["eval", "--corpus", corpus,
                                     "--predictions", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return out.read_bytes(), captured.out


def test_demo_copies_give_the_same_predictions_and_scores_in_one_to_four_ranges(
        monkeypatch, capsys, tmp_path):
    corpus = tmp_path / "copies.adc"
    corpus.write_text(_demo_copies(90), encoding="utf-8")
    assert corpus.stat().st_size > 4 * BLOCK
    outputs = []
    for parts in (1, 2, 3, 4):
        assert len(cli._ranges(str(corpus), parts)) == parts
        outputs.append(_resolve_and_eval(monkeypatch, capsys, parts, str(corpus),
                                         tmp_path / f"preds{parts}.tsv"))
    assert outputs[0][0].count(b"\n") > 600 and "100%" in outputs[0][1]
    assert outputs == [outputs[0]] * 4


@pytest.mark.parametrize("seed", [1, 2])
def test_random_corpora_give_the_same_predictions_and_scores_in_one_to_four_ranges(
        seed, monkeypatch, capsys, tmp_path):
    text, lexicons = _random_corpus(seed, 330)
    monkeypatch.setattr(cli, "load_lexicons", lambda path: lexicons)
    corpus = tmp_path / "random.adc"
    corpus.write_text(text, encoding="utf-8")
    outputs = []
    for parts in (1, 2, 3, 4):
        assert len(cli._ranges(str(corpus), parts)) == parts
        outputs.append(_resolve_and_eval(monkeypatch, capsys, parts, str(corpus),
                                         tmp_path / f"preds{parts}.tsv"))
    assert outputs[0][0].count(b"\n") > 100
    assert outputs == [outputs[0]] * 4


def _first_record(doc, column, value):
    """The text of document ``doc`` with one field of its first record set to ``value``."""
    lines = doc.split("\n")
    at = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    fields = lines[at].split("\t")
    fields[column] = value
    lines[at] = "\t".join(fields)
    return "\n".join(lines)


# Each fault, given the text of a document, returns the text with the fault.
_CORPUS_FAULTS = {
    "format": lambda doc: _first_record(doc, 3, ""),            # no part of speech
    "structure": lambda doc: _first_record(doc, 6, "99"),       # a dangling head
    "not utf-8": lambda doc: _first_record(doc, 1, "x\udcff"),  # byte 0xff, see _write
}


def _documents(copies):
    """The documents of ``copies`` renamed copies of the demo set, one text each."""
    return ["#DOC " + doc for doc in _demo_copies(copies).split("#DOC ")[1:]]


def _write(tmp_path, documents):
    """Write the corpus; a lone surrogate "\\udcXX" in it is written as byte 0xXX."""
    corpus = tmp_path / "corpus.adc"
    corpus.write_bytes("".join(documents).encode("utf-8", "surrogateescape"))
    return str(corpus)


def _placed(documents, where, fault):
    """``documents`` with ``fault`` put in the first range, the last one or both."""
    placed = list(documents)
    if where in ("first", "both"):
        placed[1] = fault(placed[1])
    if where in ("last", "both"):
        placed[-2] = fault(placed[-2])
    return placed


def _outcome(monkeypatch, capsys, parts, argv, out=None):
    capsys.readouterr()
    code = _run(monkeypatch, parts, argv)
    captured = capsys.readouterr()
    assert out is None or not Path(out).exists()
    return code, captured.out, captured.err


@pytest.mark.parametrize("where", ["first", "last", "both"])
@pytest.mark.parametrize("fault", sorted(_CORPUS_FAULTS))
def test_a_corpus_fault_in_any_range_fails_as_in_one_range(fault, where, monkeypatch, capsys,
                                                           tmp_path):
    documents = _documents(90)
    predictions = tmp_path / "preds.tsv"
    corpus = _write(tmp_path, documents)
    assert _run(monkeypatch, 1, ["resolve", "--corpus", corpus, "--lexicons", LEX,
                                 "--out", str(predictions)]) == 0
    corpus = _write(tmp_path, _placed(documents, where, _CORPUS_FAULTS[fault]))
    assert len(cli._ranges(corpus, 4)) == 4
    out = tmp_path / "out.tsv"
    resolve = ["resolve", "--corpus", corpus, "--lexicons", LEX, "--out", str(out)]
    evaluate = ["eval", "--corpus", corpus, "--predictions", str(predictions)]
    for argv, written in ((resolve, out), (evaluate, None)):
        alone = _outcome(monkeypatch, capsys, 1, argv, written)
        assert alone[0] == 1 and alone[1] == "" and alone[2].startswith(f"error: {corpus}: ")
        assert _outcome(monkeypatch, capsys, 4, argv, written) == alone


@pytest.mark.parametrize("where", ["first", "last", "both"])
def test_a_repeated_document_id_in_any_range_fails_as_in_one_range(where, monkeypatch, capsys,
                                                                   tmp_path):
    documents = _documents(90)
    first_id, last_id = documents[0].split()[1], documents[-1].split()[1]
    if where == "first":
        documents[1] = documents[1].replace(documents[1].split()[1], first_id, 1)
    elif where == "last":
        documents[-2] = documents[-2].replace(documents[-2].split()[1], last_id, 1)
    else:
        documents[-1] = documents[-1].replace(last_id, first_id, 1)
    corpus = _write(tmp_path, documents)
    out = tmp_path / "out.tsv"
    argv = ["resolve", "--corpus", corpus, "--lexicons", LEX, "--out", str(out)]
    alone = _outcome(monkeypatch, capsys, 1, argv, out)
    assert alone[0] == 1 and "is repeated" in alone[2]
    for parts in (2, 4):
        assert _outcome(monkeypatch, capsys, parts, argv, out) == alone


@pytest.mark.parametrize("line, message", [
    ("{doc}\t999\t-\tNONE\t0\n", "has no phrase 999"),
    ("nosuch\t8\t-\tNONE\t0\n", "predictions name unknown document 'nosuch'"),
])
def test_an_eval_unit_that_fits_no_document_fails_as_in_one_range(line, message, monkeypatch,
                                                                  capsys, tmp_path):
    documents = _documents(90)
    corpus = _write(tmp_path, documents)
    predictions = tmp_path / "preds.tsv"
    assert _run(monkeypatch, 1, ["resolve", "--corpus", corpus, "--lexicons", LEX,
                                 "--out", str(predictions)]) == 0
    last_id = documents[-1].split()[1]
    with predictions.open("a", encoding="utf-8") as f:
        f.write(line.format(doc=last_id))
    argv = ["eval", "--corpus", corpus, "--predictions", str(predictions)]
    alone = _outcome(monkeypatch, capsys, 1, argv)
    assert alone[0] == 1 and alone[2].startswith(f"error: {predictions}: ") and message in alone[2]
    for parts in (2, 4):
        assert _outcome(monkeypatch, capsys, parts, argv) == alone


def _ids(documents):
    return [d.doc_id for d in documents]


def test_a_child_that_dies_makes_the_parent_read_the_corpus_again(tmp_path):
    corpus = _write(tmp_path, _documents(90))
    parent = os.getpid()

    def work(documents):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return _ids(documents)

    parts = _in_parts(corpus, work, parts=4)
    _assert_no_child_left()
    assert len(parts) == 1
    ids, result = parts[0]
    assert ids == result and len(ids) == 90 * 6


def test_a_fork_that_fails_makes_the_parent_read_the_corpus_again(monkeypatch, tmp_path):
    corpus = _write(tmp_path, _documents(90))
    fork, forks = os.fork, []

    def fork_once():
        if forks:
            raise BlockingIOError("no process to spare")
        forks.append(fork())
        return forks[-1]

    monkeypatch.setattr(os, "fork", fork_once)
    parts = _in_parts(corpus, _ids, parts=4)
    _assert_no_child_left()
    assert len(forks) == 1 and len(parts) == 1
    ids, result = parts[0]
    assert ids == result and len(ids) == 90 * 6


def test_children_are_reaped_when_the_parent_is_interrupted(tmp_path):
    corpus = _write(tmp_path, _documents(90))
    parent = os.getpid()

    def work(documents):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return _ids(documents)

    with pytest.raises(KeyboardInterrupt):
        _in_parts(corpus, work, parts=4)
    _assert_no_child_left()


def test_a_small_corpus_or_a_single_document_is_one_range(tmp_path):
    small = _write(tmp_path, _documents(10))
    assert cli._ranges(small, 4) == [(0, os.path.getsize(small))]
    single = tmp_path / "single.adc"
    single.write_text("#DOC one\n#SENT 0\n" + "% filler\n" * 30_000, encoding="utf-8")
    assert cli._ranges(str(single), 4) == [(0, single.stat().st_size)]


def test_ranges_start_at_document_lines_and_are_at_least_the_least_range(tmp_path):
    corpus = _write(tmp_path, _documents(90))
    data = Path(corpus).read_bytes()
    for parts in range(1, 9):
        ranges = cli._ranges(corpus, parts)
        assert ranges[0][0] == 0 and ranges[-1][1] == len(data)
        assert all(end == start for (_, end), (start, _) in zip(ranges, ranges[1:]))
        assert all(end - start >= cli.MIN_RANGE for start, end in ranges)
        assert all(data[start - 1:start + 5] == b"\n#DOC " for start, _ in ranges[1:])


def test_a_child_that_raises_ends_there_and_the_parent_reads_the_corpus_again(tmp_path):
    corpus = _write(tmp_path, _documents(90))
    parent = os.getpid()

    def work(documents):
        if os.getpid() != parent:
            raise KeyboardInterrupt             # not caught by the child's own code
        return _ids(documents)

    parts = _in_parts(corpus, work, parts=4)
    _assert_no_child_left()
    assert len(parts) == 1 and len(parts[0][0]) == 90 * 6


def test_an_interrupt_just_after_a_child_is_reaped_is_what_the_parent_raises(
        monkeypatch, tmp_path):
    corpus = _write(tmp_path, _documents(90))
    waitpid, reaped = os.waitpid, []

    def reap_then_interrupt(pid, options):
        status = waitpid(pid, options)
        if not reaped:
            reaped.append(pid)
            raise KeyboardInterrupt
        return status

    monkeypatch.setattr(os, "waitpid", reap_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        _in_parts(corpus, _ids, parts=4)
    monkeypatch.undo()
    assert reaped
    _assert_no_child_left()


@contextmanager
def _piped(data: bytes):
    """A path that reads ``data`` through a pipe, which cannot seek."""
    read, write = os.pipe()

    def feed():
        with suppress(BrokenPipeError), open(write, "wb") as pipe:
            pipe.write(data)                    # broken if the reader stops early

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        yield f"/dev/fd/{read}"
    finally:
        os.close(read)
        feeder.join()


def test_a_corpus_config_or_predictions_read_through_a_pipe_give_what_a_file_gives(
        monkeypatch, capsys, tmp_path):
    corpus = _write(tmp_path, _documents(90))
    data = Path(corpus).read_bytes()
    assert len(data) >= 4 * cli.MIN_RANGE
    config = tmp_path / "resolver.cfg"
    config.write_text("pseudo_points=2\n", encoding="utf-8")
    expected = tmp_path / "expected.tsv"
    resolve = ["resolve", "--lexicons", LEX, "--config"]
    assert _run(monkeypatch, 1, [*resolve, str(config), "--corpus", corpus,
                                 "--out", str(expected)]) == 0
    assert _run(monkeypatch, 1, ["eval", "--corpus", corpus,
                                 "--predictions", str(expected)]) == 0
    scores = capsys.readouterr().out
    out = tmp_path / "out.tsv"
    with _piped(config.read_bytes()) as piped_config, _piped(data) as piped_corpus:
        assert _run(monkeypatch, 2, [*resolve, piped_config, "--corpus", piped_corpus,
                                     "--out", str(out)]) == 0
    assert out.read_bytes() == expected.read_bytes()
    with _piped(expected.read_bytes()) as predictions, _piped(data) as piped_corpus:
        assert _run(monkeypatch, 2, ["eval", "--corpus", piped_corpus,
                                     "--predictions", predictions]) == 0
    assert capsys.readouterr() == (scores, "")
