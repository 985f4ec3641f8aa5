"""Command line front end: resolve, explain, eval, build-dict.

Every command reads its corpus file in blocks of 64 KiB and parses it as a
stream, one document at a time, so a run's memory grows with its largest
document, not with the corpus; the file is closed however the run ends.  The
resolver's run caches are the exception: they keep one target-mode entry
per distinct word class and lemma for the whole run, so a corpus whose
documents share no lemmas grows them with every document.  What is
needed for every document is read first: ``resolve`` and ``explain`` read
the config, then the lexicons, then the corpus; ``eval`` reads the
predictions, then the corpus, and scores each document's units as that
document is parsed.  When an input has several faults, the first one met in
that order is reported.

A document is resolved from its own text alone, so ``resolve`` and ``eval``
split a corpus file into byte ranges of whole documents, one per CPU the
process may run on but no more than two, and none shorter than 64 KiB, and
run each range but the first in a process forked once the config and
lexicons, or the predictions, are read.  Each child pipes back only what
the command keeps of its range (``resolve`` its predictions, ``eval`` its
document ids and score counts) and prints nothing; the parent merges them
in file order.  An error in the first range, the start of the file, is
raised as it is.  If another range fails, a child dies or cannot be forked,
or a document id repeats across ranges, the parent reaps every child and
reads the whole corpus again in order.  Either way errors, their line numbers and exit codes are
those of a run in one process, and nothing is written.  A corpus under
128 KiB, a single document, one CPU, a platform without ``os.fork`` or a
corpus that is not a regular file, such as a pipe, is read in one range,
with no fork.  ``explain`` always reads the corpus in one process.

Exit codes: 0 on success, 1 on data errors (corpus, lexicon, predictions)
and on any file that cannot be read or written, 2 on configuration or usage
errors.
"""
from __future__ import annotations

import argparse
import os
import stat
import sys
from contextlib import closing, contextmanager, suppress
from itertools import takewhile
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, TypeVar

from ._files import BLOCK, integer, read_utf8, utf8_blocks
from .config import ConfigError, ResolverConfig, load_config
from .corpus import CorpusStructureError, Discourse, _parse_stream
from .dictbuild import build_dictionary
from .evaluate import (
    ClassCounts,
    Prediction,
    _Tally,
    _unknown_document,
    parse_predictions,
    predictions_from_results,
    serialize_predictions,
)
from .explain import render_score_table
from .lexicons import load_lexicons, load_noun_attributes, load_thesaurus, load_xnoy
from .resolver import _resolve_stream

DATA_ERROR = 1
CONFIG_ERROR = 2

# A corpus is split into at most MAX_PARTS ranges of at least MIN_RANGE
# bytes.  Both come from measurements on two CPUs (see "Cost" in the
# README): no more than two ranges were ever timed, and two ranges first
# beat one on a corpus of about 96 KiB.
MAX_PARTS = 2
MIN_RANGE = 64 * 1024


@contextmanager
def _named(path: str):
    """Put a data file's path in front of the data errors raised inside."""
    try:
        yield
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _documents(path: str, start: int = 0, end: int | None = None) -> Iterator[Discourse]:
    """The documents of a corpus file, or of its bytes ``start`` to ``end``, as parsed.

    The file is read in blocks and closed however the reading ends.  A
    repeated id is a data error, since the later document would silently
    replace the earlier one.
    """
    seen = set()
    with _named(path), closing(utf8_blocks(path, start, end)) as blocks:
        for document in _parse_stream(blocks):
            if document.doc_id in seen:
                raise CorpusStructureError(f"document id {document.doc_id!r} is repeated")
            seen.add(document.doc_id)
            yield document


T = TypeVar("T")


def _part(path: str, work: Callable[[Iterator[Discourse]], T],
          start: int = 0, end: int | None = None) -> tuple[list[str], T]:
    """``work`` run on the documents of a byte range, with the ids of those documents."""
    ids = []

    def documents():
        for document in _documents(path, start, end):
            ids.append(document.doc_id)
            yield document

    result = work(documents())
    return ids, result


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _document_start(file: BinaryIO, at: int) -> int | None:
    """The first offset from ``at`` on where a "#DOC " line starts just after a "\\n"."""
    file.seek(at - 1)
    base, data = at - 1, b""                    # data is the file from offset base on
    while block := file.read(BLOCK):
        data += block
        found = data.find(b"\n#DOC ")
        if found >= 0:
            return base + found + 1
        base, data = base + len(data) - 5, data[-5:]
    return None


def _ranges(path: str, parts: int) -> list[tuple[int, int]]:
    """Up to ``parts`` byte ranges of whole documents that cover a corpus file.

    Each range after the first starts with a "#DOC " line, and none is
    shorter than ``MIN_RANGE``.  The file is read in blocks from each
    intended cut to the next document, not mapped: a mapped file may count
    whole towards the process's memory.  What is not a regular file, such
    as a pipe, has no ranges: it can be read only once, and is not opened.
    """
    info = os.stat(path)
    if not stat.S_ISREG(info.st_mode):
        return []
    size = info.st_size
    cuts = [0]
    if size >= 2 * MIN_RANGE:
        with open(path, "rb") as file:
            for k in range(1, parts):
                at = max(size * k // parts, cuts[-1] + MIN_RANGE)
                cut = None if size - at < MIN_RANGE else _document_start(file, at)
                if cut is None or size - cut < MIN_RANGE:
                    break
                cuts.append(cut)
    cuts.append(size)
    return list(zip(cuts, cuts[1:]))


def _forked(path: str, work: Callable[[Iterator[Discourse]], T],
            ranges: list[tuple[int, int]]) -> list[tuple[list[str], T]] | None:
    """Every range's part, the first run here and each other in a forked child.

    None when a forked range fails, a child dies or cannot be forked, or a
    document id repeats across ranges.  Every child is reaped before this
    returns or raises.  The command line runs no thread, so forking it is
    safe.
    """
    # Imported here: a corpus read in one range, such as a single long
    # document, needs neither, and they add about 4 ms to start-up.
    import pickle
    import signal

    parent = os.getpid()
    children: list[tuple[int, BinaryIO]] = []   # (pid, its pipe) until reaped
    try:
        for start, end in ranges[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:                     # no process to spare
                os.close(read)
                os.close(write)
                return None
            if pid == 0:                        # the child prints nothing
                with open(write, "wb") as pipe:
                    pickle.dump(_part(path, work, start, end), pipe, pickle.HIGHEST_PROTOCOL)
                os._exit(0)
            children.append((pid, open(read, "rb")))
            os.close(write)
        # The first range is the start of the file, so an error in it is the
        # one an ordered read of the whole file meets first.
        parts = [_part(path, work, *ranges[0])]
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            del children[0]
            if status != 0:
                return None
            parts.append(pickle.loads(data))
    finally:
        if os.getpid() != parent:               # whatever a child raised, it ends here
            os._exit(1)
        for pid, pipe in children:
            pipe.close()
            # A child reaped just before an interrupt is gone already.
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    ids = [doc_id for part_ids, _ in parts for doc_id in part_ids]
    return parts if len(set(ids)) == len(ids) else None


def _in_parts(path: str, work: Callable[[Iterator[Discourse]], T],
              parts: int | None = None) -> list[tuple[list[str], T]]:
    """``work`` run on the documents of each range of a corpus file, in file order.

    ``parts`` is how many ranges to aim for: by default one per usable CPU,
    at most ``MAX_PARTS``.  Only a regular file of at least two
    ``MIN_RANGE`` is split; a pipe is read once, as it comes.  When a
    forked range fails, the whole file is read again here, in order, so
    what is raised is what a run in one range raises.
    """
    if parts is None:
        parts = min(_cpus(), MAX_PARTS) if hasattr(os, "fork") else 1
    try:
        ranges = _ranges(path, parts) if parts > 1 else []
    except OSError:                             # the reading below reports it
        ranges = []
    if len(ranges) > 1 and (done := _forked(path, work, ranges)) is not None:
        return done
    return [_part(path, work)]


def _resolver_config(args) -> ResolverConfig:
    """The config, read before any data file so its errors stop the run first."""
    config = load_config(args.config) if args.config else ResolverConfig.default()
    return config.without_semantics() if args.no_semantics else config


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_resolve(args) -> int:
    """Write every target's prediction, once the whole corpus is resolved.

    Each document is resolved as soon as it is parsed, each result is
    dropped once its prediction is built, and a failure leaves no partial
    output.
    """
    config = _resolver_config(args)
    lexicons = load_lexicons(args.lexicons)

    def resolve(documents: Iterator[Discourse]) -> list[Prediction]:
        predictions = []
        for discourse in documents:
            results = _resolve_stream(discourse, lexicons, config)
            predictions.extend(predictions_from_results(discourse.doc_id, results))
        return predictions

    parts = _in_parts(args.corpus, resolve)
    _write_out(serialize_predictions(p for _, part in parts for p in part), args.out)
    return 0


def _cmd_explain(args) -> int:
    # Document ids may hold colons; phrase ids never do.
    doc_id, colon, raw_id = args.anaphor.rpartition(":")
    if not colon:
        raise ConfigError("--anaphor takes DOC:ID")
    try:
        phrase_id = integer(raw_id)
    except ValueError:
        raise ConfigError(f"--anaphor phrase id must be an integer, got {raw_id!r}") from None
    config = _resolver_config(args)
    lexicons = load_lexicons(args.lexicons)
    # The whole corpus is read, so a broken later document is still an error.
    discourse = None
    for document in _documents(args.corpus):
        if document.doc_id == doc_id:
            discourse = document
    if discourse is None:
        raise CorpusStructureError(f"no document {doc_id!r} in {args.corpus}")
    if not discourse.has_phrase(phrase_id):
        raise CorpusStructureError(f"no phrase {phrase_id} in document {doc_id!r}")
    # Results come in document order, so the stream is read no further than
    # the first result past the phrase.
    results = _resolve_stream(discourse, lexicons, config)
    tables = [render_score_table(result, discourse)
              for result in takewhile(lambda r: r.anaphor_id <= phrase_id, results)
              if result.anaphor_id == phrase_id]
    if not tables:
        raise CorpusStructureError(
            f"phrase {doc_id}:{phrase_id} is not an anaphora target")
    sys.stdout.write("\n".join(tables))
    return 0


def _cmd_eval(args) -> int:
    """Score each document's predictions as soon as the document is parsed."""
    text = read_utf8(args.predictions, ValueError)
    with _named(args.predictions):
        predictions = parse_predictions(text)
    units: dict[str, list[Prediction]] = {}
    for prediction in predictions:
        units.setdefault(prediction.doc_id, []).append(prediction)

    def score(documents: Iterator[Discourse]) -> dict[str, ClassCounts]:
        tally = _Tally()
        for discourse in documents:
            with _named(args.predictions):
                for prediction in units.get(discourse.doc_id, ()):
                    tally.add(prediction, discourse)
        return tally.counts

    tally = _Tally()
    for ids, counts in _in_parts(args.corpus, score):
        for doc_id in ids:
            units.pop(doc_id, None)
        tally.merge(counts)
    if units:
        with _named(args.predictions):
            raise _unknown_document(next(iter(units)))
    sys.stdout.write(tally.report().render())
    return 0


def _cmd_build_dict(args) -> int:
    store = load_xnoy(args.xnoy)
    thesaurus = load_thesaurus(args.thesaurus)
    attrs = load_noun_attributes(args.attrs)
    merges = []
    for merge in args.merge or ():
        if ":" not in merge:
            raise ConfigError(f"--merge takes TARGET:SOURCE, got {merge!r}")
        target_y, _, source_y = merge.partition(":")
        merges.append((target_y, source_y))
    _write_out(build_dictionary(store, thesaurus, attrs, tuple(merges)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgeref",
        description="Resolve indirect (bridging) anaphora in annotated Japanese text.")
    sub = parser.add_subparsers(dest="command", required=True)

    # The inputs of every command that resolves.
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--corpus", required=True)
    inputs.add_argument("--lexicons", required=True,
                        help="directory with thesaurus.tsv, caseframes.txt, "
                             "xnoy.tsv, nounattrs.tsv")
    inputs.add_argument("--config")
    inputs.add_argument("--no-semantics", action="store_true",
                        help="fix all similarity scores to 0")

    resolve_p = sub.add_parser("resolve", parents=[inputs],
                               help="resolve every target in a corpus")
    resolve_p.add_argument("--out")
    resolve_p.set_defaults(func=_cmd_resolve)

    explain_p = sub.add_parser("explain", parents=[inputs],
                               help="print the score table of one anaphor")
    explain_p.add_argument("--anaphor", required=True, metavar="DOC:ID")
    explain_p.set_defaults(func=_cmd_explain)

    eval_p = sub.add_parser("eval", help="score predictions against gold annotation")
    eval_p.add_argument("--corpus", required=True)
    eval_p.add_argument("--predictions", required=True)
    eval_p.set_defaults(func=_cmd_eval)

    dict_p = sub.add_parser("build-dict",
                            help="arrange X-no-Y examples into draft noun case frames")
    dict_p.add_argument("--xnoy", required=True)
    dict_p.add_argument("--thesaurus", required=True)
    dict_p.add_argument("--attrs", required=True)
    dict_p.add_argument("--merge", action="append", metavar="Y:Y2",
                        help="copy arranged examples of Y2 into Y (repeatable)")
    dict_p.add_argument("--out")
    dict_p.set_defaults(func=_cmd_build_dict)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    A ``ConfigError`` exits 2; any other ``ValueError`` (the corpus, lexicon
    and predictions format errors among them) or ``OSError`` exits 1.  Both
    print the message on one line of stderr, with no traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
