"""Command line front end: resolve, explain, eval, build-dict.

Every command reads its corpus as a stream, one document at a time, so a
run's memory grows with its largest document, not with the corpus.  The
resolver's run caches are the exception: they keep one target-mode entry
per distinct word class and lemma for the whole run, so a corpus whose
documents share no lemmas grows them with every document.  What is
needed for every document is read first: ``resolve`` and ``explain`` read
the config, then the lexicons, then the corpus; ``eval`` reads the
predictions, then the corpus, and scores each document's units as that
document is parsed.  When an input has several faults, the first one met in
that order is reported.

Exit codes: 0 on success, 1 on data errors (corpus, lexicon, predictions)
and on any file that cannot be read or written, 2 on configuration or usage
errors.
"""
from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from itertools import takewhile
from pathlib import Path
from typing import Iterator

from ._files import read_utf8
from .config import ConfigError, ResolverConfig, load_config
from .corpus import CorpusStructureError, Discourse, _parse_stream
from .dictbuild import build_dictionary
from .evaluate import (
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


@contextmanager
def _named(path: str):
    """Put a data file's path in front of the data errors raised inside."""
    try:
        yield
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _documents(path: str) -> Iterator[Discourse]:
    """The documents of a corpus file, each yielded as soon as it is parsed.

    A repeated id is a data error, since the later document would silently
    replace the earlier one.
    """
    seen = set()
    documents = _parse_stream(read_utf8(path, ValueError))
    with _named(path):
        for document in documents:
            if document.doc_id in seen:
                raise CorpusStructureError(f"document id {document.doc_id!r} is repeated")
            seen.add(document.doc_id)
            yield document


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
    predictions = []
    for discourse in _documents(args.corpus):
        results = _resolve_stream(discourse, lexicons, config)
        predictions.extend(predictions_from_results(discourse.doc_id, results))
    _write_out(serialize_predictions(predictions), args.out)
    return 0


def _cmd_explain(args) -> int:
    # Document ids may hold colons; phrase ids never do.
    doc_id, colon, raw_id = args.anaphor.rpartition(":")
    if not colon:
        raise ConfigError("--anaphor takes DOC:ID")
    try:
        phrase_id = int(raw_id)
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
    tally = _Tally()
    for discourse in _documents(args.corpus):
        with _named(args.predictions):
            for prediction in units.pop(discourse.doc_id, ()):
                tally.add(prediction, discourse)
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
