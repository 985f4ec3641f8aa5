"""The CLI reads resolution results as a stream, one target at a time.

``resolve`` turns each result into its prediction as it comes, so a long
document's proposals are never all held at once; ``explain`` reads no
further than the first target past the phrase it was asked for.
"""
import importlib.util
import tracemalloc
from pathlib import Path

import pytest

from bridgeref import resolver
from bridgeref.cli import main
from bridgeref.config import ResolverConfig
from bridgeref.corpus import parse_corpus
from bridgeref.data import DEMO_CORPUS, LEXICON_DIR
from bridgeref.explain import render_score_table
from bridgeref.lexicons import load_lexicons
from bridgeref.resolver import resolve_discourse

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def long_doc(tmp_path_factory):
    """The benchmark's ``long_doc`` inputs (1,504 phrases), built with its generator."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.build("long_doc", 3, ROOT, tmp_path_factory.mktemp("long_doc"))


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
