"""Seeded round trips through every text format, on field text full of markers.

``random_marked_case`` draws document ids, surfaces, lemmas, sem codes and
gold labels from the characters the formats read as markers or separators.
What ``validate_discourse`` passes must read back unchanged; predictions
read back unless ``serialize_predictions`` refuses them; a score table's
Total Score row reads back as the result's ``all_scores``.
"""
import random

from bridgeref.corpus import parse_corpus, serialize_corpus, validate_discourse
from bridgeref.evaluate import (
    Prediction,
    parse_predictions,
    predictions_from_results,
    serialize_predictions,
)
from bridgeref.explain import parse_total_row, render_score_table
from bridgeref.lexicons import SURFACE_CASES
from bridgeref.resolver import resolve_discourse
from randgen import MARKED_ALPHABET, marked_text, random_marked_case

SEEDS = range(600)


def test_a_valid_document_reads_back_unchanged():
    valid, marked = 0, set()
    for seed in SEEDS:
        d, _ = random_marked_case(seed)
        if validate_discourse(d) == []:
            text = serialize_corpus([d])
            assert parse_corpus(text) == [d], (seed, text)
            valid += 1
            marked.update(c for c in text if c in MARKED_ALPHABET)
    assert valid >= 100 and marked == set(MARKED_ALPHABET), (valid, marked)


def test_predictions_read_back_unless_serialising_refuses_them():
    refused = written = 0
    for seed in SEEDS:
        d, lex = random_marked_case(seed)
        rng = random.Random(f"slot:{seed}")
        predictions = predictions_from_results(d.doc_id, resolve_discourse(d, lex))
        # One more unit, whose slot may be no surface case.
        predictions.append(Prediction(d.doc_id, 10_000, rng.choice(
            [None, rng.choice(sorted(SURFACE_CASES)), marked_text(rng)]), None, -seed))
        try:
            text = serialize_predictions(predictions)
        except ValueError:
            refused += 1
            continue
        assert parse_predictions(text) == predictions, (seed, text)
        written += 1
    assert refused >= 100 and written >= 100, (refused, written)


def test_a_score_tables_total_row_reads_back_as_all_scores():
    tables = shared = unnamed = 0
    for seed in SEEDS:
        d, lex = random_marked_case(seed)
        for result in resolve_discourse(d, lex):
            table = render_score_table(result, d)
            assert parse_total_row(table, d) == result.all_scores, (seed, table)
            header = table.splitlines()[1]
            tables += 1
            shared += "#" in header         # a name two candidates share
            unnamed += "phrase" in header   # a lemma that cannot name its phrase
    assert tables >= 800 and shared >= 100 and unnamed >= 50, (tables, shared, unnamed)
