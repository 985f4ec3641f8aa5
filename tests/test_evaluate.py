import random

import pytest

from bridgeref.evaluate import (
    ClassCounts,
    EvalReport,
    Prediction,
    evaluate,
    format_rate,
    parse_predictions,
    percent,
    predictions_from_results,
    serialize_predictions,
)
from bridgeref.resolver import resolve_discourse


def _report(correct, gold, system):
    return EvalReport(
        correct=correct, gold_positive=gold, system_positive=system,
        by_class={"verbal": ClassCounts(0, 0, 0),
                  "non_verbal": ClassCounts(correct, gold, system)})


@pytest.mark.parametrize("correct,gold,system,recall,precision", [
    (44, 70, 65, "63% (44/70)", "68% (44/65)"),
    (56, 66, 83, "85% (56/66)", "67% (56/83)"),
    (60, 66, 70, "91% (60/66)", "86% (60/70)"),
])
def test_reported_result_rows(correct, gold, system, recall, precision):
    assert format_rate(correct, gold) == recall
    assert format_rate(correct, system) == precision
    report = _report(correct, gold, system)
    rendered = report.render()
    assert recall in rendered and precision in rendered


def test_wide_rates_keep_a_blank_between_columns():
    rendered = _report(2000, 2000, 2000).render()
    assert "non-verbal  100% (2000/2000) 100% (2000/2000)" in rendered.splitlines()


def test_percent_rounds_halves_up():
    assert percent(20, 32) == 63     # 62.5 rounds up
    assert percent(1, 8) == 13       # 12.5 rounds up
    assert percent(14, 35) == 40


def test_empty_counts_render_as_dash():
    report = _report(0, 0, 0)
    assert report.recall is None
    assert report.precision is None
    assert "-" in report.render()


def _demo_predictions(corpora, lexicons):
    predictions = []
    for doc_id, doc in corpora.items():
        predictions.extend(
            predictions_from_results(doc_id, resolve_discourse(doc, lexicons)))
    return predictions


def test_evaluate_demo_corpus(corpora, lexicons):
    report = evaluate(_demo_predictions(corpora, lexicons), corpora)
    assert (report.correct, report.gold_positive, report.system_positive) == (6, 6, 6)
    assert report.by_class["verbal"] == ClassCounts(2, 2, 2)
    assert report.by_class["non_verbal"] == ClassCounts(4, 4, 4)
    assert report.recall == 1.0 and report.precision == 1.0


def test_evaluate_is_permutation_invariant(corpora, lexicons):
    predictions = _demo_predictions(corpora, lexicons)
    shuffled = predictions[:]
    random.Random(7).shuffle(shuffled)
    assert evaluate(predictions, corpora) == evaluate(shuffled, corpora)


def test_wrong_winner_counts_against_both_rates(corpora, lexicons):
    predictions = _demo_predictions(corpora, lexicons)
    botched = [p._replace(winner=1) if p.doc_id == "rate" else p
               for p in predictions]
    report = evaluate(botched, corpora)
    assert (report.correct, report.gold_positive, report.system_positive) == (5, 6, 6)


def test_pseudo_winner_is_system_negative(corpora, lexicons):
    predictions = [p for p in _demo_predictions(corpora, lexicons)
                   if p.doc_id == "roof"]
    skipped = [p._replace(winner=None) for p in predictions]
    report = evaluate(skipped, corpora)
    assert (report.correct, report.gold_positive, report.system_positive) == (0, 1, 0)


def test_slot_units_match_gold_by_label(corpora, lexicons):
    predictions = [p for p in _demo_predictions(corpora, lexicons)
                   if p.doc_id == "analysis"]
    # swap the two slot answers: both become wrong even though the ids exist
    swapped = [p._replace(winner=5 if p.slot == "ga" else 3) for p in predictions]
    report = evaluate(swapped, corpora)
    assert report.correct == 0
    assert report.by_class["verbal"] == ClassCounts(0, 2, 2)


def test_missing_gold_record_is_an_error(corpora):
    with pytest.raises(ValueError, match="no gold record .*rate:2"):
        evaluate([Prediction("rate", 2, None, 1, 0)], corpora)


def test_unknown_document_is_an_error(corpora):
    with pytest.raises(ValueError, match="unknown document"):
        evaluate([Prediction("nope", 1, None, 1, 0)], corpora)


def test_internal_consistency_of_rendered_rates(corpora, lexicons):
    report = evaluate(_demo_predictions(corpora, lexicons), corpora)
    assert format_rate(report.correct, report.gold_positive) in report.render()
    assert format_rate(report.correct, report.system_positive) in report.render()


def test_prediction_serialization_round_trip(corpora, lexicons):
    predictions = _demo_predictions(corpora, lexicons)
    assert parse_predictions(serialize_predictions(predictions)) == predictions


@pytest.mark.parametrize("prediction, fault", [
    (Prediction("a\tb", 3, None, None, 0), "document id must be one token"),
    (Prediction("a b", 3, None, None, 0), "document id must be one token"),
    (Prediction("", 3, None, None, 0), "document id must be one token"),
    (Prediction("a", 3, "g\ta", 1, 0), "slot must be None or a surface case"),
    (Prediction("a", 3, "-", 1, 0), "slot must be None or a surface case"),
    (Prediction("a", 3, "", 1, 0), "slot must be None or a surface case"),
    (Prediction("%rate", 8, None, 7, 25), "document id must not start with '%'"),
])
def test_a_prediction_that_would_not_read_back_is_not_serialised(prediction, fault):
    with pytest.raises(ValueError) as excinfo:
        serialize_predictions([Prediction("rate", 8, None, 7, 25), prediction])
    assert str(excinfo.value) == f"{prediction!r}: {fault}"


def test_prediction_parser_rejects_short_lines():
    with pytest.raises(ValueError, match="5 fields"):
        parse_predictions("rate\t8\t-\t7\n")


@pytest.mark.parametrize("slot", ["zz", "GA", "no"])
def test_prediction_parser_rejects_a_slot_that_is_not_a_surface_case(slot):
    # serialize_predictions refuses the same prediction, and evaluate would
    # count it as a verbal unit.
    with pytest.raises(ValueError) as excinfo:
        serialize_predictions([Prediction("analysis", 9, slot, 3, 21)])
    assert str(excinfo.value).endswith(": slot must be None or a surface case")
    with pytest.raises(ValueError) as excinfo:
        parse_predictions(f"% header\nanalysis\t9\t{slot}\t3\t21\n")
    assert str(excinfo.value) == f"predictions line 2: slot {slot!r} is not a surface case"


def test_prediction_parser_rejects_a_repeated_unit():
    text = "% header\nrate\t8\t-\t7\t25\nrate\t8\t-\tNONE\t10\n"
    with pytest.raises(ValueError, match="lines 2 and 3.*rate:8"):
        parse_predictions(text)
    # the same anaphor in another slot or document is another unit
    assert len(parse_predictions(
        "analysis\t9\tga\t3\t21\nanalysis\t9\two\t5\t18\nrate2\t8\t-\t7\t25\n")) == 3


def test_winner_missing_from_the_document_is_an_error(corpora):
    with pytest.raises(ValueError, match="rate:8 names antecedent 999"):
        evaluate([Prediction("rate", 8, None, 999, 25)], corpora)
