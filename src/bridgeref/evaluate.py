"""Recall/precision scoring of predictions against gold annotations.

Recall is the fraction of targets with a gold antecedent that the system
got right; precision is the fraction of targets the system judged to have
an antecedent that were right.  Verbal nouns are counted once per case
slot, and a pseudo-candidate winner counts as a negative system judgement.
A predictions file may leave units out, but lists each one at most once,
scores an anaphor either as one whole-phrase unit or per surface case slot
(the latter for verbal nouns only), and every winner it names must be a phrase
of the document that precedes the anaphor.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional

from .corpus import Discourse, _doc_id_fault
from .lexicons import SURFACE_CASES
from .resolver import ResolutionResult

NONE_FIELD = "NONE"
VERBAL_CLASS = "verbal"
NONVERBAL_CLASS = "non_verbal"


class Prediction(NamedTuple):
    doc_id: str
    anaphor_id: int
    slot: Optional[str]           # None for non-verbal targets
    winner: Optional[int]         # None when the system chose no antecedent
    total: int


def predictions_from_results(
    doc_id: str, results: Iterable[ResolutionResult]) -> list[Prediction]:
    predictions = []
    for r in results:
        winner = r.winner if isinstance(r.winner, int) else None
        predictions.append(Prediction(doc_id, r.anaphor_id, r.slot, winner, r.total))
    return predictions


def _is_slot(slot: Optional[str]) -> bool:
    """Whether a unit can have this slot: None for a whole phrase, else a surface case."""
    return slot is None or slot in SURFACE_CASES


def serialize_predictions(predictions: Iterable[Prediction]) -> str:
    """Predictions as the text ``parse_predictions`` reads back unchanged.

    A document id that ``#DOC`` cannot carry, or a slot that is neither None
    nor a surface case, would not read back, so it raises ``ValueError``.
    """
    lines = ["% doc\tanaphor\tslot\twinner\ttotal"]
    for p in predictions:
        fault = _doc_id_fault(p.doc_id)
        if fault:
            raise ValueError(f"{p!r}: document id {fault}")
        if not _is_slot(p.slot):
            raise ValueError(f"{p!r}: slot must be None or a surface case")
        lines.append("\t".join([
            p.doc_id,
            str(p.anaphor_id),
            p.slot or "-",
            NONE_FIELD if p.winner is None else str(p.winner),
            str(p.total),
        ]))
    return "\n".join(lines) + "\n"


def parse_predictions(text: str) -> list[Prediction]:
    """Read a predictions file; each (doc, anaphor, slot) unit may occur once.

    An anaphor is listed either as one whole-phrase unit (slot ``-``) or by
    case slot, never both.
    """
    predictions = []
    first_line: dict[tuple, int] = {}      # unit -> line that listed it
    # (doc, anaphor) -> whether its first line gave a slot, and that line
    first_kind: dict[tuple, tuple[bool, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ValueError(f"predictions line {lineno}: expected 5 fields")
        doc_id, anaphor, slot, winner, total = parts
        try:
            predictions.append(Prediction(
                doc_id,
                int(anaphor),
                None if slot == "-" else slot,
                None if winner == NONE_FIELD else int(winner),
                int(total),
            ))
        except ValueError:
            raise ValueError(f"predictions line {lineno}: bad integer field") from None
        if not _is_slot(predictions[-1].slot):
            raise ValueError(f"predictions line {lineno}: slot {slot!r} is not a surface case")
        unit = predictions[-1][:3]
        if unit in first_line:
            raise ValueError(
                f"predictions lines {first_line[unit]} and {lineno}: both score "
                f"{doc_id}:{anaphor} slot {slot}")
        first_line[unit] = lineno
        by_slot, first = first_kind.setdefault(unit[:2], (slot != "-", lineno))
        if by_slot != (slot != "-"):
            raise ValueError(
                f"predictions lines {first} and {lineno}: both score "
                f"{doc_id}:{anaphor}, one as a whole phrase and one by case slot")
    return predictions


class ClassCounts(NamedTuple):
    correct: int
    gold_positive: int
    system_positive: int

    def add(self, correct: bool, gold: bool, system: bool) -> "ClassCounts":
        return ClassCounts(
            self.correct + int(correct),
            self.gold_positive + int(gold),
            self.system_positive + int(system),
        )


def percent(numerator: int, denominator: int) -> int:
    """Integer percent, halves rounded up: 20/32 -> 63."""
    if denominator <= 0:
        raise ZeroDivisionError("percent of an empty denominator")
    return (200 * numerator + denominator) // (2 * denominator)


def format_rate(numerator: int, denominator: int) -> str:
    if denominator == 0:
        return "-"
    return f"{percent(numerator, denominator)}% ({numerator}/{denominator})"


@dataclass(frozen=True)
class EvalReport:
    correct: int
    gold_positive: int
    system_positive: int
    by_class: Mapping[str, ClassCounts]

    @property
    def recall(self) -> Optional[float]:
        if self.gold_positive == 0:
            return None
        return self.correct / self.gold_positive

    @property
    def precision(self) -> Optional[float]:
        if self.system_positive == 0:
            return None
        return self.correct / self.system_positive

    def render(self) -> str:
        rows = [("total", ClassCounts(self.correct, self.gold_positive,
                                      self.system_positive))]
        rows[:0] = [
            ("non-verbal", self.by_class[NONVERBAL_CLASS]),
            ("verbal", self.by_class[VERBAL_CLASS]),
        ]
        lines = [f"{'class':<12}{'recall':<16}precision"]
        for name, counts in rows:
            recall = format_rate(counts.correct, counts.gold_positive)
            precision = format_rate(counts.correct, counts.system_positive)
            lines.append(f"{name:<12}{recall:<15} {precision}")
        lines.append("note: verbal nouns are counted once per case slot")
        return "\n".join(lines) + "\n"


def _gold_ids(discourse: Discourse, prediction: Prediction) -> set[int]:
    """Gold antecedent ids applicable to one prediction unit.

    Case-slot units match gold entries labelled with the slot name; whole
    phrase units accept any relation label.
    """
    phrase = discourse.phrase(prediction.anaphor_id)
    ids = set()
    for gold in phrase.gold_antecedents:
        if prediction.slot is not None and gold.label != prediction.slot:
            continue
        if gold.antecedent_id is not None:
            ids.add(gold.antecedent_id)
    return ids


class _Tally:
    """Counts by class of the units scored so far.

    ``add`` checks one unit against its document before counting it, so a
    caller may score a corpus one document at a time.
    """

    def __init__(self):
        self.counts = {
            VERBAL_CLASS: ClassCounts(0, 0, 0),
            NONVERBAL_CLASS: ClassCounts(0, 0, 0),
        }

    def add(self, prediction: Prediction, discourse: Discourse) -> None:
        if not discourse.has_phrase(prediction.anaphor_id):
            raise ValueError(
                f"document {prediction.doc_id!r} has no phrase {prediction.anaphor_id}")
        phrase = discourse.phrase(prediction.anaphor_id)
        if not phrase.gold_antecedents:
            raise ValueError(
                f"no gold record for anaphor {prediction.doc_id}:{prediction.anaphor_id}")
        if prediction.slot is not None and phrase.noun_subtype != "verbal":
            raise ValueError(
                f"prediction for {prediction.doc_id}:{prediction.anaphor_id} gives "
                f"slot {prediction.slot!r}, but only verbal nouns are scored by slot")
        if prediction.winner is not None and not discourse.has_phrase(prediction.winner):
            raise ValueError(
                f"prediction for {prediction.doc_id}:{prediction.anaphor_id} names "
                f"antecedent {prediction.winner}, which the document lacks")
        if prediction.winner is not None and prediction.winner >= prediction.anaphor_id:
            raise ValueError(
                f"prediction for {prediction.doc_id}:{prediction.anaphor_id} names "
                f"antecedent {prediction.winner}, which does not precede the anaphor")
        gold_ids = _gold_ids(discourse, prediction)
        gold = bool(gold_ids)
        system = prediction.winner is not None
        correct = system and prediction.winner in gold_ids
        key = VERBAL_CLASS if prediction.slot is not None else NONVERBAL_CLASS
        self.counts[key] = self.counts[key].add(correct, gold, system)

    def report(self) -> EvalReport:
        verbal, nonverbal = self.counts[VERBAL_CLASS], self.counts[NONVERBAL_CLASS]
        return EvalReport(
            correct=verbal.correct + nonverbal.correct,
            gold_positive=verbal.gold_positive + nonverbal.gold_positive,
            system_positive=verbal.system_positive + nonverbal.system_positive,
            by_class=self.counts,
        )


def _unknown_document(doc_id: str) -> ValueError:
    return ValueError(f"predictions name unknown document {doc_id!r}")


def evaluate(
    predictions: Iterable[Prediction],
    corpora: Mapping[str, Discourse],
) -> EvalReport:
    """Score predictions; every predicted anaphor must carry gold annotation."""
    tally = _Tally()
    for prediction in predictions:
        discourse = corpora.get(prediction.doc_id)
        if discourse is None:
            raise _unknown_document(prediction.doc_id)
        tally.add(prediction, discourse)
    return tally.report()
