"""Topic/focus classification and the discourse salience list.

A noun phrase becomes a salience entry when its particles (or trailing
punctuation) match one of the weight rows below.  Topic rows are tried
first, then focus rows; the first matching row wins, and focus rows never
apply to a phrase marked with ``wa``.  Extra rows come from the config
alone, from its ``weight.<kind>.<pattern>=<w>`` keys (see
``parse_weight_row``) or built in code as ``WeightRow`` objects, which
check themselves; the resolver tries them after the default rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .corpus import PARTICLES, Discourse, Phrase, _check_anaphor

TOPIC = "topic"
FOCUS = "focus"

# Word classes used by the rows: pronouns and zero pronouns pattern together.
PRONOUN_LIKE = frozenset({"pronoun", "zero_pronoun"})


@dataclass(frozen=True)
class WeightRow:
    kind: str                      # "topic" | "focus"
    word_class: str                # "pronoun" | "noun"
    particles: frozenset[str]
    match_punct: bool              # row also matches bare noun + comma/period
    weight: int

    def __post_init__(self):
        if self.kind not in (TOPIC, FOCUS):
            raise ValueError(f"weight row kind must be topic or focus, got {self.kind!r}")
        if self.word_class not in ("noun", "pronoun"):
            raise ValueError(f"weight row class must be noun or pronoun, got {self.word_class!r}")
        if type(self.match_punct) is not bool:
            raise ValueError(f"weight row match_punct must be a bool, got {self.match_punct!r}")
        particles = frozenset(self.particles)
        object.__setattr__(self, "particles", particles)
        pattern = (f"{self.word_class}:{','.join(sorted(particles))}"
                   + (":punct" if self.match_punct else ""))
        for particle in sorted(particles - PARTICLES):
            raise ValueError(f"unknown particle {particle!r} in weight row {pattern!r}")
        if not particles and not self.match_punct:
            raise ValueError(f"weight row {pattern!r} matches nothing")
        if type(self.weight) is not int:
            raise ValueError(f"weight row weight must be an integer, got {self.weight!r}")


def _word_class(phrase: Phrase) -> str:
    return "pronoun" if phrase.noun_subtype in PRONOUN_LIKE else "noun"


DEFAULT_TOPIC_ROWS: tuple[WeightRow, ...] = (
    # pronoun/zero-pronoun + ga/wa
    WeightRow(TOPIC, "pronoun", frozenset({"ga", "wa"}), False, 21),
    # noun + wa/niwa
    WeightRow(TOPIC, "noun", frozenset({"wa", "niwa"}), False, 20),
)

DEFAULT_FOCUS_ROWS: tuple[WeightRow, ...] = (
    # pronoun/zero-pronoun + wo/ni/kara
    WeightRow(FOCUS, "pronoun", frozenset({"wo", "ni", "kara"}), False, 16),
    # noun + ga/mo/da/nara/koso
    WeightRow(FOCUS, "noun", frozenset({"ga", "mo", "da", "nara", "koso"}), False, 15),
    # noun + wo/ni, or a bare noun directly before a comma/period
    WeightRow(FOCUS, "noun", frozenset({"wo", "ni"}), True, 14),
    # noun + he/de/kara/yori
    WeightRow(FOCUS, "noun", frozenset({"he", "de", "kara", "yori"}), False, 13),
)


def default_rows() -> tuple[WeightRow, ...]:
    return DEFAULT_TOPIC_ROWS + DEFAULT_FOCUS_ROWS


@dataclass(frozen=True)
class SalienceEntry:
    phrase_id: int
    kind: str            # "topic" | "focus"
    weight: int
    seq: int             # position among salience entries, document order


def _row_matches(row: WeightRow, phrase: Phrase, particles: set[str]) -> bool:
    if _word_class(phrase) != row.word_class:
        return False
    if particles & row.particles:
        return True
    if row.match_punct and not particles and phrase.punct_after in ("comma", "period"):
        return True
    return False


def classify_salience(
    phrase: Phrase,
    rows: Optional[Iterable[WeightRow]] = None,
) -> Optional[tuple[str, int]]:
    """Classify one phrase as (kind, weight), or None when no row matches."""
    if not phrase.is_noun():
        return None
    particles = set(phrase.particles)
    all_rows = tuple(rows) if rows is not None else default_rows()
    for row in all_rows:
        if row.kind == FOCUS and "wa" in particles:
            continue  # focus rows exclude wa-marked phrases
        if _row_matches(row, phrase, particles):
            return row.kind, row.weight
    return None


def salience_list(
    d: Discourse,
    anaphor: Phrase,
    rows: Optional[Iterable[WeightRow]] = None,
) -> list[SalienceEntry]:
    """All classified phrases strictly preceding the anaphor, in document order."""
    _check_anaphor(d, anaphor)
    entries: list[SalienceEntry] = []
    all_rows = tuple(rows) if rows is not None else default_rows()
    for phrase in d.preceding(anaphor.id):
        classified = classify_salience(phrase, all_rows)
        if classified is not None:
            kind, weight = classified
            entries.append(SalienceEntry(phrase.id, kind, weight, seq=len(entries)))
    return entries


def distance(entry: SalienceEntry, anaphor: Phrase, entries: list[SalienceEntry]) -> int:
    """Backward rank of an entry among same-kind entries before the anaphor.

    Counts the entries of the entry's kind from the entry itself to the last
    entry before the anaphor, so the most recent such entry has rank 1.
    """
    if entry not in entries:
        raise ValueError(f"salience entry for phrase {entry.phrase_id} not in list")
    return sum(1 for e in entries[entries.index(entry):]
               if e.kind == entry.kind and (e.phrase_id < anaphor.id or e == entry))


def parse_weight_row(kind: str, pattern: str, weight: int) -> WeightRow:
    """Build a row from its pattern ``<class>:<particles,>[:punct]``; the row checks the rest."""
    parts = pattern.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"bad weight row pattern {pattern!r}")
    if parts[2:] not in ([], ["punct"]):
        raise ValueError(f"bad weight row suffix {parts[2]!r} (only 'punct' allowed)")
    return WeightRow(kind, parts[0], frozenset(p for p in parts[1].split(",") if p),
                     len(parts) == 3, weight)
