"""Render a resolution as a per-candidate score table.

A title line, then a header with one column per candidate (pseudo candidate
first, then real candidates most recent first); one row per rule that fired,
detail rows for the weighted paths, and a closing Total Score row.

Pseudo candidates are labelled with their names.  A phrase is named by its
lemma when the lemma is non-empty, holds neither ``|`` nor ``#`` and has no
leading or trailing whitespace, and ``phrase<id>`` otherwise.  Its label is
that name, plus ``#id`` when another phrase of the document or a pseudo
candidate has the same name; no name holds ``#``, so no two candidates share
a label.  ``parse_total_row`` reads the Total Score row back through the
same labels.
"""
from __future__ import annotations

from collections import Counter

from .corpus import Discourse
from .resolver import PSEUDO_GENERIC, PSEUDO_INDEFINITE, ResolutionResult

TOTAL_ROW = "Total Score"


def _labels(discourse: Discourse, columns=None) -> dict:
    """Label of each candidate in ``columns``, in their order, or of every
    candidate of the document when ``columns`` is None, by the rule above."""
    # A pseudo candidate is its own name, and keeps it as its label.
    names = {PSEUDO_INDEFINITE: PSEUDO_INDEFINITE, PSEUDO_GENERIC: PSEUDO_GENERIC}
    names.update({p.id: lemma if (lemma := p.lemma) and "|" not in lemma
                  and "#" not in lemma and lemma == lemma.strip() else f"phrase{p.id}"
                  for sentence in discourse.sentences for p in sentence.phrases})
    counts = Counter(names.values())
    return {c: name if (name := names[c]) == c or counts[name] == 1 else f"{name}#{c}"
            for c in (names if columns is None else columns)}


def render_score_table(result: ResolutionResult, discourse: Discourse) -> str:
    rules: dict = {}
    details = ({}, {}, {}, {}, {})
    for pr in result.proposals:
        rules.setdefault(pr.rule, {})[pr.candidate] = pr.points
        b = pr.breakdown
        if b is not None:
            dist = None if b.dist is None else -b.dist
            for cells, value in zip(details, (b.base, b.weight, dist, b.definiteness,
                                              b.similarity)):
                if value is not None:
                    cells[pr.candidate] = value
    rows = sorted(rules.items())
    rows.extend((name, cells) for name, cells in zip(
        ("  Subject", "  Topic/Focus (W)", "  Distance (D)", "  Definiteness (P)",
         "  Similarity (S)"), details) if cells)
    scores = result.all_scores
    rows.append((TOTAL_ROW, scores))

    columns = (sorted(c for c in scores if isinstance(c, str))
               + sorted((c for c in scores if isinstance(c, int)), reverse=True))
    lines = [["", *_labels(discourse, columns).values()]]
    lines.extend([name, *[str(cells.get(c, "")) for c in columns]] for name, cells in rows)
    first, *widths = [max(map(len, column)) for column in zip(*lines)]
    text = [" | ".join([line[0].ljust(first), *map(str.rjust, line[1:], widths)]).rstrip()
            for line in lines]

    anaphor = discourse.phrase(result.anaphor_id)
    title = f"anaphor: {anaphor.lemma or anaphor.surface or anaphor.id}"
    if result.slot:
        title += f"  [{result.slot} slot]"
    return "\n".join([title, text[0], "-" * len(text[0]), *text[1:]]) + "\n"


def parse_total_row(table: str, discourse: Discourse) -> dict:
    """Read the Total Score row back into an all_scores mapping."""
    lines = table.splitlines()
    names = [cell.strip() for cell in lines[1].split("|")][1:]
    totals_line = next(line for line in lines if line.startswith(TOTAL_ROW))
    values = [cell.strip() for cell in totals_line.split("|")][1:]
    candidates = {label: c for c, label in _labels(discourse).items()}
    return {candidates[name]: int(value) for name, value in zip(names, values) if value}
