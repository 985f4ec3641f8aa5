"""Render a resolution as a per-candidate score table.

A title line, then a header with one column per candidate (pseudo candidate
first, then real candidates most recent first); one row per rule that fired,
detail rows for the weighted paths, and a closing Total Score row.
``parse_total_row`` reads the Total Score row back through the same labels.
"""
from __future__ import annotations

from collections import Counter

from .corpus import Discourse
from .resolver import PSEUDO_GENERIC, PSEUDO_INDEFINITE, ResolutionResult

_RULE_ORDER = ("R1", "R2", "R3", "R4", "R5", "R6")
TOTAL_ROW = "Total Score"


def _column_order(result: ResolutionResult) -> list:
    pseudo = sorted(c for c in result.all_scores if isinstance(c, str))
    real = sorted((c for c in result.all_scores if isinstance(c, int)), reverse=True)
    return pseudo + real


def _labels(discourse: Discourse) -> dict:
    """Column label of every candidate the document can produce.

    Pseudo candidates keep their names.  A phrase is labelled with its
    lemma, plus ``#id`` when the lemma occurs more than once in the document
    or is also a pseudo candidate's name, so no two candidates share a label.
    """
    labels: dict = {c: c for c in (PSEUDO_INDEFINITE, PSEUDO_GENERIC)}
    names = {p.id: p.lemma or f"phrase{p.id}" for p in discourse.phrases()}
    counts = Counter([*labels, *names.values()])
    labels.update((c, f"{name}#{c}" if counts[name] > 1 else name)
                  for c, name in names.items())
    return labels


def _cell(value) -> str:
    return "" if value is None else str(value)


def render_score_table(result: ResolutionResult, discourse: Discourse) -> str:
    anaphor = discourse.phrase(result.anaphor_id)
    columns = _column_order(result)
    labels = _labels(discourse)
    detailed: dict = {}      # candidate -> weighted-path proposal (R4/R5)
    for proposal in result.proposals:
        if proposal.breakdown is not None:
            detailed[proposal.candidate] = proposal

    rows: list[tuple[str, dict]] = []
    for rule in _RULE_ORDER:
        cells = {
            pr.candidate: pr.points
            for pr in result.proposals if pr.rule == rule
        }
        if cells:
            rows.append((rule, cells))

    def breakdown_row(name, getter):
        cells = {}
        for candidate, proposal in detailed.items():
            value = getter(proposal)
            if value is not None:
                cells[candidate] = value
        if cells:
            rows.append((name, cells))

    if detailed:
        breakdown_row("  Subject", lambda pr: pr.breakdown.base)
        breakdown_row("  Topic/Focus (W)", lambda pr: pr.breakdown.weight)
        breakdown_row("  Distance (D)",
                      lambda pr: None if pr.breakdown.dist is None
                      else -pr.breakdown.dist)
        breakdown_row("  Definiteness (P)", lambda pr: pr.breakdown.definiteness)
        breakdown_row("  Similarity (S)", lambda pr: pr.breakdown.similarity)
    rows.append((TOTAL_ROW, dict(result.all_scores)))

    header = [""] + [labels[c] for c in columns]
    body = [[name] + [_cell(cells.get(c)) for c in columns] for name, cells in rows]
    widths = [max(len(line[i]) for line in [header] + body)
              for i in range(len(header))]

    def fmt(line):
        return " | ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                          for i, cell in enumerate(line)).rstrip()

    title = f"anaphor: {anaphor.lemma or anaphor.surface or anaphor.id}"
    if result.slot:
        title += f"  [{result.slot} slot]"
    lines = [title, fmt(header)]
    lines.append("-" * len(fmt(header)))
    lines.extend(fmt(line) for line in body)
    return "\n".join(lines) + "\n"


def parse_total_row(table: str, discourse: Discourse) -> dict:
    """Read the Total Score row back into an all_scores mapping."""
    lines = table.splitlines()
    names = [cell.strip() for cell in lines[1].split("|")][1:]
    totals_line = next(line for line in lines if line.startswith(TOTAL_ROW))
    values = [cell.strip() for cell in totals_line.split("|")][1:]
    candidates = {label: c for c, label in _labels(discourse).items()}
    return {candidates[name]: int(value) for name, value in zip(names, values) if value}
