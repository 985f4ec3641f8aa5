"""Draft noun case frames from "X no Y" examples.

For a head noun Y, observed X modifiers are grouped by their top-level
thesaurus category.  X lemmas flagged adjectival/numeral/temporal are
rejected, unknown lemmas land in the UNKNOWN group, and examples can be
copied between similar head nouns while keeping their origin.  Entries in
categories like Character usually describe features rather than related
entities; the builder flags them for the human editor but keeps them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from .lexicons import EXCLUDED_X_FLAGS, NounAttributes, Thesaurus, XnoYStore

UNKNOWN_GROUP = "UNKNOWN"
CORPUS = "corpus"

# Top-level category labels by code prefix (the first digit pair).
DEFAULT_CATEGORY_LABELS: dict[str, str] = {
    "11": "Human",
    "12": "Organization",
    "13": "Mental",
    "14": "Action",
    "15": "Product",
    "16": "Character",
    "17": "Nature",
    "18": "Phenomenon",
    "19": "Animal",
}
DEFAULT_FLAGGED_LABELS = frozenset({"Character"})
DEFAULT_PREFIX_LEN = 2


@dataclass(frozen=True)
class ArrangedFrame:
    y_lemma: str
    groups: Mapping[str, tuple[str, ...]]      # label -> sorted x lemmas
    provenance: Mapping[str, str]              # x -> "corpus" | "merged-from:<y>"
    rejected: tuple[str, ...]                  # x lemmas dropped by the filters
    flagged: tuple[str, ...]                   # kept, but likely feature-like


def _category_label(lemma: str, thesaurus: Thesaurus) -> str:
    for code in thesaurus.lookup(lemma):
        label = DEFAULT_CATEGORY_LABELS.get(code[:DEFAULT_PREFIX_LEN])
        if label is not None:
            return label
    return UNKNOWN_GROUP


def arrange(
    y: str,
    store: XnoYStore,
    thesaurus: Thesaurus,
    attrs: NounAttributes,
) -> ArrangedFrame:
    """Group the observed modifiers of one head noun by category."""
    grouped: dict[str, list[str]] = {}
    provenance: dict[str, str] = {}
    rejected: list[str] = []
    flagged: list[str] = []
    for x in sorted(set(store.modifiers_of(y))):
        if attrs.has_any(x, EXCLUDED_X_FLAGS):
            rejected.append(x)
            continue
        label = _category_label(x, thesaurus)
        grouped.setdefault(label, []).append(x)
        provenance[x] = CORPUS
        if label in DEFAULT_FLAGGED_LABELS:
            flagged.append(x)
    return ArrangedFrame(
        y_lemma=y,
        groups={label: tuple(sorted(xs)) for label, xs in sorted(grouped.items())},
        provenance=provenance,
        rejected=tuple(rejected),
        flagged=tuple(flagged),
    )


def merge_similar(
    target: ArrangedFrame,
    source: ArrangedFrame,
    thesaurus: Thesaurus,
) -> ArrangedFrame:
    """Copy the source frame's examples into the target, keeping origins.

    Existing target entries are never displaced, so repeated merges are
    no-ops after the first.
    """
    del thesaurus  # group labels already encode the category alignment
    groups = {label: list(xs) for label, xs in target.groups.items()}
    provenance = dict(target.provenance)
    for label, xs in source.groups.items():
        bucket = groups.setdefault(label, [])
        for x in xs:
            if x in provenance:
                continue
            bucket.append(x)
            provenance[x] = f"merged-from:{source.y_lemma}"
    return replace(
        target,
        groups={label: tuple(sorted(xs)) for label, xs in sorted(groups.items())},
        provenance=provenance,
    )


def render_frame(frame: ArrangedFrame) -> str:
    """Stable text form: one block per head noun, groups and rejects listed."""
    lines = [f"Y {frame.y_lemma}"]
    for label, xs in frame.groups.items():
        lines.append(f"group {label}: {', '.join(xs)}")
    lines.append(f"rejected: {', '.join(frame.rejected)}")
    merged = sorted(x for x, origin in frame.provenance.items() if origin != CORPUS)
    if merged:
        origins = {x: frame.provenance[x] for x in merged}
        lines.append("% merged: " + ", ".join(f"{x} ({origins[x]})" for x in merged))
    if frame.flagged:
        lines.append("% flagged as feature-like: " + ", ".join(sorted(frame.flagged)))
    return "\n".join(lines) + "\n"


def build_dictionary(
    store: XnoYStore,
    thesaurus: Thesaurus,
    attrs: NounAttributes,
    merges: tuple[tuple[str, str], ...] = (),
) -> str:
    """Arrange every head noun of the store, apply merges, render all blocks."""
    heads = sorted({y for _, y in store.pairs})
    frames = {y: arrange(y, store, thesaurus, attrs) for y in heads}
    for target_y, source_y in merges:
        if target_y not in frames or source_y not in frames:
            missing = target_y if target_y not in frames else source_y
            raise ValueError(f"cannot merge: no examples for head noun {missing!r}")
        frames[target_y] = merge_similar(frames[target_y], frames[source_y], thesaurus)
    return "\n".join(render_frame(frames[y]) for y in heads)
