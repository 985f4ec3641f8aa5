"""Lexical resources: thesaurus, verb case frames, genitive examples, noun attributes.

All four resources are plain UTF-8 files with ``%`` comment lines:

* thesaurus:      ``lemma<TAB>code`` where the code is a string of ASCII
                  digits and a shared prefix means a shared category
                  (longer = closer).
* case frames:    blocks of ``verb <lemma>`` followed by
                  ``slot case=<c> constraints=<codes,> examples=<lemmas,>``
                  lines, plus ``vn <noun> -> <verb>`` mappings for verbal nouns;
                  each constraint is a thesaurus code prefix (ASCII digits),
                  each verb has one block and each verbal noun one mapping,
                  and each mapped verb needs a block in the same file.
* genitive pairs: ``x<TAB>y`` per line, one line per observed "X no Y" example.
* noun attributes: ``lemma<TAB>flag[,flag...]`` with flags from
                  adjectival / numeral / temporal / non_anaphoric / relational.

A line that breaks a rule is rejected as ``<file>: line <n>: <message>``;
a repeated verb block or verbal-noun mapping names its earlier line too.
A ``Thesaurus``, ``CaseSlot`` or ``VerbCaseFrame`` built in code is held
to the same code, slot and frame rules, with the same messages: the
case-frame reader leaves them to building both on each slot line.  Lexicon
objects, loaded or built in code, keep their collections as tuples and
frozensets of their own, so they are immutable and safe to share between
workers; a string where such a collection belongs is rejected.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from os.path import commonprefix
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional

from ._files import is_digits, read_utf8
from ._frozen import reduce_by_fields
from .corpus import Phrase

SURFACE_CASES = frozenset({"ga", "wo", "ni", "de", "kara", "he"})
ATTRIBUTE_FLAGS = frozenset(
    {"adjectival", "numeral", "temporal", "non_anaphoric", "relational"})
# X lemmas carrying any of these flags never count as genitive evidence.
EXCLUDED_X_FLAGS = frozenset({"adjectival", "numeral", "temporal"})


class LexiconFormatError(ValueError):
    """A lexicon file line does not match its format."""


def _read(path: Path | str, parse_line: Callable[[int, str], None]) -> None:
    """Hand each data line and its number to ``parse_line``; name file and line on error."""
    for lineno, raw in enumerate(read_utf8(path, LexiconFormatError).splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("%"):
            try:
                parse_line(lineno, line)
            except ValueError as exc:
                raise LexiconFormatError(f"{path}: line {lineno}: {exc}") from None


def _two_fields(line: str, form: str) -> tuple[str, str]:
    parts = line.split("\t")
    if len(parts) != 2:
        raise ValueError(f"expected '{form}'")
    return parts[0], parts[1]


def _check_code(code: str, what: str) -> None:
    if not is_digits(code):
        raise LexiconFormatError(f"{what} must be a nonempty digit string")


def _collection(values: Iterable, container: type, what: str):
    """``values`` as a ``container`` of their own, so no caller's object is kept.

    A string is an iterable too, but never a collection of lexicon values.
    """
    if isinstance(values, str):
        raise TypeError(f"{what} must be a collection, not a string: {values!r}")
    return container(values)


def _checked_entry(lemma: str, code: str) -> tuple[str, str]:
    _check_code(code, f"thesaurus code for {lemma!r}")
    return lemma, code


@dataclass(frozen=True)
class Thesaurus:
    codes: Mapping[str, tuple[str, ...]]   # lemma -> one or more category codes
    max_depth: int                         # no code is longer

    def __post_init__(self):
        object.__setattr__(self, "codes", MappingProxyType({
            lemma: _collection(codes, tuple, f"thesaurus codes for {lemma!r}")
            for lemma, codes in self.codes.items()}))
        for lemma, codes in self.codes.items():
            for code in codes:
                _check_code(code, f"thesaurus code for {lemma!r}")
                if len(code) > self.max_depth:
                    raise ValueError(f"thesaurus lemma {lemma!r} has code {code}, "
                                     f"longer than max_depth {self.max_depth}")

    __reduce__ = reduce_by_fields

    def lookup(self, lemma: str) -> tuple[str, ...]:
        return self.codes.get(lemma, ())

    @classmethod
    def from_entries(cls, entries: Iterable[tuple[str, str]]) -> "Thesaurus":
        codes: dict[str, tuple[str, ...]] = {}
        max_depth = 0
        for lemma, code in entries:
            codes[lemma] = codes.get(lemma, ()) + (code,)
            max_depth = max(max_depth, len(code))
        return cls(codes=codes, max_depth=max_depth)


def load_thesaurus(path: Path | str) -> Thesaurus:
    entries = []
    _read(path, lambda lineno, line: entries.append(
        _checked_entry(*_two_fields(line, "lemma<TAB>code"))))
    return Thesaurus.from_entries(entries)


def similarity_level(a: str, b: str, thesaurus: Thesaurus) -> int:
    """Deepest shared category level between two lemmas; 0 when unrelated or unknown."""
    best = 0
    for code_a in thesaurus.lookup(a):
        for code_b in thesaurus.lookup(b):
            best = max(best, len(commonprefix((code_a, code_b))))
    return best


def similarity_score(level: int, table: Mapping[int, int]) -> int:
    """Map a similarity level onto its configured score."""
    if level not in table:
        raise ValueError(
            f"similarity level {level} outside the configured table "
            f"(0..{max(table) if table else '?'})")
    return table[level]


@dataclass(frozen=True)
class CaseSlot:
    surface_case: str
    constraints: tuple[str, ...]     # thesaurus code prefixes
    example_nouns: tuple[str, ...]

    def __post_init__(self):
        _check_case(self.surface_case)
        for name in ("constraints", "example_nouns"):
            object.__setattr__(self, name, _collection(
                getattr(self, name), tuple, f"case slot {self.surface_case!r} {name}"))
        for code in self.constraints:
            _check_code(code, f"case-frame constraint {code!r}")
        if not self.constraints and not self.example_nouns:
            raise ValueError("slot needs constraints or examples")


def _check_case(case: str) -> None:
    if case not in SURFACE_CASES:
        raise ValueError(f"unknown surface case {case!r}")


@dataclass(frozen=True)
class VerbCaseFrame:
    verb_lemma: str
    slots: tuple[CaseSlot, ...]

    def __post_init__(self):
        object.__setattr__(self, "slots", _collection(
            self.slots, tuple, f"case frame {self.verb_lemma!r} slots"))
        cases = self.surface_cases()
        if len(set(cases)) != len(cases):
            raise ValueError(f"duplicate surface case in frame {self.verb_lemma!r}")

    def slot(self, surface_case: str) -> Optional[CaseSlot]:
        for s in self.slots:
            if s.surface_case == surface_case:
                return s
        return None

    def surface_cases(self) -> tuple[str, ...]:
        return tuple(s.surface_case for s in self.slots)


@dataclass(frozen=True)
class CaseFrameDict:
    frames: Mapping[str, VerbCaseFrame]
    verbal_nouns: Mapping[str, str]     # verbal noun -> verb lemma

    def __post_init__(self):
        object.__setattr__(self, "frames", MappingProxyType(dict(self.frames)))
        object.__setattr__(self, "verbal_nouns", MappingProxyType(dict(self.verbal_nouns)))

    __reduce__ = reduce_by_fields


def lookup_case_frame(lemma: str, frames: CaseFrameDict) -> Optional[VerbCaseFrame]:
    """Frame for a verb lemma, or for a verbal noun via its verb mapping."""
    frame = frames.frames.get(lemma)
    if frame is not None:
        return frame
    verb = frames.verbal_nouns.get(lemma)
    if verb is not None:
        return frames.frames.get(verb)
    return None


def _parse_kv(token: str, key: str) -> str:
    prefix = key + "="
    if not token.startswith(prefix):
        raise ValueError(f"expected '{key}=...', got {token!r}")
    return token[len(prefix):]


def load_case_frames(path: Path | str) -> CaseFrameDict:
    blocks: dict[str, tuple[VerbCaseFrame, int]] = {}   # verb -> (its frame, line of its block)
    mapped: dict[str, tuple[str, int]] = {}     # verbal noun -> (verb, line of its mapping)

    def parse_line(lineno: int, line: str) -> None:
        tokens = line.split()
        if tokens[0] == "verb":
            if len(tokens) != 2:
                raise ValueError("expected 'verb <lemma>'")
            verb = tokens[1]
            if verb in blocks:
                raise ValueError(f"verb {verb!r} already has a block at line {blocks[verb][1]}")
            blocks[verb] = VerbCaseFrame(verb, ()), lineno
        elif tokens[0] == "slot":
            if not blocks:
                raise ValueError("slot outside a verb block")
            if len(tokens) != 4:
                raise ValueError(
                    "expected 'slot case=<c> constraints=<codes,> examples=<lemmas,>'")
            case = _parse_kv(tokens[1], "case")
            _check_case(case)
            constraints = tuple(
                c for c in _parse_kv(tokens[2], "constraints").split(",") if c and c != "-")
            examples = tuple(
                e for e in _parse_kv(tokens[3], "examples").split(",") if e and e != "-")
            slot = CaseSlot(case, constraints, examples)
            verb = next(reversed(blocks))     # the open block is the last one
            frame, start = blocks[verb]
            blocks[verb] = VerbCaseFrame(verb, frame.slots + (slot,)), start
        elif tokens[0] == "vn":
            if len(tokens) != 4 or tokens[2] != "->":
                raise ValueError("expected 'vn <noun> -> <verb>'")
            noun = tokens[1]
            if noun in mapped:
                raise ValueError(f"verbal noun {noun!r} is already mapped at line {mapped[noun][1]}")
            mapped[noun] = tokens[3], lineno
        else:
            raise ValueError(f"unknown directive {tokens[0]!r}")

    _read(path, parse_line)
    frames = {verb: frame for verb, (frame, _) in blocks.items()}
    for noun, (verb, lineno) in mapped.items():
        if verb not in frames:
            raise LexiconFormatError(
                f"{path}: line {lineno}: verbal noun {noun!r} maps to "
                f"unknown verb {verb!r}")
    return CaseFrameDict(frames=frames, verbal_nouns={
        noun: verb for noun, (verb, _) in mapped.items()})


@dataclass(frozen=True)
class XnoYStore:
    pairs: tuple[tuple[str, str], ...]
    _by_y: Mapping[str, tuple[str, ...]] = field(
        init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(
            _collection(pair, tuple, "xnoy pair")
            for pair in _collection(self.pairs, tuple, "xnoy pairs")))
        by_y: dict[str, list[str]] = {}
        for x, y in self.pairs:
            by_y.setdefault(y, []).append(x)
        object.__setattr__(self, "_by_y", MappingProxyType(
            {y: tuple(xs) for y, xs in by_y.items()}))

    __reduce__ = reduce_by_fields

    def modifiers_of(self, y: str) -> tuple[str, ...]:
        return self._by_y.get(y, ())


def load_xnoy(path: Path | str) -> XnoYStore:
    pairs = []
    _read(path, lambda lineno, line: pairs.append(_two_fields(line, "x<TAB>y")))
    return XnoYStore(pairs=tuple(pairs))


@dataclass(frozen=True)
class NounAttributes:
    flags: Mapping[str, frozenset[str]]

    def __post_init__(self):
        object.__setattr__(self, "flags", MappingProxyType({
            lemma: _collection(flags, frozenset, f"noun attribute flags for {lemma!r}")
            for lemma, flags in self.flags.items()}))

    __reduce__ = reduce_by_fields

    def has(self, lemma: str, flag: str) -> bool:
        return flag in self.flags.get(lemma, frozenset())

    def has_any(self, lemma: str, flags: frozenset[str]) -> bool:
        return bool(self.flags.get(lemma, frozenset()) & flags)


def load_noun_attributes(path: Path | str) -> NounAttributes:
    flags: dict[str, frozenset[str]] = {}

    def parse_line(lineno: int, line: str) -> None:
        lemma, raw_flags = _two_fields(line, "lemma<TAB>flag[,flag...]")
        entry = frozenset(f for f in raw_flags.split(",") if f)
        if not entry:
            raise ValueError("empty flag list")
        unknown = entry - ATTRIBUTE_FLAGS
        if unknown:
            raise ValueError(f"unknown flags {sorted(unknown)}")
        flags[lemma] = flags.get(lemma, frozenset()) | entry

    _read(path, parse_line)
    return NounAttributes(flags=flags)


def xnoy_modifier_set(y: str, store: XnoYStore, attrs: NounAttributes) -> set[str]:
    """X lemmas observed as "X no y", minus excluded modifiers.

    Returns the empty set when y itself cannot head a bridging reference
    (non_anaphoric flag), and drops every x flagged adjectival, numeral
    or temporal.
    """
    if attrs.has(y, "non_anaphoric"):
        return set()
    return {
        x for x in store.modifiers_of(y)
        if not attrs.has_any(x, EXCLUDED_X_FLAGS)
    }


def satisfies_constraint(
    candidate: Phrase,
    slot: CaseSlot,
    thesaurus: Thesaurus,
    table: Mapping[int, int],
    example_match_min_level: int = 4,
) -> tuple[bool, int]:
    """Check a candidate against one case slot and score its similarity.

    A candidate passes when one of its category codes falls under a slot
    constraint, when its lemma is close enough to a slot example noun, or
    when the lemma is literally listed as an example.  The returned score
    reflects the deepest category level that supported the decision; a
    failing candidate gets the no-match score.
    """
    codes = set(candidate.sem_codes) | set(thesaurus.lookup(candidate.lemma))
    best_level = 0
    satisfied = False
    for constraint in slot.constraints:
        if any(code.startswith(constraint) for code in codes):
            satisfied = True
            best_level = max(best_level, len(constraint))
    for example in slot.example_nouns:
        level = similarity_level(candidate.lemma, example, thesaurus)
        if candidate.lemma == example:
            # Literal example mention always passes, thesaurus entry or not.
            level = max(level, thesaurus.max_depth)
        if level >= example_match_min_level:
            satisfied = True
        best_level = max(best_level, level)
    if not satisfied:
        return False, similarity_score(0, table)
    return True, similarity_score(best_level, table)


@dataclass(frozen=True)
class LexiconSet:
    thesaurus: Thesaurus
    case_frames: CaseFrameDict
    xnoy: XnoYStore
    attrs: NounAttributes


def load_lexicons(directory: Path | str) -> LexiconSet:
    """Load the four resource files from a directory.

    Extra salience rows come from the config's ``weight.*`` keys alone, so a
    ``weights.tsv`` here is rejected rather than silently ignored.
    """
    directory = Path(directory)
    weights = directory / "weights.tsv"
    if weights.exists():
        raise LexiconFormatError(
            f"{weights}: extra salience rows are read only from --config, as "
            f"weight.<topic|focus>.<pattern>=<w> lines")
    for name in ("thesaurus.tsv", "caseframes.txt", "xnoy.tsv", "nounattrs.tsv"):
        if not (directory / name).exists():
            raise LexiconFormatError(f"missing lexicon file: {directory / name}")
    return LexiconSet(
        thesaurus=load_thesaurus(directory / "thesaurus.tsv"),
        case_frames=load_case_frames(directory / "caseframes.txt"),
        xnoy=load_xnoy(directory / "xnoy.tsv"),
        attrs=load_noun_attributes(directory / "nounattrs.tsv"),
    )
