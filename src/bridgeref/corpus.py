"""Reader, writer and validator for dependency-annotated discourse (ADC format).

An ADC file is UTF-8 and line oriented:

    #DOC <id>         starts a document; the id is one token, not opening with %
    #SENT <n>         starts sentence n (0-based, contiguous per document)
    % ...             comment, ignored
    <phrase record>   one phrase per line inside a sentence

A directive is its first whitespace-separated token, matched exactly: any
other line opening with ``#``, such as ``#DOCUMENT x``, is an unknown
directive.

A phrase record has 11 tab-separated fields:

    id  surface  lemma  pos  subtype  particles  head  clause_role  sem_codes  refprop  gold

``particles`` and ``sem_codes`` are comma-joined lists, ``-`` marks an absent
value.  Zero pronouns use surface ``*`` (stored as an empty surface).  A
trailing ``,`` or ``.`` on the surface is stripped into ``punct_after``.
``gold`` is ``-`` or a comma-joined list of ``rel=<label>:<id>``,
``rel=<label>:NONE`` and bare ``rel=NONE`` items.

One set of rules covers a phrase's own fields: a part of speech is given
(not empty or ``-``), a noun needs a known subtype, particles, clause roles
and referential properties must be known values, a zero pronoun has
surface ``*`` and a zero-pronoun particle, and no surface, lemma, part of
speech, sem code or gold label holds a tab or a line break (any character
``str.splitlines`` ends a line at), which no field of the format can carry.
A gold label holds neither ``:`` nor ``,``, and a gold antecedent id has a
label.  Parsed text never breaks these.  Parsing reports the first broken
rule as a ``CorpusFormatError`` naming the line and field;
``validate_discourse`` reports each as ``phrase <id>:`` and the same
message.  One rule on document ids serves both: ``#DOC`` carries an id
that is one token with no whitespace around it and does not open with
``%`` (a predictions line would read as a comment), and
``validate_discourse`` reports any other id first.  Parsing then reports
the first structural violation of each document as a
``CorpusStructureError``: dangling heads, head chains that never reach the
sentence root (cycles, head-less sentences), non-increasing ids and gold
antecedents that do not precede their phrase.

Parsing is a stream: each document is checked and handed on before the
next one is read, and ``parse_corpus`` collects them into a list.  Documents
are immutable once parsed; any number of readers may share them.  Within
one parse, equal field values (surface, lemma, part of speech, subtype,
clause role, referential property) are one shared string object, which is
sound because strings are immutable.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from itertools import takewhile
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple, Optional

from ._frozen import reduce_by_fields

PARTICLES = frozenset(
    "wa ga wo ni niwa mo da nara koso he de kara yori no".split())
NOUN_SUBTYPES = frozenset(
    "common verbal adjectival numeral temporal relational pronoun zero_pronoun".split())
CLAUSE_ROLES = frozenset({"subject_main", "subject_subordinate", "other"})
REF_PROPERTIES = frozenset({"definite", "indefinite", "generic", "auto"})
ZERO_PRONOUN_PARTICLES = frozenset({"ga", "wa", "wo", "ni", "kara"})

_PUNCT_MAP = {",": "comma", "、": "comma", ".": "period", "。": "period"}
_PUNCT_OUT = {"comma": ",", "period": "."}

NONE_MARKER = "NONE"

# The field separator and every character ``str.splitlines`` ends a line at.
_UNWRITABLE = re.compile("[\t\n\x0b\x0c\r\x1c-\x1e\x85\u2028\u2029]")


class CorpusFormatError(ValueError):
    """A line of the corpus file does not match the record format."""


class CorpusStructureError(ValueError):
    """Records are well formed but reference each other inconsistently."""


class GoldAntecedent(NamedTuple):
    """One annotated antecedent: ``antecedent_id`` is None for the NONE marker."""
    label: Optional[str]
    antecedent_id: Optional[int]


@dataclass(frozen=True, slots=True)
class Phrase:
    id: int
    surface: str
    lemma: str
    pos: str
    noun_subtype: Optional[str]          # None for non-nominal phrases
    particles: tuple[str, ...]
    punct_after: Optional[str]           # "comma" | "period" | None
    head_id: Optional[int]               # None for the sentence root
    clause_role: str                     # "subject_main" | "subject_subordinate" | "other"
    sem_codes: tuple[str, ...]
    ref_property: str                    # "definite" | "indefinite" | "generic" | "auto"
    gold_antecedents: tuple[GoldAntecedent, ...]

    def is_zero_pronoun(self) -> bool:
        return self.noun_subtype == "zero_pronoun"

    def is_noun(self) -> bool:
        return self.pos == "noun"


@dataclass(frozen=True, slots=True)
class Sentence:
    index: int
    phrases: tuple[Phrase, ...]


@dataclass(frozen=True)
class Discourse:
    doc_id: str
    sentences: tuple[Sentence, ...]
    _by_id: Mapping[int, tuple[Phrase, Sentence]] = field(
        init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        index = {}
        for sent in self.sentences:
            for p in sent.phrases:
                index[p.id] = (p, sent)
        object.__setattr__(self, "_by_id", MappingProxyType(index))

    __reduce__ = reduce_by_fields

    def phrases(self) -> Iterator[Phrase]:
        for sent in self.sentences:
            yield from sent.phrases

    def phrase(self, phrase_id: int) -> Phrase:
        try:
            return self._by_id[phrase_id][0]
        except KeyError:
            raise KeyError(f"no phrase with id {phrase_id} in document {self.doc_id!r}")

    def sentence_of(self, phrase_id: int) -> Sentence:
        return self._by_id[phrase_id][1]

    def has_phrase(self, phrase_id: int) -> bool:
        return phrase_id in self._by_id

    def preceding(self, phrase_id: int) -> Iterator[Phrase]:
        """Phrases strictly before the given one, in document order."""
        return takewhile(lambda p: p.id < phrase_id, self.phrases())


def _doc_id_fault(doc_id: str) -> Optional[str]:
    """Why ``#DOC <id>`` and a predictions line cannot carry the id, or None.

    The id must be one token, without surrounding whitespace, and must not
    open with ``%``, which would make its predictions line a comment.
    """
    if doc_id.split() != [doc_id]:
        return "must be one token"
    if doc_id.startswith("%"):
        return "must not start with '%'"
    return None


def _check_anaphor(d: Discourse, anaphor: Phrase) -> None:
    """Raise ValueError unless the anaphor is the document's own phrase."""
    if not d.has_phrase(anaphor.id) or d.phrase(anaphor.id) != anaphor:
        raise ValueError(f"anaphor {anaphor.id} is not part of document {d.doc_id!r}")


def _split_list(value: str) -> tuple[str, ...]:
    if value in ("-", ""):
        return ()
    return tuple(item for item in value.split(",") if item)


def _parse_gold(value: str, lineno: int) -> tuple[GoldAntecedent, ...]:
    gold = []
    for item in value.split(","):
        if not item.startswith("rel="):
            raise CorpusFormatError(
                f"line {lineno}: field 'gold': expected rel=... item, got {item!r}")
        body = item[4:]
        if body == NONE_MARKER:
            gold.append(GoldAntecedent(None, None))
            continue
        if ":" not in body:
            raise CorpusFormatError(
                f"line {lineno}: field 'gold': missing ':' in {item!r}")
        label, _, target = body.partition(":")
        if target == NONE_MARKER:
            gold.append(GoldAntecedent(label, None))
        else:
            try:
                gold.append(GoldAntecedent(label, int(target)))
            except ValueError:
                raise CorpusFormatError(
                    f"line {lineno}: field 'gold': bad antecedent id {target!r}") from None
    return tuple(gold)


# The slot descriptors of Phrase.  ``_parse_record`` sets them directly,
# skipping the frozen ``__init__``'s one ``object.__setattr__`` per field.
_new_object = object.__new__
_set_id = Phrase.id.__set__
_set_surface = Phrase.surface.__set__
_set_lemma = Phrase.lemma.__set__
_set_pos = Phrase.pos.__set__
_set_noun_subtype = Phrase.noun_subtype.__set__
_set_particles = Phrase.particles.__set__
_set_punct_after = Phrase.punct_after.__set__
_set_head_id = Phrase.head_id.__set__
_set_clause_role = Phrase.clause_role.__set__
_set_sem_codes = Phrase.sem_codes.__set__
_set_ref_property = Phrase.ref_property.__set__
_set_gold_antecedents = Phrase.gold_antecedents.__set__


def _parse_record(line: str, lineno: int, split_list: Callable[[str], tuple[str, ...]],
                  sound: set[tuple], same: Callable[[str, str], str]) -> Phrase:
    """One phrase record.

    ``split_list`` is ``_split_list`` memoised by raw string, ``sound``
    holds the shapes of own fields that passed ``_field_faults``, and
    ``same(value, value)`` returns the first equal string seen; all three
    last one parse.
    """
    fields = line.split("\t")
    if len(fields) != 11:
        raise CorpusFormatError(
            f"line {lineno}: expected 11 tab-separated fields, got {len(fields)}")
    (raw_id, surface, lemma, pos, subtype, particles, head,
     clause_role, sem_codes, refprop, gold) = fields

    try:
        phrase_id = int(raw_id)
    except ValueError:
        raise CorpusFormatError(f"line {lineno}: field 'id': not an integer: {raw_id!r}") from None

    punct_after = None
    if surface and surface[-1] in _PUNCT_MAP:
        punct_after = _PUNCT_MAP[surface[-1]]
        surface = surface[:-1]
    if surface == "*":
        surface = ""
    if lemma == "-":
        lemma = ""

    if head == "-":
        head_id = None
    else:
        try:
            head_id = int(head)
        except ValueError:
            raise CorpusFormatError(f"line {lineno}: field 'head': not an integer: {head!r}") from None

    phrase = _new_object(Phrase)
    _set_id(phrase, phrase_id)
    _set_surface(phrase, same(surface, surface))
    _set_lemma(phrase, same(lemma, lemma))
    _set_pos(phrase, same(pos, pos))
    _set_noun_subtype(phrase, None if subtype == "-" else same(subtype, subtype))
    _set_particles(phrase, split_list(particles))
    _set_punct_after(phrase, punct_after)
    _set_head_id(phrase, head_id)
    _set_clause_role(phrase, "other" if clause_role == "-" else same(clause_role, clause_role))
    _set_sem_codes(phrase, split_list(sem_codes))
    _set_ref_property(phrase, "auto" if refprop == "-" else same(refprop, refprop))
    _set_gold_antecedents(phrase, () if gold == "-" else _parse_gold(gold, lineno))
    # Everything _field_faults reads but the field text, which a split line
    # cannot give a tab or line break and which the reading above never
    # leaves a marker or a separator, and the gold items, since _parse_gold
    # cuts labels at ',' and ':' and reads no id without a label; a shape
    # that faulted is never added.
    shape = pos, subtype, particles, clause_role, refprop, not surface
    if shape not in sound:
        for name, message in _field_faults(phrase):
            raise CorpusFormatError(f"line {lineno}: field '{name}': {message}")
        sound.add(shape)
    return phrase


def _field_faults(p: Phrase) -> Iterator[tuple[str, str]]:
    """The rules on a phrase's own fields: (ADC field, message) per violation."""
    if p.pos in ("", "-"):
        yield "pos", "missing"
    if p.noun_subtype is not None and p.noun_subtype not in NOUN_SUBTYPES:
        yield "subtype", f"unknown noun subtype {p.noun_subtype!r}"
    elif p.pos == "noun" and p.noun_subtype is None:
        yield "subtype", "noun phrases need a subtype"
    for particle in p.particles:
        if particle not in PARTICLES:
            yield "particles", f"unknown particle {particle!r}"
    if p.is_zero_pronoun():
        if p.surface:
            yield "surface", "zero pronoun must use surface '*'"
        if not p.particles or any(x not in ZERO_PRONOUN_PARTICLES for x in p.particles):
            yield "particles", ("zero pronoun needs a particle from "
                                f"{sorted(ZERO_PRONOUN_PARTICLES)}")
    if p.clause_role not in CLAUSE_ROLES:
        yield "clause_role", f"unknown clause role {p.clause_role!r}"
    if p.ref_property not in REF_PROPERTIES:
        yield "refprop", f"unknown referential property {p.ref_property!r}"
    for name, text in (("surface", p.surface), ("lemma", p.lemma), ("pos", p.pos),
                       ("sem_codes", "".join(p.sem_codes)),
                       ("gold", "".join(g.label or "" for g in p.gold_antecedents))):
        unwritable = _UNWRITABLE.search(text)
        if unwritable:
            yield name, f"holds {unwritable.group()!r}, which no field can carry"
    # Text the reader takes for a marker or a separator.
    if p.lemma == "-":
        yield "lemma", "'-' reads back as no lemma"
    if p.surface == "*" and not p.is_zero_pronoun():
        yield "surface", "'*' reads back as a zero pronoun's empty surface"
    if p.punct_after is None and p.surface[-1:] in _PUNCT_MAP:
        yield "surface", f"ends in {p.surface[-1]!r}, which reads back as punctuation after it"
    if p.sem_codes == ("-",):
        yield "sem_codes", "'-' reads back as no codes"
    for code in p.sem_codes:
        if "," in code or not code:
            yield "sem_codes", f"code {code!r} does not read back as one code"
    # A gold item is written as rel=<label>:<id>, rel=<label>:NONE or rel=NONE.
    for label, antecedent in p.gold_antecedents:
        if label is None and antecedent is not None:
            yield "gold", f"antecedent {antecedent} has no label"
        elif label is not None and (":" in label or "," in label):
            yield "gold", f"label {label!r} holds ':' or ',', which separate gold items"


def parse_corpus(text: str) -> list[Discourse]:
    """Parse ADC text into a list of documents."""
    return list(_parse_stream(text))


def _parse_stream(text: str) -> Iterator[Discourse]:
    """The documents of ADC text, each yielded once it is parsed and checked.

    A document is yielded before the next one is read, so a caller that
    keeps only what it needs of each holds one document at a time.
    """
    doc_id: Optional[str] = None
    sentences: list[list[Phrase]] = []
    current: Optional[list[Phrase]] = None      # the open sentence's phrases
    split_list = functools.cache(_split_list)
    sound: set[tuple] = set()
    same = {}.setdefault

    # Lines are popped off the reversed list, so each is freed once read;
    # the text itself is freed once split, when no caller holds it.
    lines = text.splitlines()
    del text
    lines.reverse()
    pop = lines.pop
    lineno = 0
    while lines:
        line = pop()
        lineno += 1
        # A line opening with a digit inside a sentence can only be a record.
        if current is not None and line[:1].isdigit():
            current.append(_parse_record(line, lineno, split_list, sound, same))
            continue
        if not line.strip() or line.startswith("%"):
            continue
        directive = line.split(None, 1)[0] if line.startswith("#") else None
        if directive == "#DOC":
            if doc_id is not None:
                yield _document(doc_id, sentences)
            sentences, current = [], None
            doc_id = line[len("#DOC"):].strip()
            if not doc_id:
                raise CorpusFormatError(f"line {lineno}: #DOC needs a document id")
            fault = _doc_id_fault(doc_id)
            if fault:
                raise CorpusFormatError(f"line {lineno}: #DOC id {fault}, got {doc_id!r}")
            continue
        if directive == "#SENT":
            if doc_id is None:
                raise CorpusFormatError(f"line {lineno}: #SENT before any #DOC")
            parts = line.split()
            if len(parts) != 2:
                raise CorpusFormatError(f"line {lineno}: #SENT needs an index")
            try:
                index = int(parts[1])
            except ValueError:
                raise CorpusFormatError(
                    f"line {lineno}: #SENT index not an integer: {parts[1]!r}") from None
            if index != len(sentences):
                raise CorpusFormatError(
                    f"line {lineno}: #SENT {index} out of order, "
                    f"expected {len(sentences)}")
            current = []
            sentences.append(current)
            continue
        if directive is not None:
            raise CorpusFormatError(f"line {lineno}: unknown directive {directive!r}")
        if current is None:
            raise CorpusFormatError(
                f"line {lineno}: phrase record outside of a #DOC/#SENT block")
        current.append(_parse_record(line, lineno, split_list, sound, same))

    if doc_id is not None:
        yield _document(doc_id, sentences)


def _document(doc_id: str, sentences: list[list[Phrase]]) -> Discourse:
    """The document whose sentences hold these phrases, once its structure is checked."""
    document = Discourse(doc_id=doc_id, sentences=tuple(
        Sentence(index=index, phrases=tuple(phrases))
        for index, phrases in enumerate(sentences)))
    violations = _structure_violations(document)
    if violations:
        raise CorpusStructureError(f"document {doc_id!r}: {violations[0]}")
    return document


def parse_discourse(text: str) -> Discourse:
    """Parse ADC text that contains exactly one document."""
    documents = parse_corpus(text)
    if len(documents) != 1:
        raise CorpusFormatError(
            f"expected exactly one document, found {len(documents)}")
    return documents[0]


def _format_gold(gold: tuple[GoldAntecedent, ...]) -> str:
    if not gold:
        return "-"
    items = []
    for label, antecedent in gold:
        if label is None and antecedent is None:
            items.append("rel=NONE")
        elif antecedent is None:
            items.append(f"rel={label}:{NONE_MARKER}")
        else:
            items.append(f"rel={label}:{antecedent}")
    return ",".join(items)


def _format_record(p: Phrase) -> str:
    surface = p.surface if p.surface else ("*" if p.is_zero_pronoun() else p.surface)
    if p.punct_after:
        surface += _PUNCT_OUT[p.punct_after]
    return "\t".join([
        str(p.id),
        surface,
        p.lemma or "-",
        p.pos,
        p.noun_subtype or "-",
        ",".join(p.particles) or "-",
        "-" if p.head_id is None else str(p.head_id),
        p.clause_role if p.clause_role != "other" else "-",
        ",".join(p.sem_codes) or "-",
        p.ref_property if p.ref_property != "auto" else "-",
        _format_gold(p.gold_antecedents),
    ])


def serialize_discourse(d: Discourse) -> str:
    lines = [f"#DOC {d.doc_id}"]
    for sent in d.sentences:
        lines.append(f"#SENT {sent.index}")
        lines.extend(_format_record(p) for p in sent.phrases)
    return "\n".join(lines) + "\n"


def serialize_corpus(documents: list[Discourse]) -> str:
    return "".join(serialize_discourse(d) for d in documents)


def validate_discourse(d: Discourse) -> list[str]:
    """Return a list of invariant violations; empty when the document is sound."""
    fault = _doc_id_fault(d.doc_id)
    violations = [f"document id {fault}, got {d.doc_id!r}"] if fault else []
    violations += [f"phrase {p.id}: {message}"
                   for p in d.phrases() for _, message in _field_faults(p)]
    return violations + _structure_violations(d)


def _structure_violations(d: Discourse) -> list[str]:
    """The rules on how a document's phrases fit together."""
    violations: list[str] = []
    for expected, sent in enumerate(d.sentences):
        if sent.index != expected:
            violations.append(
                f"sentence {sent.index}: indices must be contiguous from 0 "
                f"(expected {expected})")

    ids = [p.id for sent in d.sentences for p in sent.phrases]
    for previous_id, phrase_id in zip(ids, ids[1:]):
        if phrase_id <= previous_id:
            violations.append(
                f"phrase {phrase_id}: ids must strictly increase in document order")

    for sent in d.sentences:
        heads = {p.id: p.head_id for p in sent.phrases}
        ended: set[int] = set()     # ids whose chain through heads ends
        roots = [p for p in sent.phrases if p.head_id is None]
        if sent.phrases and len(roots) > 1:
            violations.append(
                f"sentence {sent.index}: more than one head-less phrase")
        for p in sent.phrases:
            if p.head_id is not None and p.head_id not in heads:
                violations.append(
                    f"phrase {p.id}: dangling head {p.head_id} "
                    f"(heads must stay within sentence {sent.index})")
            # A chain longer than the sentence has entered a cycle; one that
            # leaves the sentence is the dangling head reported above.  The
            # walk stops at a phrase whose chain is known to end, and marks
            # the phrases it passed when its own chain ends.
            head, walked = p.head_id, []
            while head in heads and head not in ended:
                if len(walked) > len(heads):
                    violations.append(
                        f"phrase {p.id}: head chain never reaches the root of "
                        f"sentence {sent.index}")
                    break
                walked.append(head)
                head = heads[head]
            else:
                ended.update(walked)
            for gold in p.gold_antecedents:
                if gold.antecedent_id is None:
                    continue
                if not d.has_phrase(gold.antecedent_id):
                    violations.append(
                        f"phrase {p.id}: gold antecedent {gold.antecedent_id} does not exist")
                elif gold.antecedent_id >= p.id:
                    violations.append(
                        f"phrase {p.id}: gold antecedent {gold.antecedent_id} "
                        f"does not precede the phrase")
    return violations
