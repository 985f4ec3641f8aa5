"""Rule-based selection of bridging antecedents.

For each anaphora target the resolver collects scored proposals from six
rules (R1..R6) and picks the candidate with the maximum summed score:

* R1: a definite noun phrase repeats an earlier lemma -> that phrase, fixed
  points (direct anaphora).
* R2/R3: a generic/indefinite phrase may simply have no antecedent -> a
  pseudo candidate with fixed points.
* R4 (plain nouns): every earlier topic/focus gets ``weight - distance +
  definiteness + similarity``, where similarity compares the candidate with
  the modifiers observed in "X no Y" examples for the anaphor; subjects on
  the anaphor's clause chain get ``subject_base + definiteness + similarity``
  instead.
* R5 (verbal nouns, one pass per case slot): like R4 but candidates must
  satisfy the slot of the verb's case frame, which also supplies the
  similarity score.
* R6 (relational nouns such as ichibu/tonari/betsu): when the noun modifies
  X with "no", earlier phrases repeating X get fixed points; when it fills a
  case slot of its governing verb, that slot is consulted as in R5.

Zero pronouns hold salience slots (they lengthen distances) but are never
proposed as antecedents, and phrases scored through the subject path do not
get a second topic/focus proposal.

``resolve_discourse`` reads a document once, scoring each phrase from a
record of the text before it; ``resolve`` builds that record for one
anaphor.  The pass is the generator ``_resolve_stream``, which yields each
target's result as soon as it is resolved; ``resolve_discourse`` lists it.
The paper's R4/R5 score every earlier topic and focus, but a winner is
picked from few of them: each kind's entries are scanned newest first, and
the scan stops once an entry's bound (the kind's top weight and the top
similarity, less its distance) cannot beat the best total so far.  Earlier
mentions of a repeated lemma score R1's fixed points alone unless they are
on the subject path or salience entries, so only the newest such mention
can win.  A target's cost thus grows with the candidates that can still
win, not with the text before it.  Every candidate's total and the
``Proposal`` objects behind them are built only when a result's
``all_scores`` or ``proposals`` are first read, as ``bridgeref explain``
does and ``bridgeref resolve`` never does; the command line reads the
stream and keeps only what it prints, so its memory grows with the document.

What depends only on the lexicons and the config (target modes, salience
classes, the R4/R5 score rules and their scores) is held by one ``_Run``
for as long as the same ``LexiconSet`` and ``ResolverConfig`` objects are
passed, so a run over many documents computes each of them once, and
builds each source's scorer once.  Both objects are immutable, which makes
its caches sound.  They are keyed by lemmas, particles and case slots of
nouns alone, since no other phrase is a target or a salience entry, and
never hold a phrase, a document or a position in one.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Optional, Union

from .config import ConfigError, ResolverConfig
from .corpus import Discourse, Phrase, _check_anaphor, _new_object
from .lexicons import (
    SURFACE_CASES,
    CaseSlot,
    LexiconSet,
    VerbCaseFrame,
    lookup_case_frame,
    satisfies_constraint,
    similarity_level,
    similarity_score,
    xnoy_modifier_set,
)
from .salience import PRONOUN_LIKE, classify_salience, default_rows

# Target modes.
VERBAL = "VERBAL"
RELATIONAL = "RELATIONAL"
NOMINAL = "NOMINAL"
SKIP = "SKIP"

# Pseudo candidates for "no indirect antecedent".
PSEUDO_INDEFINITE = "INDEFINITE"
PSEUDO_GENERIC = "GENERIC"

Candidate = Union[int, str]   # phrase id, or a pseudo candidate marker

_SUBJECT_ROLES = frozenset({"subject_main", "subject_subordinate"})
_SLOT_PARTICLES = {**{case: case for case in SURFACE_CASES}, "niwa": "ni"}
_NOT_A_TARGET = SKIP, None, (None,)


@dataclass(frozen=True, slots=True)
class ScoreBreakdown:
    """Score components of one salience or subject proposal."""
    definiteness: int
    similarity: int
    weight: Optional[int] = None      # topic/focus weight, salience path only
    dist: Optional[int] = None        # backward rank, salience path only
    base: Optional[int] = None        # fixed base, subject path only


@dataclass(frozen=True, slots=True)
class Proposal:
    candidate: Candidate
    points: int
    rule: str                          # "R1".."R6"
    breakdown: Optional[ScoreBreakdown] = None


@dataclass(frozen=True, slots=True)
class Target:
    phrase_id: int
    mode: str                          # VERBAL | RELATIONAL | NOMINAL | SKIP
    slot: Optional[str] = None         # surface case, VERBAL targets only


@dataclass(frozen=True, slots=True)
class ResolutionResult:
    """The outcome of one target: the winner and its total, every
    candidate's total, and the proposals those totals add up.

    ``winner``, ``total`` and ``direct`` are decided when the target is
    resolved.  ``all_scores`` and ``proposals`` are built together, by one
    pending call fixed then, the first time either is read, under a lock,
    and kept: reads from any thread see one dict and one tuple that never
    change, and ``repr``, equality, copying and pickling see them as
    ordinary fields.
    """
    anaphor_id: int
    slot: Optional[str]
    winner: Optional[Candidate]        # None when no rule proposed anything
    total: int
    all_scores: dict[Candidate, int]
    proposals: tuple[Proposal, ...]
    direct: bool                       # winner carried a repeated-mention proposal


def _build_scores(config: ResolverConfig, prop: str, p_score: int, r1: list, r1_count: int,
                  r6: list, r6_count: int, rule: str, score: Optional[Callable],
                  subjects: list, entries: list, count: int
                  ) -> tuple[dict[Candidate, int], tuple[Proposal, ...]]:
    """A result's ``all_scores`` and ``proposals``, in proposal order.

    R1 and R6 propose the first ``r1_count`` and ``r6_count`` of their
    nouns; with a ``score``, R4/R5 propose the subject path, as (phrase,
    similarity) pairs, and the first ``count`` salience entries, as they
    were when the target was resolved: the sweep's lists only grow.  An
    entry's distance follows from the count of its kind in that prefix; an
    entry with no weight, a zero pronoun, is counted and never proposed.
    """
    proposals = [Proposal(p.id, config.identity_points, "R1") for p in islice(r1, r1_count)]
    proposals += propose_no_antecedent(prop, config)
    proposals += [Proposal(p.id, config.relational_points, "R6") for p in islice(r6, r6_count)]
    if score is not None:
        append, base = proposals.append, config.subject_base
        subject_ids = set()
        for phrase, sim in subjects:
            subject_ids.add(phrase.id)
            if sim is not None:
                append(Proposal(phrase.id, base + p_score + sim, rule,
                                ScoreBreakdown(p_score, sim, base=base)))
        entries = entries[:count]
        counts = {kind: index + 1 for _, kind, _, index in entries}   # last index + 1
        for phrase, kind, weight, index in entries:
            if (weight is None or phrase.id in subject_ids
                    or (sim := score(phrase)) is None):
                continue
            dist = counts[kind] - index
            append(Proposal(phrase.id, weight - dist + p_score + sim, rule,
                            ScoreBreakdown(p_score, sim, weight, dist)))
    totals: dict[Candidate, int] = {}
    for proposal in proposals:
        totals[proposal.candidate] = totals.get(proposal.candidate, 0) + proposal.points
    return totals, tuple(proposals)


class _BuiltOnFirstRead:
    """``ResolutionResult.all_scores`` or ``.proposals``: the field's slot,
    which holds the result's pending ``_build_scores`` call, a ``partial``,
    until the first read of either field stores what it returns in both."""

    __slots__ = ("slot", "index")

    def __init__(self, slot, index: int) -> None:
        self.slot, self.index = slot, index

    def __get__(self, result, owner=None):
        if result is None:
            return self
        value = self.slot.__get__(result)
        if type(value) is partial:
            with _build_lock:
                value = self.slot.__get__(result)
                if type(value) is partial:
                    built = value()
                    for slot, part in zip(_LAZY_SLOTS, built):
                        slot.__set__(result, part)
                    value = built[self.index]
        return value

    def __set__(self, result, value) -> None:
        self.slot.__set__(result, value)


# ResolutionResult's slot setters: ``_Sweep.resolve`` calls them directly,
# skipping the frozen ``__init__``'s one ``object.__setattr__`` per field.
(_set_anaphor_id, _set_slot, _set_winner, _set_total, _set_all_scores, _set_proposals,
 _set_direct) = (getattr(ResolutionResult, name).__set__ for name in ResolutionResult.__slots__)
_build_lock = threading.Lock()
_LAZY_SLOTS = ResolutionResult.all_scores, ResolutionResult.proposals
ResolutionResult.all_scores = _BuiltOnFirstRead(_LAZY_SLOTS[0], 0)
ResolutionResult.proposals = _BuiltOnFirstRead(_LAZY_SLOTS[1], 1)


# Shared by every call that passes no config, so those calls share caches too.
_DEFAULT_CONFIG = ResolverConfig.default()


def referential_property(
    p: Phrase,
    d: Discourse,
    config: Optional[ResolverConfig] = None,
) -> tuple[str, int]:
    """Referential property of a phrase and its definiteness score.

    Annotated values win; ``auto`` falls back to a surface heuristic: a
    demonstrative modifier or an earlier mention of the same lemma suggests
    definite, anything else indefinite.  The phrase must be the document's own.
    """
    _check_anaphor(d, p)
    earlier = {q.lemma for q in d.preceding(p.id) if q.lemma}
    return _referential_property(p, earlier, config or _DEFAULT_CONFIG)


def _referential_property(p: Phrase, earlier_lemmas: set[str],
                          config: ResolverConfig) -> tuple[str, int]:
    """``referential_property`` given the non-empty lemmas before the phrase."""
    prop = p.ref_property
    if prop == "auto":
        tokens = p.surface.split()
        demonstrative = bool(tokens) and tokens[0] in ("kono", "sono", "ano")
        prop = "definite" if demonstrative or p.lemma in earlier_lemmas else "indefinite"
    return prop, config.definiteness[prop]


def _classify_target(phrase: Phrase, lex: LexiconSet
                     ) -> tuple[str, Optional[VerbCaseFrame], tuple[Optional[str], ...]]:
    """Mode of one phrase, the case frame of verbal targets, and its slots.

    A verbal target has one slot per surface case of its frame; any other
    phrase has the single slot None.
    """
    if not phrase.is_noun() or phrase.noun_subtype in PRONOUN_LIKE:
        return _NOT_A_TARGET
    if phrase.noun_subtype == "verbal":
        frame = lookup_case_frame(phrase.lemma, lex.case_frames)
        if frame is not None:
            return VERBAL, frame, frame.surface_cases()
    if phrase.noun_subtype == "relational" or lex.attrs.has(phrase.lemma, "relational"):
        return RELATIONAL, None, (None,)
    if xnoy_modifier_set(phrase.lemma, lex.xnoy, lex.attrs):
        return NOMINAL, None, (None,)
    return _NOT_A_TARGET


def detect_targets(d: Discourse, lex: LexiconSet) -> list[Target]:
    """Classify every noun phrase; verbal nouns yield one target per case slot."""
    targets: list[Target] = []
    for phrase in d.phrases():
        if not phrase.is_noun():
            continue
        mode, _, slots = _classify_target(phrase, lex)
        targets.extend(Target(phrase.id, mode, slot) for slot in slots)
    return targets


def _head_chain(anaphor: Phrase, d: Discourse) -> Iterator[Phrase]:
    """The phrases the anaphor transitively attaches to, nearest first.

    A chain still short of a root after as many steps as the sentence has
    phrases loops or leaves the sentence, which only a document built in
    code and never validated can do; it raises ``ValueError``.
    """
    sentence = d.sentence_of(anaphor.id)
    head = anaphor.head_id
    for _ in range(len(sentence.phrases)):
        if head is None:
            return
        phrase = d.phrase(head)
        yield phrase
        head = phrase.head_id
    raise ValueError(f"document {d.doc_id!r}: phrase {anaphor.id}: head chain never "
                     f"reaches the root of sentence {sentence.index}")


def _check_depths(lex: LexiconSet, config: ResolverConfig) -> None:
    """Reject a lexicon code longer than the similarity table's top level.

    A literal example scores at ``max_depth``, so that must fit as well, and
    no thesaurus code is longer than ``max_depth``; the thesaurus is scanned
    only to name the lemma of a deeper code.
    """
    top = max(config.similarity_table)
    faults = []
    if lex.thesaurus.max_depth > top:
        faults = [f"thesaurus.tsv: lemma {lemma!r} has code {code}"
                  for lemma, codes in lex.thesaurus.codes.items()
                  for code in codes if len(code) > top]
        faults.append(f"thesaurus max_depth {lex.thesaurus.max_depth}")
    faults += [f"caseframes.txt: verb {verb!r} has code {code}"
               for verb, frame in lex.case_frames.frames.items()
               for slot in frame.slots for code in slot.constraints if len(code) > top]
    if faults:
        raise ConfigError(f"{faults[0]}, deeper than the similarity table (levels 0..{top})")


class _Run:
    """What the resolver derives from one lexicon set and one config alone."""

    __slots__ = ("lex", "config", "rows", "ceilings", "targets", "salience", "scores")

    def __init__(self, lex: LexiconSet, config: ResolverConfig) -> None:
        _check_depths(lex, config)
        self.lex, self.config = lex, config
        self.rows = default_rows() + config.extra_weight_rows   # salience weight rows
        # kind -> the most an entry of the kind can score before its distance
        # and definiteness: its top weight plus the top similarity score.
        top_sim = max(config.similarity_table.values())
        self.ceilings = {kind: top_sim + max(row.weight for row in self.rows if row.kind == kind)
                         for kind in {row.kind for row in self.rows}}
        # (pos, noun_subtype, lemma) of a noun -> _classify_target's mode, frame, slots
        self.targets: dict[tuple, tuple] = {}
        # (pos, noun_subtype, particles, punct_after) of a noun -> (kind, weight) or None
        self.salience: dict[tuple, Optional[tuple[str, int]]] = {}
        # anaphor lemma (R4) or case slot (R5) -> its scorer, which keeps its own cache
        self.scores: dict[object, Callable[[Phrase], Optional[int]]] = {}

    def target(self, phrase: Phrase
               ) -> tuple[str, Optional[VerbCaseFrame], tuple[Optional[str], ...]]:
        if phrase.pos != "noun":
            return _NOT_A_TARGET
        key = phrase.pos, phrase.noun_subtype, phrase.lemma
        found = self.targets.get(key)
        if found is None:
            found = self.targets[key] = _classify_target(phrase, self.lex)
        return found

    def scorer(self, source: Union[str, CaseSlot]) -> Callable[[Phrase], Optional[int]]:
        """A candidate's similarity score for one source, or None to exclude it.

        An anaphor lemma scores by R4's "X no Y" similarity, a case slot by
        R5's constraint.  Each source's scorer is built once per run.
        """
        found = self.scores.get(source)
        if found is not None:
            return found
        lex, config, cache = self.lex, self.config, {}

        def score(candidate: Phrase) -> Optional[int]:
            key = candidate.lemma, candidate.sem_codes
            if key not in cache:
                if isinstance(source, CaseSlot):
                    ok, sim = satisfies_constraint(
                        candidate, source, lex.thesaurus, config.similarity_table,
                        config.example_match_min_level)
                    cache[key] = sim if ok else None
                else:
                    best = max((similarity_level(candidate.lemma, x, lex.thesaurus)
                                for x in xnoy_modifier_set(source, lex.xnoy, lex.attrs)),
                               default=0)
                    cache[key] = similarity_score(best, config.similarity_table)
            return cache[key]

        self.scores[source] = score
        return score


# The run of the last pair passed.  Its strong references keep the lexicon
# set and the config, and so their ids, alive while it is held.
_run: Optional[_Run] = None


def _run_caches(lex: LexiconSet, config: ResolverConfig) -> _Run:
    """The run of this lexicon set and config, new unless both were the last pair."""
    global _run
    run = _run
    if run is None or run.lex is not lex or run.config is not config:
        run = _run = _Run(lex, config)
    return run


# R2/R3: generic and indefinite phrases may lack an antecedent.
_PSEUDO = {"generic": (PSEUDO_GENERIC, "R2"), "indefinite": (PSEUDO_INDEFINITE, "R3")}


def propose_no_antecedent(prop: str, config: ResolverConfig) -> list[Proposal]:
    """R2/R3: generic and indefinite phrases may lack an antecedent."""
    pseudo = _PSEUDO.get(prop)
    return [] if pseudo is None else [Proposal(pseudo[0], config.pseudo_points, pseudo[1])]


def _genitive_head(anaphor: Phrase, d: Discourse) -> Optional[Phrase]:
    """The noun the anaphor modifies via "no", if any."""
    if "no" not in anaphor.particles or anaphor.head_id is None:
        return None
    head = d.phrase(anaphor.head_id)
    return head if head.is_noun() else None


def _governing_slot(anaphor: Phrase, d: Discourse, lex: LexiconSet) -> Optional[CaseSlot]:
    """The slot the anaphor fills in the case frame of its governing verb."""
    verb = next((p for p in _head_chain(anaphor, d) if p.pos == "verb"), None)
    frame = lookup_case_frame(verb.lemma, lex.case_frames) if verb is not None else None
    if frame is None:
        return None
    if anaphor.clause_role in _SUBJECT_ROLES:
        return frame.slot("ga")
    case = next((_SLOT_PARTICLES[x] for x in anaphor.particles if x in _SLOT_PARTICLES),
                None)
    return frame.slot(case) if case is not None else None


_UNSEEN = object()


class _Sweep:
    """What one document holds before the phrase being resolved.

    Phrases are added in document order, and every list here only grows,
    so a pending result can hold a list and its length.  ``add`` says once
    what each rule reads about a phrase.  A candidate is a noun that is not
    a zero pronoun; only candidates are mentions (R1, R6) and subjects, which
    are filed under their head's id.  Every phrase of a salience kind is an
    entry of that kind, a zero pronoun with weight None, so an entry's
    distance is its kind list's length less its index.  Salience classes
    and scores come from the run the sweep is built with, so a sweep never
    mixes the caches of two configs.
    """

    def __init__(self, d: Discourse, run: _Run):
        self.d, self.run = d, run
        self.classes, self.rows = run.salience, run.rows
        # (phrase, kind, weight, index in its kind's list) of every salience
        # entry: in document order, and per kind.
        self.entries: list[tuple[Phrase, str, Optional[int], int]] = []
        self.kinds: dict[str, list[tuple[Phrase, str, Optional[int], int]]] = {}
        self.lemmas: set[str] = set()                   # non-empty lemmas so far
        self.nouns: dict[str, list[Phrase]] = {}        # lemma -> candidates
        self.subjects: dict[Optional[int], list[Phrase]] = {}   # head id -> candidates
        # (lemma, kind) -> those candidates that are entries of the kind; with
        # kind None, those that are no entry, as phrases.
        self.mentions: dict[tuple[str, Optional[str]], list] = {}

    def add(self, phrase: Phrase) -> None:
        if phrase.pos != "noun":   # no entry or candidate, but a lemma R1's test reads
            if phrase.lemma:
                self.lemmas.add(phrase.lemma)
            return
        shape = phrase.pos, phrase.noun_subtype, phrase.particles, phrase.punct_after
        classified = self.classes.get(shape, _UNSEEN)
        if classified is _UNSEEN:
            classified = self.classes[shape] = classify_salience(phrase, self.rows)
        candidate = phrase.noun_subtype != "zero_pronoun"
        entry = kind = None
        if classified is not None:
            kind, weight = classified
            entries = self.kinds.setdefault(kind, [])
            entry = phrase, kind, weight if candidate else None, len(entries)
            self.entries.append(entry)
            entries.append(entry)
        if phrase.lemma:
            self.lemmas.add(phrase.lemma)
        if candidate:
            if phrase.lemma:
                self.nouns.setdefault(phrase.lemma, []).append(phrase)
                self.mentions.setdefault((phrase.lemma, kind), []).append(entry or phrase)
            if phrase.clause_role in _SUBJECT_ROLES:
                self.subjects.setdefault(phrase.head_id, []).append(phrase)

    def resolve(self, anaphor: Phrase, mode: str, frame: Optional[VerbCaseFrame],
                slot: Optional[str]) -> ResolutionResult:
        """Decide the winner from the candidates that can still win.

        Each candidate's total is exact; a candidate is left out only when a
        bound shows that it scores below the best so far, or ties it and
        loses the tie-break.  ``all_scores`` and ``proposals`` are left to one
        ``_build_scores`` call, which the result holds until either is read.
        """
        run, config = self.run, self.run.config
        prop, p_score = _referential_property(anaphor, self.lemmas, config)
        identity = config.identity_points
        # R1's lemma: a definite anaphor that is not a verbal noun repeats it.
        lemma = (anaphor.lemma or None) if mode != VERBAL and prop == "definite" else None
        nouns = self.nouns.get(lemma, ())
        best, _ = _PSEUDO.get(prop, (None, None))
        total = 0 if best is None else config.pseudo_points

        def offer(phrase: Phrase, points: Optional[int]) -> None:
            """Keep the phrase if its total beats the best: score, real phrase, recency.

            ``points`` are what the rules but R1 give it, None for nothing.
            """
            nonlocal best, total
            if phrase.lemma == lemma:
                points = identity if points is None else identity + points
            elif points is None:
                return
            if (best is None or points > total
                    or points == total and (type(best) is not int or phrase.id > best)):
                best, total = phrase.id, points

        source, r6, score, subjects = None, (), None, ()
        if mode == NOMINAL:
            source = anaphor.lemma
        elif mode == VERBAL:
            source = frame.slot(slot)
        elif (modified := _genitive_head(anaphor, self.d)) is not None:
            r6 = self.nouns.get(modified.lemma, ())
        else:
            source = _governing_slot(anaphor, self.d, run.lex)

        if source is None:
            # R1 and R6 give every mention of their lemma the same points, so
            # only the newest can win; the lists are one when the lemmas are.
            if r6:
                offer(r6[-1], config.relational_points)
            if nouns and nouns is not r6:
                offer(nouns[-1], None)
        else:
            score = run.scorer(source)
            # The subjects of the anaphor's clause and of the clauses governing it.
            subjects = [(p, score(p)) for p in sorted(
                (p for head in _head_chain(anaphor, self.d)
                 for p in self.subjects.get(head.id, ())), key=lambda p: p.id)]
            skip = {p.id for p, _ in subjects}
            base = config.subject_base
            for p, sim in subjects:
                offer(p, None if sim is None else base + p_score + sim)

            def scan(entries: list, count: int, ceiling: int, floor: float) -> None:
                """Score entries of one kind newest first, while one can still win.

                An entry ``dist`` back scores at most ``ceiling - dist`` by
                R4/R5, or ``floor`` if that is more; the older entries score
                no more than the next one, and they lose its ties.
                """
                for phrase, _, weight, index in reversed(entries):
                    dist = count - index
                    bound = max(ceiling - dist, floor)
                    if best is not None and (bound < total or bound == total and
                                             type(best) is int and best > phrase.id):
                        return
                    if weight is None or phrase.id in skip:
                        continue
                    sim = score(phrase)
                    offer(phrase, None if sim is None else weight - dist + p_score + sim)

            ceilings = run.ceilings
            if lemma is not None:
                # A mention that is no entry scores exactly R1's points.
                for p in reversed(self.mentions.get((lemma, None), ())):
                    if p.id not in skip:
                        offer(p, None)
                        break
                # Mentions that are entries add R1's points to R4/R5's, or
                # score R1's alone where the case slot excludes them.
                floor = identity if isinstance(source, CaseSlot) else -math.inf
            for kind, entries in self.kinds.items():
                scan(entries, len(entries), ceilings[kind] + p_score, -math.inf)
                if lemma is not None:
                    scan(self.mentions.get((lemma, kind), ()), len(entries),
                         identity + ceilings[kind] + p_score, floor)

        pending = partial(_build_scores, config, prop, p_score, nouns, len(nouns), r6, len(r6),
                          "R5" if isinstance(source, CaseSlot) else "R4", score, subjects,
                          self.entries, len(self.entries))
        result = _new_object(ResolutionResult)
        _set_anaphor_id(result, anaphor.id)
        _set_slot(result, slot)
        _set_winner(result, best)
        _set_total(result, total)
        _set_all_scores(result, pending)
        _set_proposals(result, pending)
        _set_direct(result, lemma is not None and type(best) is int
                    and self.d.phrase(best).lemma == lemma)
        return result


def resolve(
    anaphor: Phrase,
    slot: Optional[str],
    d: Discourse,
    lex: LexiconSet,
    config: Optional[ResolverConfig] = None,
) -> ResolutionResult:
    """Score all candidates for one target and pick the best.

    Ties go to the most recent real candidate; pseudo candidates lose every
    tie against a real phrase.
    """
    run = _run_caches(lex, config or _DEFAULT_CONFIG)
    mode, frame, slots = run.target(anaphor)
    if mode == SKIP:
        raise ValueError(f"phrase {anaphor.id} is not an anaphora target")
    if slot not in slots:
        if mode == VERBAL:
            raise ValueError(
                f"verbal noun {anaphor.lemma!r} has no {slot!r} slot (has {slots})")
        raise ValueError(f"{mode} target does not take a case slot")
    _check_anaphor(d, anaphor)
    sweep = _Sweep(d, run)
    for phrase in d.preceding(anaphor.id):
        sweep.add(phrase)
    return sweep.resolve(anaphor, mode, frame, slot)


def _resolve_stream(d: Discourse, lex: LexiconSet,
                    config: ResolverConfig) -> Iterator[ResolutionResult]:
    """Each non-skipped target's result, in document order, as soon as it is resolved."""
    run = _run_caches(lex, config)
    sweep = _Sweep(d, run)
    target = run.target
    for phrase in d.phrases():
        mode, frame, slots = target(phrase)
        if mode != SKIP:
            for slot in slots:
                yield sweep.resolve(phrase, mode, frame, slot)
        sweep.add(phrase)


def resolve_discourse(
    d: Discourse,
    lex: LexiconSet,
    config: Optional[ResolverConfig] = None,
) -> list[ResolutionResult]:
    """Resolve every non-skipped target of a document, in document order."""
    return list(_resolve_stream(d, lex, config or _DEFAULT_CONFIG))
