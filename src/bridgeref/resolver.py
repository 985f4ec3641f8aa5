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
Each anaphor may score every earlier topic and focus, so a document's full
results grow with the square of its length; the command line reads the
stream and keeps only what it prints, so its memory grows with the document.
A candidate's points go straight into its target's totals.  The R4/R5
``Proposal`` objects behind them are built only when a result's
``proposals`` are first read, as ``bridgeref explain`` does and
``bridgeref resolve`` never does.

What depends only on the lexicons and the config (target modes, salience
classes, the R4/R5 score rules and their scores) is held by one ``_Run``
for as long as the same ``LexiconSet`` and ``ResolverConfig`` objects are
passed, so a run over many documents computes each of them once.  Both
objects are immutable, which makes its caches sound.  They are keyed by
lemmas, particles and case slots, and never hold a phrase, a document or a
position in one.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Optional, Union

from .config import ConfigError, ResolverConfig
from .corpus import Discourse, Phrase, _check_anaphor
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
    """The outcome of one target: every candidate's total, the winner, and
    the proposals those totals add up.

    The R4/R5 proposals of a result are built the first time ``proposals``
    is read, under a lock, and kept: reads from any thread see one tuple
    that never changes, and ``repr``, equality, copying and pickling see it
    as an ordinary field.
    """
    anaphor_id: int
    slot: Optional[str]
    winner: Optional[Candidate]        # None when no rule proposed anything
    total: int
    all_scores: dict[Candidate, int]
    proposals: tuple[Proposal, ...]
    direct: bool                       # winner carried a repeated-mention proposal


class _WeightedProposals:
    """A result's proposals, as held until they are first read.

    ``eager`` holds the proposals of R1-R3; the R4/R5 ones come from the
    target's subject path, as (phrase id, similarity) pairs, and from the
    first ``count`` salience entries of its sweep with their similarities.
    Both sweep lists only grow, so those items stay as they were when the
    target was resolved; ``counts`` is the count per kind of that moment.
    Nothing here refers to the sweep or the document.
    """

    __slots__ = ("eager", "rule", "p_score", "base", "subjects", "count", "counts",
                 "entries", "sims")

    def __init__(self, eager: tuple[Proposal, ...], rule: str, p_score: int, base: int,
                 subjects: list[tuple[int, Optional[int]]],
                 entries: list[tuple[Phrase, str, int, int]], counts: dict[str, int],
                 sims: list[Optional[int]]):
        self.eager, self.rule, self.p_score, self.base = eager, rule, p_score, base
        self.subjects, self.count, self.counts = subjects, len(entries), counts
        self.entries, self.sims = entries, sims

    def add_points(self, totals: dict[Candidate, int]) -> None:
        """Add each weighted candidate's points to ``totals``, in proposal order."""
        p_score, counts = self.p_score, self.counts
        subject_ids = set()
        for candidate, sim in self.subjects:
            subject_ids.add(candidate)
            if sim is not None:
                totals[candidate] = totals.get(candidate, 0) + self.base + p_score + sim
        get = totals.get
        for (phrase, kind, weight, index), sim in zip(self.entries, self.sims):
            if sim is None or (candidate := phrase.id) in subject_ids:
                continue
            dist = counts[kind] - index
            totals[candidate] = get(candidate, 0) + weight - dist + p_score + sim

    def build(self) -> tuple[Proposal, ...]:
        """The proposals ``add_points`` counted, after the eager ones."""
        proposals = list(self.eager)
        append = proposals.append
        rule, p_score, base, counts = self.rule, self.p_score, self.base, self.counts
        subject_ids = set()
        for candidate, sim in self.subjects:
            subject_ids.add(candidate)
            if sim is not None:
                append(Proposal(candidate, base + p_score + sim, rule,
                                ScoreBreakdown(p_score, sim, base=base)))
        for (phrase, kind, weight, index), sim in zip(
                islice(self.entries, self.count), self.sims):
            if sim is None or phrase.id in subject_ids:
                continue
            dist = counts[kind] - index
            append(Proposal(phrase.id, weight - dist + p_score + sim, rule,
                            ScoreBreakdown(p_score, sim, weight, dist)))
        return tuple(proposals)


class _BuiltOnFirstRead:
    """``ResolutionResult.proposals``: the field's slot, which may hold a
    ``_WeightedProposals`` until the first read stores its tuple there."""

    __slots__ = ("slot",)

    def __init__(self, slot) -> None:
        self.slot = slot

    def __get__(self, result, owner=None):
        if result is None:
            return self
        value = self.slot.__get__(result)
        if type(value) is _WeightedProposals:
            with _build_lock:
                value = self.slot.__get__(result)
                if type(value) is _WeightedProposals:
                    value = value.build()
                    self.slot.__set__(result, value)
        return value

    def __set__(self, result, value) -> None:
        self.slot.__set__(result, value)


_build_lock = threading.Lock()
ResolutionResult.proposals = _BuiltOnFirstRead(ResolutionResult.proposals)


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
    definite, anything else indefinite.
    """
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
        return SKIP, None, (None,)
    if phrase.noun_subtype == "verbal":
        frame = lookup_case_frame(phrase.lemma, lex.case_frames)
        if frame is not None:
            return VERBAL, frame, frame.surface_cases()
    if phrase.noun_subtype == "relational" or lex.attrs.has(phrase.lemma, "relational"):
        return RELATIONAL, None, (None,)
    if xnoy_modifier_set(phrase.lemma, lex.xnoy, lex.attrs):
        return NOMINAL, None, (None,)
    return SKIP, None, (None,)


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


def _subject_path(anaphor: Phrase, d: Discourse) -> list[Phrase]:
    """Subjects of the anaphor's clause and of the clauses governing it."""
    governors = {p.id for p in _head_chain(anaphor, d)}
    return [
        p for p in d.sentence_of(anaphor.id).phrases
        if p.id < anaphor.id
        and p.is_noun()
        and not p.is_zero_pronoun()
        and p.clause_role in _SUBJECT_ROLES
        and p.head_id in governors
    ]


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

    __slots__ = ("lex", "config", "rows", "targets", "salience", "scores")

    def __init__(self, lex: LexiconSet, config: ResolverConfig) -> None:
        _check_depths(lex, config)
        self.lex, self.config = lex, config
        self.rows = default_rows() + config.extra_weight_rows   # salience weight rows
        # (pos, noun_subtype, lemma) -> _classify_target's mode, frame, slots
        self.targets: dict[tuple, tuple] = {}
        # (pos, noun_subtype, particles, punct_after) -> (kind, weight) or None
        self.salience: dict[tuple, Optional[tuple[str, int]]] = {}
        # anaphor lemma (R4) or case slot (R5) -> (lemma, sem_codes) -> score
        self.scores: dict[object, dict[tuple, Optional[int]]] = {}

    def target(self, phrase: Phrase
               ) -> tuple[str, Optional[VerbCaseFrame], tuple[Optional[str], ...]]:
        key = phrase.pos, phrase.noun_subtype, phrase.lemma
        found = self.targets.get(key)
        if found is None:
            found = self.targets[key] = _classify_target(phrase, self.lex)
        return found

    def scorer(self, source: Union[str, CaseSlot]) -> Callable[[Phrase], Optional[int]]:
        """A candidate's similarity score for one source, or None to exclude it.

        An anaphor lemma scores by R4's "X no Y" similarity, a case slot by
        R5's constraint; with semantics off, a candidate not excluded scores 0.
        """
        lex, config, cache = self.lex, self.config, self.scores.setdefault(source, {})

        def score(candidate: Phrase) -> Optional[int]:
            key = candidate.lemma, candidate.sem_codes
            if key not in cache:
                if isinstance(source, CaseSlot):
                    ok, sim = satisfies_constraint(
                        candidate, source, lex.thesaurus, config.similarity_table,
                        config.example_match_min_level)
                    cache[key] = (sim if config.semantics else 0) if ok else None
                elif config.semantics:
                    best = max((similarity_level(candidate.lemma, x, lex.thesaurus)
                                for x in xnoy_modifier_set(source, lex.xnoy, lex.attrs)),
                               default=0)
                    cache[key] = similarity_score(best, config.similarity_table)
                else:
                    cache[key] = 0
            return cache[key]

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


def propose_no_antecedent(prop: str, config: ResolverConfig) -> list[Proposal]:
    """R2/R3: generic and indefinite phrases may lack an antecedent."""
    if prop == "generic":
        return [Proposal(PSEUDO_GENERIC, config.pseudo_points, "R2")]
    if prop == "indefinite":
        return [Proposal(PSEUDO_INDEFINITE, config.pseudo_points, "R3")]
    return []


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

    Phrases are added in document order.  Salience classes and scores come
    from the run the sweep is built with, so a sweep never mixes the caches
    of two configs.
    """

    def __init__(self, d: Discourse, run: _Run):
        self.d, self.run = d, run
        self.classes, self.rows = run.salience, run.rows
        # (phrase, kind, weight, index among entries of its kind) of every
        # salience entry but zero pronouns, which only count towards distance.
        self.entries: list[tuple[Phrase, str, int, int]] = []
        self.counts: dict[str, int] = {}                # entries so far, per kind
        self.lemmas: set[str] = set()                   # non-empty lemmas so far
        self.nouns: dict[str, list[Phrase]] = {}        # lemma -> noun phrases
        # score source (see _Run.scorer) -> score of each entry, in entry order
        self.sims: dict[object, list[Optional[int]]] = {}

    def add(self, phrase: Phrase) -> None:
        shape = phrase.pos, phrase.noun_subtype, phrase.particles, phrase.punct_after
        classified = self.classes.get(shape, _UNSEEN)
        if classified is _UNSEEN:
            classified = self.classes[shape] = classify_salience(phrase, self.rows)
        if classified is not None:
            kind, weight = classified
            index = self.counts.get(kind, 0)
            self.counts[kind] = index + 1
            if not phrase.is_zero_pronoun():
                self.entries.append((phrase, kind, weight, index))
        if phrase.lemma:
            self.lemmas.add(phrase.lemma)
            if phrase.is_noun():
                self.nouns.setdefault(phrase.lemma, []).append(phrase)

    def mentions(self, lemma: str, points: int, rule: str) -> list[Proposal]:
        """R1/R6: one fixed proposal per earlier noun phrase with the lemma."""
        return [Proposal(p.id, points, rule) for p in self.nouns.get(lemma, ())]

    def resolve(self, anaphor: Phrase, mode: str, frame: Optional[VerbCaseFrame],
                slot: Optional[str]) -> ResolutionResult:
        config = self.run.config
        prop, p_score = _referential_property(anaphor, self.lemmas, config)
        direct_proposals: list[Proposal] = []
        if mode != VERBAL and prop == "definite":
            direct_proposals = self.mentions(anaphor.lemma, config.identity_points, "R1")
        proposals = direct_proposals + propose_no_antecedent(prop, config)

        source = None
        if mode == NOMINAL:
            source = anaphor.lemma
        elif mode == VERBAL:
            source = frame.slot(slot)
        elif (modified := _genitive_head(anaphor, self.d)) is not None:
            proposals.extend(self.mentions(modified.lemma, config.relational_points, "R6"))
        else:
            source = _governing_slot(anaphor, self.d, self.run.lex)
        weighted = None if source is None else self._weighted(anaphor, proposals, p_score, source)

        totals: dict[Candidate, int] = {}
        for proposal in proposals:
            totals[proposal.candidate] = totals.get(proposal.candidate, 0) + proposal.points
        if weighted is not None:
            weighted.add_points(totals)
        winner: Optional[Candidate] = None
        total = 0
        if totals:
            # Score first, then a real phrase over a pseudo candidate, then
            # recency: the latest tied phrase, else the first tied pseudo one.
            total = max(totals.values())
            tied = [candidate for candidate, points in totals.items() if points == total]
            winner = max((c for c in tied if isinstance(c, int)), default=tied[0])
        direct = any(pr.candidate == winner for pr in direct_proposals)
        return ResolutionResult(anaphor.id, slot, winner, total, totals,
                                tuple(proposals) if weighted is None else weighted, direct)

    def _weighted(self, anaphor: Phrase, eager: list[Proposal], p_score: int,
                  source: Union[str, CaseSlot]) -> _WeightedProposals:
        """The R4/R5 candidates of one target: its subject path and topics/foci.

        Each entry is scored once per source, when the first target after it
        asks for that source.
        """
        score = self.run.scorer(source)
        sims = self.sims.setdefault(source, [])
        sims.extend(score(entry[0]) for entry in self.entries[len(sims):])
        subjects = [(p.id, score(p)) for p in _subject_path(anaphor, self.d)]
        rule = "R5" if isinstance(source, CaseSlot) else "R4"
        return _WeightedProposals(tuple(eager), rule, p_score, self.run.config.subject_base,
                                  subjects, self.entries, dict(self.counts), sims)


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
