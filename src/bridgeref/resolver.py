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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .config import ResolverConfig
from .corpus import Discourse, Phrase
from .lexicons import (
    LexiconSet,
    VerbCaseFrame,
    lookup_case_frame,
    satisfies_constraint,
    similarity_level,
    similarity_score,
    xnoy_modifier_set,
)
from .salience import default_rows, ranks, salience_list

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
_SLOT_PARTICLES = {"ga": "ga", "wo": "wo", "ni": "ni", "niwa": "ni",
                   "de": "de", "kara": "kara", "he": "he"}


@dataclass(frozen=True)
class ScoreBreakdown:
    """Score components of one salience or subject proposal."""
    definiteness: int
    similarity: int
    weight: Optional[int] = None      # topic/focus weight, salience path only
    dist: Optional[int] = None        # backward rank, salience path only
    base: Optional[int] = None        # fixed base, subject path only


@dataclass(frozen=True)
class Proposal:
    candidate: Candidate
    points: int
    rule: str                          # "R1".."R6"
    breakdown: Optional[ScoreBreakdown] = None


@dataclass(frozen=True)
class Target:
    phrase_id: int
    mode: str                          # VERBAL | RELATIONAL | NOMINAL | SKIP
    slot: Optional[str] = None         # surface case, VERBAL targets only


@dataclass(frozen=True)
class ResolutionResult:
    anaphor_id: int
    slot: Optional[str]
    winner: Optional[Candidate]        # None when no rule proposed anything
    total: int
    all_scores: dict[Candidate, int]
    proposals: tuple[Proposal, ...]
    direct: bool                       # winner carried a repeated-mention proposal


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
    config = config or ResolverConfig.default()
    prop = p.ref_property
    if prop == "auto":
        tokens = p.surface.split()
        demonstrative = bool(tokens) and tokens[0] in ("kono", "sono", "ano")
        mentioned = any(q.lemma == p.lemma and q.lemma for q in d.preceding(p.id))
        prop = "definite" if demonstrative or mentioned else "indefinite"
    return prop, config.definiteness[prop]


def _classify_target(phrase: Phrase, lex: LexiconSet) -> tuple[str, Optional[VerbCaseFrame]]:
    """Mode of one noun phrase, plus the case frame of verbal targets."""
    if not phrase.is_noun() or phrase.noun_subtype in ("pronoun", "zero_pronoun"):
        return SKIP, None
    if phrase.noun_subtype == "verbal":
        frame = lookup_case_frame(phrase.lemma, lex.case_frames)
        if frame is not None:
            return VERBAL, frame
    if phrase.noun_subtype == "relational" or lex.attrs.has(phrase.lemma, "relational"):
        return RELATIONAL, None
    if xnoy_modifier_set(phrase.lemma, lex.xnoy, lex.attrs):
        return NOMINAL, None
    return SKIP, None


def detect_targets(d: Discourse, lex: LexiconSet) -> list[Target]:
    """Classify every noun phrase; verbal nouns yield one target per case slot."""
    targets: list[Target] = []
    for phrase in d.phrases():
        if not phrase.is_noun():
            continue
        mode, frame = _classify_target(phrase, lex)
        if mode == VERBAL:
            targets.extend(Target(phrase.id, mode, slot) for slot in frame.surface_cases())
        else:
            targets.append(Target(phrase.id, mode))
    return targets


def _head_chain(anaphor: Phrase, d: Discourse) -> Iterator[Phrase]:
    """The phrases the anaphor transitively attaches to, nearest first."""
    head = anaphor.head_id
    while head is not None:
        phrase = d.phrase(head)
        yield phrase
        head = phrase.head_id


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


def _modifier_similarity(lemma: str, modifiers: set[str], lex: LexiconSet,
                         config: ResolverConfig) -> int:
    if not config.semantics:
        return 0
    best = 0
    for x in modifiers:
        best = max(best, similarity_level(lemma, x, lex.thesaurus))
    return similarity_score(best, config.similarity_table)


def _salience_rows(lex: LexiconSet, config: ResolverConfig):
    return default_rows() + tuple(lex.weight_rows) + config.extra_weight_rows


def _propose_salience_and_subjects(
    anaphor: Phrase,
    d: Discourse,
    lex: LexiconSet,
    config: ResolverConfig,
    p_score: int,
    rule: str,
    score_candidate,
) -> list[Proposal]:
    """Shared body of R4/R5: subject-path proposals plus topic/focus proposals.

    ``score_candidate`` returns the similarity score for a candidate phrase,
    or None when the candidate must be excluded.
    """
    proposals: list[Proposal] = []
    subjects = _subject_path(anaphor, d)
    subject_ids = {p.id for p in subjects}
    for candidate in subjects:
        sim = score_candidate(candidate)
        if sim is None:
            continue
        points = config.subject_base + p_score + sim
        proposals.append(Proposal(
            candidate.id, points, rule,
            ScoreBreakdown(definiteness=p_score, similarity=sim,
                           base=config.subject_base)))
    entries = salience_list(d, anaphor, _salience_rows(lex, config))
    dists = ranks(entries)
    for entry in entries:
        phrase = d.phrase(entry.phrase_id)
        if phrase.is_zero_pronoun() or phrase.id in subject_ids:
            continue
        sim = score_candidate(phrase)
        if sim is None:
            continue
        dist = dists[entry.seq]
        points = entry.weight - dist + p_score + sim
        proposals.append(Proposal(
            phrase.id, points, rule,
            ScoreBreakdown(definiteness=p_score, similarity=sim,
                           weight=entry.weight, dist=dist)))
    return proposals


def propose_prior_mentions(anaphor: Phrase, d: Discourse,
                           config: ResolverConfig) -> list[Proposal]:
    """R1: a definite phrase repeating an earlier lemma is direct anaphora."""
    if not anaphor.lemma:
        return []
    return [Proposal(p.id, config.identity_points, "R1")
            for p in _earlier_nouns(anaphor.lemma, anaphor, d)]


def _earlier_nouns(lemma: str, anaphor: Phrase, d: Discourse) -> list[Phrase]:
    """Noun phrases with the given lemma that precede the anaphor."""
    return [p for p in d.preceding(anaphor.id) if p.lemma == lemma and p.is_noun()]


def propose_no_antecedent(prop: str, config: ResolverConfig) -> list[Proposal]:
    """R2/R3: generic and indefinite phrases may lack an antecedent."""
    if prop == "generic":
        return [Proposal(PSEUDO_GENERIC, config.pseudo_points, "R2")]
    if prop == "indefinite":
        return [Proposal(PSEUDO_INDEFINITE, config.pseudo_points, "R3")]
    return []


def propose_from_modifier_examples(
    anaphor: Phrase, d: Discourse, lex: LexiconSet,
    config: ResolverConfig, p_score: int,
) -> list[Proposal]:
    """R4: score topics, foci and clause-chain subjects against "X no Y" data."""
    modifiers = xnoy_modifier_set(anaphor.lemma, lex.xnoy, lex.attrs)

    def score(candidate: Phrase) -> Optional[int]:
        return _modifier_similarity(candidate.lemma, modifiers, lex, config)

    return _propose_salience_and_subjects(
        anaphor, d, lex, config, p_score, "R4", score)


def propose_from_case_slot(
    anaphor: Phrase, slot_case: str, frame, d: Discourse,
    lex: LexiconSet, config: ResolverConfig, p_score: int,
) -> list[Proposal]:
    """R5: like R4, but candidates must satisfy the verb case frame slot."""
    slot = frame.slot(slot_case)
    if slot is None:
        raise ValueError(
            f"case frame of {frame.verb_lemma!r} has no {slot_case!r} slot")

    def score(candidate: Phrase) -> Optional[int]:
        ok, sim = satisfies_constraint(
            candidate, slot, lex.thesaurus, config.similarity_table,
            config.example_match_min_level)
        if not ok:
            return None
        return sim if config.semantics else 0

    return _propose_salience_and_subjects(
        anaphor, d, lex, config, p_score, "R5", score)


def propose_modified_noun(anaphor: Phrase, d: Discourse,
                          config: ResolverConfig) -> list[Proposal]:
    """R6: a relational noun modifying X with "no" -> earlier phrases named X."""
    modified = _genitive_head(anaphor, d)
    if modified is None or not modified.lemma:
        return []
    return [Proposal(p.id, config.relational_points, "R6")
            for p in _earlier_nouns(modified.lemma, anaphor, d)]


def _genitive_head(anaphor: Phrase, d: Discourse) -> Optional[Phrase]:
    """The noun the anaphor modifies via "no", if any."""
    if "no" not in anaphor.particles or anaphor.head_id is None:
        return None
    head = d.phrase(anaphor.head_id)
    return head if head.is_noun() else None


def _surface_slot(anaphor: Phrase) -> Optional[str]:
    """Case slot the anaphor fills relative to its governing verb."""
    if anaphor.clause_role in _SUBJECT_ROLES:
        return "ga"
    for particle in anaphor.particles:
        if particle in _SLOT_PARTICLES:
            return _SLOT_PARTICLES[particle]
    return None


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
    config = config or ResolverConfig.default()
    mode, frame = _classify_target(anaphor, lex)
    if mode == SKIP:
        raise ValueError(f"phrase {anaphor.id} is not an anaphora target")
    if mode == VERBAL:
        slots = frame.surface_cases()
        if slot not in slots:
            raise ValueError(
                f"verbal noun {anaphor.lemma!r} has no {slot!r} slot (has {slots})")
    elif slot is not None:
        raise ValueError(f"{mode} target does not take a case slot")

    prop, p_score = referential_property(anaphor, d, config)
    proposals: list[Proposal] = []
    if mode != VERBAL and prop == "definite":
        proposals.extend(propose_prior_mentions(anaphor, d, config))
    proposals.extend(propose_no_antecedent(prop, config))

    if mode == NOMINAL:
        proposals.extend(propose_from_modifier_examples(
            anaphor, d, lex, config, p_score))
    elif mode == VERBAL:
        proposals.extend(propose_from_case_slot(
            anaphor, slot, frame, d, lex, config, p_score))
    elif mode == RELATIONAL:
        if _genitive_head(anaphor, d) is not None:
            proposals.extend(propose_modified_noun(anaphor, d, config))
        else:
            verb = next((p for p in _head_chain(anaphor, d) if p.pos == "verb"), None)
            frame = (lookup_case_frame(verb.lemma, lex.case_frames)
                     if verb is not None else None)
            verb_slot = _surface_slot(anaphor)
            if frame is not None and verb_slot is not None \
                    and frame.slot(verb_slot) is not None:
                proposals.extend(propose_from_case_slot(
                    anaphor, verb_slot, frame, d, lex, config, p_score))

    totals: dict[Candidate, int] = {}
    for proposal in proposals:
        totals[proposal.candidate] = totals.get(proposal.candidate, 0) + proposal.points

    winner: Optional[Candidate] = None
    total = 0
    if totals:
        # Sort key: score first, then real-over-pseudo, then recency.
        def rank(item):
            candidate, points = item
            is_real = isinstance(candidate, int)
            return points, is_real, candidate if is_real else -1

        winner, total = max(totals.items(), key=rank)

    direct = isinstance(winner, int) and any(
        pr.rule == "R1" and pr.candidate == winner for pr in proposals)
    return ResolutionResult(
        anaphor_id=anaphor.id,
        slot=slot,
        winner=winner,
        total=total,
        all_scores=totals,
        proposals=tuple(proposals),
        direct=direct,
    )


def resolve_discourse(
    d: Discourse,
    lex: LexiconSet,
    config: Optional[ResolverConfig] = None,
) -> list[ResolutionResult]:
    """Resolve every non-skipped target of a document, in document order."""
    config = config or ResolverConfig.default()
    results = []
    for target in detect_targets(d, lex):
        if target.mode == SKIP:
            continue
        anaphor = d.phrase(target.phrase_id)
        results.append(resolve(anaphor, target.slot, d, lex, config))
    return results
