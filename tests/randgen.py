"""Seeded random discourses and lexicons, plus an independent scoring oracle.

The oracle re-derives per-candidate totals with straight-line loops and its
own literal copy of the weight tables, so resolver regressions cannot hide
behind shared helpers.
"""
from __future__ import annotations

import dataclasses
import random

from bridgeref.config import ResolverConfig
from bridgeref.corpus import Discourse, GoldAntecedent, Phrase, Sentence
from bridgeref.lexicons import (
    CaseFrameDict,
    CaseSlot,
    LexiconSet,
    NounAttributes,
    Thesaurus,
    VerbCaseFrame,
    XnoYStore,
)
from bridgeref.salience import parse_weight_row

NOUN_LEMMAS = [
    "ringo", "mizu", "hon", "neko", "inu", "machi", "mura", "kawa",
    "umi", "tori", "kuruma", "hito", "benkyou",
]
VERB_LEMMAS = ["taberu", "nomu", "iku", "miru", "kau"]
PARTICLE_POOL = ["wa", "ga", "wo", "ni", "niwa", "mo", "da", "nara",
                 "koso", "he", "de", "kara", "yori", "no"]
ZERO_PARTICLES = ["ga", "wa", "wo", "ni", "kara"]
FLAG_POOL = ["adjectival", "numeral", "temporal", "non_anaphoric", "relational"]
SUBTYPE_WEIGHTS = [
    ("common", 60), ("zero_pronoun", 8), ("pronoun", 7), ("verbal", 8),
    ("relational", 7), ("numeral", 5), ("temporal", 5),
]


def make_phrase(phrase_id, lemma="x", pos="noun", subtype="common",
                particles=(), punct=None, head=None, role="other",
                codes=(), ref="auto", gold=()):
    if subtype == "zero_pronoun":
        surface = ""
        lemma = ""
    else:
        surface = lemma
    return Phrase(
        id=phrase_id,
        surface=surface,
        lemma=lemma,
        pos=pos,
        noun_subtype=subtype if pos == "noun" else None,
        particles=tuple(particles),
        punct_after=punct,
        head_id=head,
        clause_role=role,
        sem_codes=tuple(codes),
        ref_property=ref,
        gold_antecedents=tuple(gold),
    )


def _weighted_choice(rng, options):
    total = sum(weight for _, weight in options)
    pick = rng.random() * total
    for value, weight in options:
        pick -= weight
        if pick <= 0:
            return value
    return options[-1][0]


def _random_code(rng, max_len=5):
    return "".join(rng.choice("123") for _ in range(rng.randint(1, max_len)))


def random_lexicons(rng: random.Random) -> LexiconSet:
    codes = {}
    for lemma in NOUN_LEMMAS:
        if rng.random() < 0.8:
            entry = (_random_code(rng),)
            if rng.random() < 0.2:
                entry += (_random_code(rng),)
            codes[lemma] = entry
    thesaurus = Thesaurus(codes=codes, max_depth=5)

    flags = {}
    for lemma in NOUN_LEMMAS:
        if rng.random() < 0.18:
            flags[lemma] = frozenset({rng.choice(FLAG_POOL)})
    attrs = NounAttributes(flags=flags)

    frames = {}
    for verb in rng.sample(VERB_LEMMAS, rng.randint(1, 3)):
        slots = []
        for case in rng.sample(["ga", "wo", "ni", "de", "kara", "he"],
                               rng.randint(1, 2)):
            constraints = tuple(_random_code(rng, 4)
                                for _ in range(rng.randint(0, 2)))
            examples = tuple(rng.choice(NOUN_LEMMAS)
                             for _ in range(rng.randint(0, 2)))
            if not constraints and not examples:
                examples = (rng.choice(NOUN_LEMMAS),)
            slots.append(CaseSlot(case, constraints, examples))
        frames[verb] = VerbCaseFrame(verb, tuple(slots))
    verbal_nouns = {}
    if rng.random() < 0.8:
        verbal_nouns["benkyou"] = rng.choice(sorted(frames))
    case_frames = CaseFrameDict(frames=frames, verbal_nouns=verbal_nouns)

    pairs = [(rng.choice(NOUN_LEMMAS), rng.choice(NOUN_LEMMAS))
             for _ in range(rng.randint(0, 8))]
    return LexiconSet(
        thesaurus=thesaurus,
        case_frames=case_frames,
        xnoy=XnoYStore(pairs=tuple(pairs)),
        attrs=attrs,
    )


def random_config(rng: random.Random) -> ResolverConfig:
    """A config with every score, constant and weight row drawn at random.

    The similarity table has 6 to 8 levels, enough for the 5-digit codes of
    ``random_lexicons``; about one time in five its scores are all 0, as
    ``without_semantics()`` sets them.
    """
    levels = rng.randint(6, 8)
    rows = []
    for _ in range(rng.randint(0, 3)):
        particles = ",".join(rng.sample(PARTICLE_POOL, rng.randint(0, 3)))
        punct = ":punct" if not particles or rng.random() < 0.3 else ""
        rows.append(parse_weight_row(
            rng.choice(("topic", "focus")),
            f"{rng.choice(('noun', 'pronoun'))}:{particles}{punct}", rng.randint(-30, 40)))
    config = ResolverConfig(
        definiteness={prop: rng.randint(-20, 20)
                      for prop in ("definite", "indefinite", "generic")},
        similarity_table=dict(enumerate(sorted(rng.randint(-40, 40) for _ in range(levels)))),
        subject_base=rng.randint(-30, 50),
        identity_points=rng.randint(-30, 50),
        relational_points=rng.randint(-30, 50),
        pseudo_points=rng.randint(-30, 50),
        example_match_min_level=rng.randrange(levels),
        extra_weight_rows=tuple(rows),
    )
    return config if rng.random() >= 0.2 else config.without_semantics()


def random_discourse(rng: random.Random, lex: LexiconSet,
                     force_ref=None) -> tuple[Discourse, LexiconSet]:
    """A valid discourse of at most 12 phrases; may extend the genitive store."""
    sentences = []
    next_id = 1
    noun_ids = []
    for index in range(rng.randint(1, 3)):
        phrases = []
        for _ in range(rng.randint(0, 3)):
            subtype = _weighted_choice(rng, SUBTYPE_WEIGHTS)
            lemma = "benkyou" if subtype == "verbal" else rng.choice(NOUN_LEMMAS)
            if subtype == "zero_pronoun":
                particles = (rng.choice(ZERO_PARTICLES),)
                punct = None
            else:
                particles = tuple(rng.sample(PARTICLE_POOL, rng.randint(0, 2)))
                punct = rng.choice([None, None, None, "comma", "period"])
            role = _weighted_choice(
                rng, [("subject_main", 2), ("subject_subordinate", 1), ("other", 7)])
            ref = force_ref if force_ref else rng.choice(
                ["definite", "indefinite", "generic", "auto"])
            codes = tuple(_random_code(rng) for _ in range(rng.randint(0, 2)))
            phrases.append(make_phrase(
                next_id, lemma=lemma, subtype=subtype, particles=particles,
                punct=punct, role=role, codes=codes, ref=ref))
            noun_ids.append(next_id)
            next_id += 1
        phrases.append(make_phrase(
            next_id, lemma=rng.choice(VERB_LEMMAS), pos="verb",
            punct="period"))
        next_id += 1
        # heads point at a random later phrase of the same sentence
        fixed = []
        for pos_in_sent, phrase in enumerate(phrases):
            if pos_in_sent == len(phrases) - 1:
                fixed.append(phrase)
                continue
            head = rng.choice(phrases[pos_in_sent + 1:]).id
            fixed.append(dataclasses.replace(phrase, head_id=head))
        sentences.append(Sentence(index=index, phrases=tuple(fixed)))

    discourse = Discourse(doc_id=f"gen{rng.randint(0, 10**6)}",
                          sentences=tuple(sentences))
    # Bias towards having at least one plain-noun target.
    if noun_ids and rng.random() < 0.8:
        anchor = discourse.phrase(rng.choice(noun_ids))
        if anchor.lemma:
            extra = tuple((rng.choice(NOUN_LEMMAS), anchor.lemma)
                          for _ in range(rng.randint(1, 2)))
            lex = LexiconSet(
                thesaurus=lex.thesaurus,
                case_frames=lex.case_frames,
                xnoy=XnoYStore(pairs=lex.xnoy.pairs + extra),
                attrs=lex.attrs,
            )
    return discourse, lex


def random_case(seed: int, force_ref=None) -> tuple[Discourse, LexiconSet]:
    rng = random.Random(seed)
    lex = random_lexicons(rng)
    return random_discourse(rng, lex, force_ref=force_ref)


def random_long_case(seed: int) -> tuple[Discourse, LexiconSet]:
    """A valid discourse of 60 to 150 phrases: random discourses back to back.

    Each part is renumbered to follow the one before it; the parts share one
    lexicon set, which each part may extend.
    """
    rng = random.Random(seed)
    lex = random_lexicons(rng)
    wanted = rng.randint(60, 138)        # a part adds at most 12 phrases
    sentences = []
    offset = 0
    while offset < wanted:
        part, lex = random_discourse(rng, lex)
        for sent in part.sentences:
            phrases = tuple(
                dataclasses.replace(
                    p, id=p.id + offset,
                    head_id=None if p.head_id is None else p.head_id + offset)
                for p in sent.phrases)
            sentences.append(Sentence(index=len(sentences), phrases=phrases))
        offset += sum(len(sent.phrases) for sent in part.sentences)
    return Discourse(doc_id=f"long{seed}", sentences=tuple(sentences)), lex


# Every character the ADC, predictions and score-table formats read as a
# marker or separator, and a space.
MARKED_ALPHABET = "-*,.、。:#|%= "


def marked_text(rng: random.Random) -> str:
    """0 to 4 characters, most of them from ``MARKED_ALPHABET``."""
    return "".join(rng.choice(MARKED_ALPHABET) if rng.random() < 0.6 else rng.choice("ab")
                   for _ in range(rng.randint(0, 4)))


def random_marked_case(seed: int) -> tuple[Discourse, LexiconSet]:
    """``random_case(seed)`` with its document id, surfaces, lemmas, sem
    codes and gold labels redrawn, often from ``MARKED_ALPHABET``.

    Lemmas come from a small pool, and each marked lemma is the Y of an
    "X no Y" example, so marked lemmas recur, are targets and reach R1 and
    R6.  Half the time one noun's lemma is spelled like the score-table
    label of a phrase whose lemma another phrase shares.  Gold items name
    earlier phrases.  The document may break rules that
    ``validate_discourse`` reports.
    """
    d, lex = random_case(seed)
    rng = random.Random(f"marked:{seed}")
    lemmas = [marked_text(rng) for _ in range(3)]
    pairs = tuple((rng.choice(NOUN_LEMMAS), lemma) for lemma in lemmas)
    lex = dataclasses.replace(lex, xnoy=XnoYStore(pairs=lex.xnoy.pairs + pairs))
    lemmas += NOUN_LEMMAS[:3]
    phrases = {}
    for p in d.phrases():
        change = {}
        if p.pos == "noun" and rng.random() < 0.6:
            change["lemma"] = rng.choice(lemmas)
        if not p.is_zero_pronoun() and rng.random() < 0.3:
            change["surface"] = marked_text(rng)
        if rng.random() < 0.2:
            change["sem_codes"] = tuple(marked_text(rng) for _ in range(rng.randint(1, 2)))
        if rng.random() < 0.3:
            change["gold_antecedents"] = tuple(
                GoldAntecedent(rng.choice([None, marked_text(rng), "ga"]),
                               rng.choice([None, *phrases]))
                for _ in range(rng.randint(1, 2)))
        phrases[p.id] = dataclasses.replace(p, **change)
    nouns = [p for p in phrases.values() if p.pos == "noun"]
    shared = [p for p in nouns if sum(q.lemma == p.lemma for q in nouns) > 1]
    if shared and rng.random() < 0.5:
        named, other = rng.choice(shared), rng.choice(nouns)
        if other is not named:
            phrases[other.id] = dataclasses.replace(other, lemma=f"{named.lemma}#{named.id}")
    sentences = tuple(Sentence(sent.index, tuple(phrases[p.id] for p in sent.phrases))
                      for sent in d.sentences)
    return Discourse(doc_id=marked_text(rng) + rng.choice(["", "a"]), sentences=sentences), lex


# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------

def _oracle_classify(p: Phrase):
    if p.pos != "noun":
        return None
    parts = set(p.particles)
    pronounish = p.noun_subtype in ("pronoun", "zero_pronoun")
    if pronounish and parts & {"ga", "wa"}:
        return ("topic", 21)
    if not pronounish and parts & {"wa", "niwa"}:
        return ("topic", 20)
    if "wa" in parts:
        return None
    if pronounish and parts & {"wo", "ni", "kara"}:
        return ("focus", 16)
    if pronounish:
        return None
    if parts & {"ga", "mo", "da", "nara", "koso"}:
        return ("focus", 15)
    if parts & {"wo", "ni"} or (not parts and p.punct_after in ("comma", "period")):
        return ("focus", 14)
    if parts & {"he", "de", "kara", "yori"}:
        return ("focus", 13)
    return None


def _oracle_extra_classify(p: Phrase, rows):
    """The first of the config's extra weight rows matching p.

    Extra rows are only consulted for phrases the default rows leave
    unclassified, and focus rows never take a wa-marked phrase.
    """
    if p.pos != "noun":
        return None
    parts = set(p.particles)
    word_class = "pronoun" if p.noun_subtype in ("pronoun", "zero_pronoun") else "noun"
    for row in rows:
        if row.kind == "focus" and "wa" in parts:
            continue
        if row.word_class != word_class:
            continue
        if parts & row.particles or (
                row.match_punct and not parts and p.punct_after in ("comma", "period")):
            return (row.kind, row.weight)
    return None


def _oracle_level(a: str, b: str, thesaurus: Thesaurus) -> int:
    best = 0
    for code_a in thesaurus.codes.get(a, ()):
        for code_b in thesaurus.codes.get(b, ()):
            shared = 0
            for ch_a, ch_b in zip(code_a, code_b):
                if ch_a != ch_b:
                    break
                shared += 1
            best = max(best, shared)
    return best


def _oracle_property(anaphor: Phrase, d: Discourse, config: ResolverConfig):
    prop = anaphor.ref_property
    if prop == "auto":
        words = anaphor.surface.split()
        demonstrative = bool(words) and words[0] in ("kono", "sono", "ano")
        mentioned = False
        for p in d.phrases():
            if p.id >= anaphor.id:
                break
            if p.lemma and p.lemma == anaphor.lemma:
                mentioned = True
        prop = "definite" if demonstrative or mentioned else "indefinite"
    return prop, config.definiteness[prop]


def oracle_mode(p: Phrase, lex: LexiconSet):
    if p.pos != "noun" or p.noun_subtype in ("pronoun", "zero_pronoun"):
        return "SKIP", ()
    if p.noun_subtype == "verbal":
        frame = lex.case_frames.frames.get(p.lemma)
        if frame is None:
            verb = lex.case_frames.verbal_nouns.get(p.lemma)
            frame = lex.case_frames.frames.get(verb) if verb else None
        if frame is not None:
            return "VERBAL", tuple(s.surface_case for s in frame.slots)
    if p.noun_subtype == "relational" or "relational" in lex.attrs.flags.get(
            p.lemma, frozenset()):
        return "RELATIONAL", ()
    mods = _oracle_modifiers(p.lemma, lex)
    if mods:
        return "NOMINAL", ()
    return "SKIP", ()


def _oracle_modifiers(y: str, lex: LexiconSet) -> set[str]:
    if "non_anaphoric" in lex.attrs.flags.get(y, frozenset()):
        return set()
    out = set()
    for x, other in lex.xnoy.pairs:
        if other != y:
            continue
        if lex.attrs.flags.get(x, frozenset()) & {"adjectival", "numeral", "temporal"}:
            continue
        out.add(x)
    return out


def _oracle_satisfies(candidate: Phrase, slot: CaseSlot, lex: LexiconSet,
                      config: ResolverConfig):
    codes = set(candidate.sem_codes)
    codes.update(lex.thesaurus.codes.get(candidate.lemma, ()))
    ok = False
    best = 0
    for constraint in slot.constraints:
        for code in codes:
            if code.startswith(constraint):
                ok = True
                best = max(best, len(constraint))
    for example in slot.example_nouns:
        level = _oracle_level(candidate.lemma, example, lex.thesaurus)
        if candidate.lemma == example:
            level = max(level, lex.thesaurus.max_depth)
        if level >= config.example_match_min_level:
            ok = True
        best = max(best, level)
    if not ok:
        return False, config.similarity_table[0]
    return True, config.similarity_table[best]


def _oracle_frame(lemma: str, lex: LexiconSet):
    frame = lex.case_frames.frames.get(lemma)
    if frame is not None:
        return frame
    verb = lex.case_frames.verbal_nouns.get(lemma)
    return lex.case_frames.frames.get(verb) if verb else None


def oracle_all_scores(anaphor: Phrase, slot, d: Discourse, lex: LexiconSet,
                      config: ResolverConfig) -> dict:
    """Totals per candidate, rule by rule, fully independent of the resolver."""
    totals: dict = {}

    def add(candidate, points):
        totals[candidate] = totals.get(candidate, 0) + points

    mode, _ = oracle_mode(anaphor, lex)
    prop, p_score = _oracle_property(anaphor, d, config)

    # R1
    if mode != "VERBAL" and prop == "definite" and anaphor.lemma:
        for p in d.phrases():
            if p.id >= anaphor.id:
                break
            if (p.pos == "noun" and p.noun_subtype != "zero_pronoun"
                    and p.lemma == anaphor.lemma):
                add(p.id, config.identity_points)
    # R2 / R3
    if prop == "generic":
        add("GENERIC", config.pseudo_points)
    elif prop == "indefinite":
        add("INDEFINITE", config.pseudo_points)

    def scored_pool(score_fn, rule_slot=None):
        sentence = d.sentence_of(anaphor.id)
        by_id = {p.id: p for p in sentence.phrases}
        governors = set()
        head = anaphor.head_id
        while head is not None and head not in governors:
            governors.add(head)
            head = by_id[head].head_id if head in by_id else None
        subject_ids = set()
        for p in sentence.phrases:
            if (p.id < anaphor.id and p.pos == "noun"
                    and p.noun_subtype != "zero_pronoun"
                    and p.clause_role in ("subject_main", "subject_subordinate")
                    and p.head_id in governors):
                subject_ids.add(p.id)
                sim = score_fn(p)
                if sim is not None:
                    add(p.id, config.subject_base + p_score + sim)
        entries = []
        for p in d.phrases():
            if p.id >= anaphor.id:
                break
            kind_weight = _oracle_classify(p) or _oracle_extra_classify(
                p, config.extra_weight_rows)
            if kind_weight is not None:
                entries.append((p, kind_weight[0], kind_weight[1]))
        for i, (p, kind, weight) in enumerate(entries):
            if p.noun_subtype == "zero_pronoun" or p.id in subject_ids:
                continue
            sim = score_fn(p)
            if sim is None:
                continue
            dist = 1 + sum(1 for q_kind in (e[1] for e in entries[i + 1:])
                           if q_kind == kind)
            add(p.id, weight - dist + p_score + sim)

    if mode == "NOMINAL":
        mods = _oracle_modifiers(anaphor.lemma, lex)

        def score(p):
            best = 0
            for x in mods:
                best = max(best, _oracle_level(p.lemma, x, lex.thesaurus))
            return config.similarity_table[best]

        scored_pool(score)
    elif mode == "VERBAL":
        frame = _oracle_frame(anaphor.lemma, lex)
        case_slot = next(s for s in frame.slots if s.surface_case == slot)

        def score(p):
            ok, sim = _oracle_satisfies(p, case_slot, lex, config)
            return sim if ok else None

        scored_pool(score)
    elif mode == "RELATIONAL":
        head = (d.phrase(anaphor.head_id)
                if anaphor.head_id is not None else None)
        if "no" in anaphor.particles and head is not None and head.pos == "noun":
            if head.lemma:
                for p in d.phrases():
                    if p.id >= anaphor.id:
                        break
                    if (p.pos == "noun" and p.noun_subtype != "zero_pronoun"
                            and p.lemma == head.lemma):
                        add(p.id, config.relational_points)
        else:
            sentence = d.sentence_of(anaphor.id)
            by_id = {p.id: p for p in sentence.phrases}
            verb = None
            seen = set()
            cursor = anaphor.head_id
            while cursor is not None and cursor not in seen:
                seen.add(cursor)
                current = by_id.get(cursor)
                if current is None:
                    break
                if current.pos == "verb":
                    verb = current
                    break
                cursor = current.head_id
            frame = _oracle_frame(verb.lemma, lex) if verb is not None else None
            if anaphor.clause_role in ("subject_main", "subject_subordinate"):
                verb_slot = "ga"
            else:
                verb_slot = None
                for particle in anaphor.particles:
                    mapped = {"ga": "ga", "wo": "wo", "ni": "ni", "niwa": "ni",
                              "de": "de", "kara": "kara", "he": "he"}.get(particle)
                    if mapped:
                        verb_slot = mapped
                        break
            case_slot = None
            if frame is not None and verb_slot is not None:
                case_slot = next(
                    (s for s in frame.slots if s.surface_case == verb_slot), None)
            if case_slot is not None:
                def score(p):
                    ok, sim = _oracle_satisfies(p, case_slot, lex, config)
                    return sim if ok else None

                scored_pool(score)
    return totals
