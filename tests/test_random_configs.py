"""The resolver agrees with the independent oracle under configs drawn at random."""
import dataclasses
import random

from bridgeref.corpus import Discourse, Sentence, validate_discourse
from bridgeref.resolver import resolve_discourse
from randgen import (
    NOUN_LEMMAS,
    oracle_all_scores,
    random_case,
    random_config,
    random_long_case,
)


def _cases(seed):
    yield random_case(seed)
    if seed % 5 == 0:
        yield random_long_case(seed)


def _check(result, d, lex, config, seed):
    """``result`` scores as the oracle does and breaks ties as documented."""
    anaphor = d.phrase(result.anaphor_id)
    assert result.all_scores == oracle_all_scores(
        anaphor, result.slot, d, lex, config), (seed, result.anaphor_id)
    if result.all_scores:
        # Score first, then the latest tied phrase, else the first tied
        # pseudo candidate.
        assert result.total == max(result.all_scores.values())
        tied = [c for c, v in result.all_scores.items() if v == result.total]
        real = [c for c in tied if isinstance(c, int)]
        assert result.winner == (max(real) if real else tied[0])
    else:
        assert result.winner is None and result.total == 0


def test_random_configs_score_as_the_oracle_and_break_ties_as_documented():
    results = configs_without_semantics = 0
    for seed in range(300):
        config = random_config(random.Random(f"config:{seed}"))
        configs_without_semantics += not any(config.similarity_table.values())
        top = max(config.similarity_table)
        assert 0 <= config.example_match_min_level <= top
        for d, lex in _cases(seed):
            # The table must reach every code, as the resolver's depth check asks.
            assert lex.thesaurus.max_depth <= top
            assert all(len(code) <= top for frame in lex.case_frames.frames.values()
                       for slot in frame.slots for code in slot.constraints)
            for result in resolve_discourse(d, lex, config):
                _check(result, d, lex, config, seed)
                results += 1
    assert results >= 2000 and configs_without_semantics >= 30


def _with_zero_pronoun_lemmas(d, rng):
    """``d`` with a noun lemma on every zero pronoun, which the format allows."""
    return Discourse(doc_id=d.doc_id, sentences=tuple(
        Sentence(sent.index, tuple(
            dataclasses.replace(p, lemma=rng.choice(NOUN_LEMMAS)) if p.is_zero_pronoun()
            else p for p in sent.phrases))
        for sent in d.sentences))


def test_zero_pronouns_with_lemmas_are_never_candidates():
    results = repeated = 0
    for seed in range(200):
        rng = random.Random(f"zero:{seed}")
        config = random_config(rng)
        for d, lex in _cases(seed):
            d = _with_zero_pronoun_lemmas(d, rng)
            assert validate_discourse(d) == []
            zero = {p.lemma for p in d.phrases() if p.is_zero_pronoun()}
            for result in resolve_discourse(d, lex, config):
                _check(result, d, lex, config, seed)
                assert not any(isinstance(c, int) and d.phrase(c).is_zero_pronoun()
                               for c in result.all_scores)
                repeated += d.phrase(result.anaphor_id).lemma in zero
                results += 1
    assert results >= 1500 and repeated >= 300, (results, repeated)
