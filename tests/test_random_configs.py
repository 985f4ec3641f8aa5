"""The resolver agrees with the independent oracle under configs drawn at random."""
import random

from bridgeref.resolver import resolve_discourse
from randgen import oracle_all_scores, random_case, random_config, random_long_case


def _cases(seed):
    yield random_case(seed)
    if seed % 5 == 0:
        yield random_long_case(seed)


def test_random_configs_score_as_the_oracle_and_break_ties_as_documented():
    results = configs_without_semantics = 0
    for seed in range(300):
        config = random_config(random.Random(f"config:{seed}"))
        configs_without_semantics += not config.semantics
        top = max(config.similarity_table)
        assert 0 <= config.example_match_min_level <= top
        for d, lex in _cases(seed):
            # The table must reach every code, as the resolver's depth check asks.
            assert lex.thesaurus.max_depth <= top
            assert all(len(code) <= top for frame in lex.case_frames.frames.values()
                       for slot in frame.slots for code in slot.constraints)
            for result in resolve_discourse(d, lex, config):
                anaphor = d.phrase(result.anaphor_id)
                assert result.all_scores == oracle_all_scores(
                    anaphor, result.slot, d, lex, config), (seed, result.anaphor_id)
                if result.all_scores:
                    # Score first, then the latest tied phrase, else the first
                    # tied pseudo candidate.
                    assert result.total == max(result.all_scores.values())
                    tied = [c for c, v in result.all_scores.items() if v == result.total]
                    real = [c for c in tied if isinstance(c, int)]
                    assert result.winner == (max(real) if real else tied[0])
                else:
                    assert result.winner is None and result.total == 0
                results += 1
    assert results >= 2000 and configs_without_semantics >= 30
