"""One pass per document, checked on documents far longer than random_case's.

``resolve_discourse`` records the text before each target as it goes;
these checks hold it to a fresh ``resolve`` per target, to the independent
oracle in ``randgen`` and to the public salience list.
"""
from bridgeref.config import ResolverConfig
from bridgeref.corpus import validate_discourse
from bridgeref.resolver import SKIP, detect_targets, resolve, resolve_discourse
from bridgeref.salience import distance, salience_list
from randgen import oracle_all_scores, random_long_case


def _fields(result):
    return result, list(result.all_scores.items())


def test_one_pass_matches_resolve_oracle_and_salience_distance():
    default = ResolverConfig.default()
    lengths, targets, distances = set(), 0, 0
    for seed in range(200):
        d, lex = random_long_case(seed)
        config = default if seed % 4 else default.without_semantics()
        lengths.add(sum(1 for _ in d.phrases()))
        assert validate_discourse(d) == []

        swept = resolve_discourse(d, lex, config)
        alone = [resolve(d.phrase(t.phrase_id), t.slot, d, lex, config)
                 for t in detect_targets(d, lex) if t.mode != SKIP]
        assert [_fields(r) for r in swept] == [_fields(r) for r in alone]

        for result in swept:
            anaphor = d.phrase(result.anaphor_id)
            assert result.all_scores == oracle_all_scores(
                anaphor, result.slot, d, lex, config)
            entries = salience_list(d, anaphor)
            by_id = {e.phrase_id: e for e in entries}
            for proposal in result.proposals:
                if proposal.breakdown is None or proposal.breakdown.dist is None:
                    continue
                entry = by_id[proposal.candidate]
                assert proposal.breakdown.dist == distance(entry, anaphor, entries)
                distances += 1
        targets += len(swept)
    assert min(lengths) >= 60 and max(lengths) <= 150
    assert targets >= 2000 and distances >= 20000


def _documented_winner(all_scores):
    """(winner, total) by the documented rule, written apart from the resolver.

    Score first, then a real phrase over a pseudo candidate, then recency:
    the latest phrase, or among pseudo candidates the first one listed.
    """
    if not all_scores:
        return None, 0
    items = list(all_scores.items())

    def rank(position):
        candidate, points = items[position]
        real = isinstance(candidate, int)
        return points, real, candidate if real else -position

    return items[max(range(len(items)), key=rank)]


def test_winner_total_and_direct_follow_the_documented_rule():
    default = ResolverConfig.default()
    ties = mixed_ties = pseudo = direct = 0
    for seed in range(200):
        d, lex = random_long_case(seed)
        config = default if seed % 4 else default.without_semantics()
        for result in resolve_discourse(d, lex, config):
            assert (result.winner, result.total) == _documented_winner(result.all_scores)
            repeated = {p.candidate for p in result.proposals if p.rule == "R1"}
            assert result.direct is (isinstance(result.winner, int)
                                     and result.winner in repeated)
            top = [c for c, s in result.all_scores.items() if s == result.total]
            ties += len(top) > 1
            mixed_ties += len(top) > 1 and any(isinstance(c, str) for c in top)
            pseudo += isinstance(result.winner, str)
            direct += result.direct
    assert ties >= 500 and mixed_ties >= 20 and pseudo >= 500 and direct >= 500
