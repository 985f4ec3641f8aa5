"""One pass per document, checked on documents far longer than random_case's.

``resolve_discourse`` records the text before each target as it goes;
these checks hold it to a fresh ``resolve`` per target, to the independent
oracle in ``randgen`` and to the public salience list.  The run cache, which
lasts while the same lexicon set and config are passed, is checked against
interleaved pairs, threads and the lifetime of the documents it has seen.
"""
import dataclasses
import gc
import sys
import threading
import weakref
from pathlib import Path

from bridgeref import resolver
from bridgeref.config import ResolverConfig
from bridgeref.corpus import parse_corpus, validate_discourse
from bridgeref.lexicons import load_lexicons
from bridgeref.resolver import SKIP, detect_targets, resolve, resolve_discourse
from bridgeref.salience import distance, parse_weight_row, salience_list
from randgen import oracle_all_scores, random_case, random_long_case

ROOT = Path(__file__).resolve().parents[1]


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


def test_interleaved_lexicons_and_configs_keep_their_own_caches():
    default = ResolverConfig.default()
    weighted = dataclasses.replace(default, extra_weight_rows=(
        parse_weight_row("focus", "noun:no", 12),
        parse_weight_row("topic", "pronoun:no,de,he", 19)))
    configs = [default, default.without_semantics(), weighted]
    lexicons = [random_long_case(seed)[1] for seed in (1, 2)]
    pairs = [(lex, config) for config in configs for lex in lexicons]
    documents = [random_case(seed)[0] for seed in range(300)]

    interleaved = {}
    for n, d in enumerate(documents):
        for step in range(len(pairs)):
            k = (n + step) % len(pairs)       # each document starts at another pair
            interleaved[k, n] = resolve_discourse(d, *pairs[k])

    targets = 0
    for k, (lex, config) in enumerate(pairs):
        # Equal but new objects, so this pass starts from empty caches.
        alone_pair = dataclasses.replace(lex), dataclasses.replace(config)
        for n, d in enumerate(documents):
            results = interleaved[k, n]
            assert [_fields(r) for r in results] == [
                _fields(r) for r in resolve_discourse(d, *alone_pair)]
            for result in results:
                anaphor = d.phrase(result.anaphor_id)
                assert result.all_scores == oracle_all_scores(
                    anaphor, result.slot, d, lex, config)
                assert (result.winner, result.total) == _documented_winner(result.all_scores)
            targets += len(results)
    assert targets >= 3000


def test_run_cache_keeps_no_document_alive():
    d, lex = random_long_case(3)
    results = resolve_discourse(d, lex, ResolverConfig.default())
    assert results
    ref = weakref.ref(d)
    del d
    gc.collect()
    assert ref() is None


def test_threads_swapping_the_run_cache_never_mix_configs():
    default = ResolverConfig.default()
    lex = random_long_case(1)[1]
    configs = [default, default.without_semantics(),
               dataclasses.replace(default, subject_base=40),
               dataclasses.replace(default, similarity_table={
                   0: -9, 1: -6, 2: -3, 3: 0, 4: 3, 5: 6})]
    documents = [random_case(seed)[0] for seed in range(100)]
    expected = [[_fields(r) for d in documents for r in resolve_discourse(d, lex, config)]
                for config in configs]
    got = [[] for _ in configs]

    def work(k):
        for _ in range(3):
            got[k].append([_fields(r) for d in documents
                           for r in resolve_discourse(d, lex, configs[k])])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(configs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(len(configs)):
        assert got[k] == [expected[k]] * 3
    assert len(set(map(repr, expected))) == len(configs)


def _resolver_lines_per_target(workloads, copies, monkeypatch, tmp_path):
    """Lines of resolver.py run per target by ``resolve_discourse`` on the
    benchmark's ``long_doc`` built from ``copies`` copies of the demo set."""
    monkeypatch.setitem(workloads.SIZES["long_doc"], "copies", copies)
    spec = workloads.build("long_doc", 3, ROOT, tmp_path / str(copies))
    with open(spec["corpus"], encoding="utf-8") as f:
        [d] = parse_corpus(f.read())
    lex = load_lexicons(spec["lexicons"])      # new objects, so new run caches
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count

    def calls(frame, event, arg):
        return count if frame.f_code.co_filename == resolver.__file__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        results = resolve_discourse(d, lex, ResolverConfig.default())
    finally:
        sys.settrace(previous)
    assert len(results) > copies * 5
    return lines / len(results)


def test_a_targets_cost_does_not_grow_with_the_text_before_it(workloads, monkeypatch,
                                                              tmp_path):
    short = _resolver_lines_per_target(workloads, 8, monkeypatch, tmp_path)
    long = _resolver_lines_per_target(workloads, 64, monkeypatch, tmp_path)
    assert long <= 1.5 * short, (short, long)
