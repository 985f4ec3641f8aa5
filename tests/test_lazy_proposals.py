"""A result's ``all_scores`` and ``proposals`` are built the first time either is read.

Resolution decides each winner from the candidates that can still win, so
``bridgeref resolve`` builds no totals and no ``Proposal``.  A result holds
what building them needs and builds them once, on the first read, from any
thread and at any point of the stream; until then clones see the same
fields as after it.
"""
import copy
import dataclasses
import functools
import pickle
import sys
import threading
from pathlib import Path

import pytest

from bridgeref import resolver
from bridgeref.cli import main
from bridgeref.config import ResolverConfig
from bridgeref.resolver import (
    ResolutionResult,
    _resolve_stream,
    resolve,
    resolve_discourse,
)
from randgen import random_case, random_long_case

ROOT = Path(__file__).resolve().parents[1]


def _pending(result):
    """Whether the result's proposals were never read."""
    return type(ResolutionResult.proposals.slot.__get__(result)) is functools.partial


def _alone(result, d, lex, config):
    return resolve(d.phrase(result.anaphor_id), result.slot, d, lex, config).proposals


@pytest.fixture
def counted_builds(monkeypatch):
    """Each ``all_scores`` built since the fixture was set up, as "totals", and
    the rule of each proposal the resolver built."""
    built = []
    build, proposal = resolver._build_scores, resolver.Proposal

    def counting_build(*args):
        built.append("totals")
        return build(*args)

    def counting_proposal(*args, **kwargs):
        made = proposal(*args, **kwargs)
        built.append(made.rule)
        return made

    monkeypatch.setattr(resolver, "_build_scores", counting_build)
    monkeypatch.setattr(resolver, "Proposal", counting_proposal)
    return built


def test_resolve_command_builds_no_weighted_proposal(tmp_path, counted_builds, workloads):
    long_doc = workloads.build("long_doc", 3, ROOT, tmp_path / "long_doc")
    inputs = ["--corpus", long_doc["corpus"], "--lexicons", long_doc["lexicons"]]
    assert main(["resolve", *inputs, "--out", str(tmp_path / "preds.tsv")]) == 0
    predictions = (tmp_path / "preds.tsv").read_text(encoding="utf-8").splitlines()
    assert len(predictions) > 200
    assert counted_builds == []
    # The count sees the totals and proposals a table reads, of every rule.
    last = predictions[-1].split()[1]
    assert main(["explain", *inputs, "--anaphor", f"long:{last}"]) == 0
    assert counted_builds.count("totals") == 1 and {"R1", "R4"} <= set(counted_builds)


@pytest.mark.parametrize("case", [random_long_case, random_case],
                         ids=lambda case: case.__name__)
def test_proposals_add_up_to_the_totals_in_their_order(case):
    # Each result's proposals must sum to its totals, candidate by candidate,
    # in key order.
    default = ResolverConfig.default()
    checked = 0
    for seed in range(60):
        d, lex = case(seed)
        for config in (default, default.without_semantics()):
            for result in resolve_discourse(d, lex, config):
                sums = {}
                for proposal in result.proposals:
                    sums[proposal.candidate] = sums.get(proposal.candidate, 0) + proposal.points
                assert list(sums.items()) == list(result.all_scores.items()), (seed, config)
                checked += 1
    assert checked >= 100


def test_an_unread_result_clones_equal_to_itself():
    d, lex = random_long_case(5)
    config = ResolverConfig.default()
    clones = [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy,
              dataclasses.replace]
    for clone in clones:
        results = [r for r in resolve_discourse(d, lex, config) if _pending(r)]
        assert len(results) > 10
        for result in results:
            cloned = clone(result)
            assert type(cloned) is ResolutionResult and not _pending(cloned)
            assert cloned == result and repr(cloned) == repr(result)
            assert cloned.proposals == _alone(result, d, lex, config)


def test_a_result_reads_the_same_proposals_mid_stream_after_it_and_from_threads():
    config = ResolverConfig.default()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(20):
            d, lex = random_long_case(seed)
            stream = _resolve_stream(d, lex, config)
            first = next(r for r in stream if _pending(r))
            early = next(r for r in stream if _pending(r))    # first read from threads
            mid_stream = first.proposals
            results = list(stream)
            assert results
            assert first.proposals is mid_stream
            assert mid_stream == _alone(first, d, lex, config)
            late = next(r for r in reversed(results) if _pending(r))
            assert late.proposals == _alone(late, d, lex, config)

            reads = []
            barrier = threading.Barrier(3)

            def read(result):
                barrier.wait(timeout=30)
                reads.append((result.proposals, first.proposals))

            threads = [threading.Thread(target=read, args=(early,)) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(reads) == 3
            assert all(got is early.proposals and again is mid_stream
                       for got, again in reads)
            assert early.proposals == _alone(early, d, lex, config)
    finally:
        sys.setswitchinterval(interval)


def test_unread_proposals_keep_the_breakdowns_of_their_own_run():
    d, lex = random_long_case(2)
    config = ResolverConfig.default()
    other = dataclasses.replace(config, subject_base=40)
    results = resolve_discourse(d, lex, config)
    assert any(_pending(r) for r in results)
    resolve_discourse(d, lex, other)              # another pair's run caches
    for result in results:
        assert result.proposals == _alone(result, d, lex, config)
    assert any(p.breakdown is not None for r in results for p in r.proposals)
