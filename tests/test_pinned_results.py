"""Every result of a few fixed corpora, pinned as one SHA-256 per corpus.

Each digest covers the ``repr`` of every result, with ``all_scores`` and
``proposals`` read, so a change to how results are computed must leave
every winner, total, score and proposal as it was.
"""
import hashlib
from pathlib import Path

import pytest

from bridgeref.config import ResolverConfig
from bridgeref.corpus import parse_corpus
from bridgeref.lexicons import load_lexicons
from bridgeref.resolver import resolve_discourse

ROOT = Path(__file__).resolve().parents[1]

PINNED = {
    "long_doc": "24fb1df355edd32247a85723d52f0bc2f427d7be9ca6ecc3f096c487ad91a49f",
    "many_short": "d68c007ba4855a56e7a26954b329e14d0c0c734ba3dade84106cdb163a842aa5",
    "demo": "75baeb6fe56e615ace1b6572cfcc1601f04948c9c0a51ecae50b4b041b50cad6",
    "demo-no-semantics": "df3b29cd34d86afad939c916cf1f999c715f3f3835feec47d760d122622218a2",
}


def _digest(documents, lexicons, config):
    h = hashlib.sha256()
    for d in documents:
        for result in resolve_discourse(d, lexicons, config):
            result.all_scores, result.proposals
            h.update(repr(result).encode())
    return h.hexdigest()


@pytest.mark.parametrize("workload", ["long_doc", "many_short"])
def test_bench_workload_results_are_pinned(workload, workloads, tmp_path):
    spec = workloads.build(workload, 3, ROOT, tmp_path)
    with open(spec["corpus"], encoding="utf-8") as f:
        documents = parse_corpus(f.read())
    assert _digest(documents, load_lexicons(spec["lexicons"]),
                   ResolverConfig.default()) == PINNED[workload]


@pytest.mark.parametrize("semantics", [True, False], ids=["demo", "demo-no-semantics"])
def test_demo_results_are_pinned(semantics, corpora, lexicons, config):
    if not semantics:
        config = config.without_semantics()
    name = "demo" if semantics else "demo-no-semantics"
    assert _digest(corpora.values(), lexicons, config) == PINNED[name]
