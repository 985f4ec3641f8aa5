import importlib.util
from pathlib import Path

import pytest

import bridgeref as br
from bridgeref.data import DEMO_CORPUS, LEXICON_DIR

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def corpora():
    documents = br.parse_corpus(DEMO_CORPUS.read_text(encoding="utf-8"))
    return {d.doc_id: d for d in documents}


@pytest.fixture(scope="session")
def lexicons():
    return br.load_lexicons(LEXICON_DIR)


@pytest.fixture(scope="session")
def config():
    return br.ResolverConfig.default()


@pytest.fixture(scope="session")
def workloads():
    """``bench/workloads.py``, which builds the benchmark's inputs.

    ``workloads.build(name, seed, ROOT, out)`` writes a workload's corpus
    into ``out`` and returns its spec, naming the corpus and lexicons.
    """
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
