import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

TESTS = Path(__file__).resolve().parent
if str(TESTS) not in sys.path:
    sys.path.insert(0, str(TESTS))

FIXTURES = TESTS / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def toy_corpus_path() -> Path:
    return FIXTURES / "toy.txt"


@pytest.fixture(scope="session")
def toy_documents(toy_corpus_path):
    from distsem import read_documents

    return read_documents(toy_corpus_path, one_doc_per_line=True)


@pytest.fixture(scope="session")
def toy_config():
    from distsem import CorpusConfig

    return CorpusConfig(window_radius=3)


@pytest.fixture(scope="session")
def toy_counts(toy_documents, toy_config):
    from distsem import count_cooccurrences, tokenize_documents

    return count_cooccurrences(tokenize_documents(toy_documents, toy_config), toy_config)


@pytest.fixture(scope="session")
def toy_segments(toy_documents, toy_config):
    """Tokenized documents for brute-force oracles (document boundaries)."""
    from oracles import word_tokens

    return [word_tokens(doc) for doc in toy_documents]


@pytest.fixture(scope="session")
def toy_pairs(toy_segments, toy_config):
    from oracles import window_pairs

    return window_pairs(toy_segments, toy_config.window_radius)


@pytest.fixture(scope="session")
def toy_thesaurus(fixtures_dir):
    from distsem import load_thesaurus

    return load_thesaurus(fixtures_dir / "toy_thesaurus.tsv")


@pytest.fixture(scope="session")
def toy_taxonomy(fixtures_dir):
    from distsem import load_taxonomy

    return load_taxonomy(fixtures_dir / "toy_taxonomy.tsv")
