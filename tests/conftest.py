import os
import sys
import threading
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


@pytest.fixture
def fifo(tmp_path):
    """``fifo(data)`` makes a FIFO in ``tmp_path`` that a daemon thread feeds ``data`` (bytes).

    The first open for reading gets ``data``; each later one gets no bytes,
    as a second read of a drained pipe does.  At teardown each writer is
    released (by an open for reading that does not wait) and joined with a
    timeout, so a command that fails before it opens its FIFO, or opens it
    twice, cannot hang the run.
    """
    made = []

    def make(data: bytes) -> Path:
        path, stop = tmp_path / f"fifo{len(made)}", threading.Event()
        os.mkfifo(path)

        def feed():
            left = memoryview(data)
            while not stop.is_set():
                fd = os.open(path, os.O_WRONLY)  # waits for a reader
                try:
                    while left and not stop.is_set():
                        left = left[os.write(fd, left):]
                except BrokenPipeError:  # the reader left before the end
                    pass
                finally:
                    os.close(fd)
                left = left[:0]
                stop.wait(0.01)  # while a reader holds the FIFO, opens for writing do not wait

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        made.append((path, stop, writer))
        return path

    yield make
    for path, stop, writer in made:
        stop.set()
        release = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        writer.join(timeout=5)
        os.close(release)
        assert not writer.is_alive(), f"the writer of {path} did not end"


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
