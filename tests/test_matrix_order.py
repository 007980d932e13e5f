"""Every way of building a counts or WCCM matrix holds it in counts-file order.

Targets are sorted by name and features by rendered form, so the rows, and
the cells within each row, come in the order the files list them.
"""

import pytest

from distsem import (
    WCCM,
    BilingualLexicon,
    CooccurrenceCounts,
    bootstrap_wccm,
    build_base_wccm,
    build_crosslingual_wccm,
    count_cooccurrences,
    ingest_triples,
    load_counts,
    load_wccm,
    merge_counts,
    tokenize_documents,
)
from distsem.corpus import render_feature

# "obj" < "obj-x" as labels, but "obj-x:..." < "obj:..." as rendered features
TRIPLES = ["eat\tobj\tapple", "eat\tobj-x\tbread", "drink\tobj\tsoup", "bread\tsubj\teat"]

# neither file lists its targets or features in sorted order
UNSORTED_COUNTS = "#counts\ttotal_pairs=6\ttotal_tokens=6\nb\tz\t1\na\ty\t2\nb\ta\t3\n"
UNSORTED_WCCM = "#wccm\tkind=base\nz\tc2\t1.0\ny\tc1\t2.0\na\tc2\t3.0\n"

BUILD_PATHS = [
    "count_cooccurrences",
    "ingest_triples",
    "merge_counts",
    "from_pairs",
    "load_counts",
    "build_base_wccm",
    "build_crosslingual_wccm",
    "bootstrap_wccm-1",
    "bootstrap_wccm-2",
    "load_wccm",
]


def build(path, documents, config, thesaurus, tmp_path):
    def counted(docs):
        return count_cooccurrences(tokenize_documents(docs, config), config)

    def loaded(load, text):
        file = tmp_path / "matrix.tsv"
        file.write_text(text, encoding="utf-8")
        return load(file)

    counts = counted(documents)
    base = build_base_wccm(counts, thesaurus)
    if path == "count_cooccurrences":
        return counts
    if path == "ingest_triples":
        return ingest_triples(TRIPLES)
    if path == "merge_counts":
        return merge_counts([counted(documents[6:]), counted(documents[:6])])
    if path == "from_pairs":
        return CooccurrenceCounts.from_pairs({("b", "z"): 1, ("a", "y"): 2, ("b", "a"): 3})
    if path == "load_counts":
        return loaded(load_counts, UNSORTED_COUNTS)
    if path == "build_base_wccm":
        return base
    if path == "build_crosslingual_wccm":
        lexicon = BilingualLexicon({w: frozenset({w}) for w in reversed(counts.targets)})
        return build_crosslingual_wccm(counts, lexicon, thesaurus)
    if path.startswith("bootstrap_wccm"):
        tokens = tokenize_documents(documents, config)
        return bootstrap_wccm(tokens, base, thesaurus, config, iterations=int(path[-1]))
    return loaded(load_wccm, UNSORTED_WCCM)


@pytest.mark.parametrize("path", BUILD_PATHS)
def test_targets_and_features_are_sorted(path, toy_documents, toy_config, toy_thesaurus, tmp_path):
    matrix = build(path, toy_documents, toy_config, toy_thesaurus, tmp_path)
    if isinstance(matrix, WCCM):
        assert matrix.categories() == matrix.matrix.targets
        matrix = matrix.matrix
    keys = matrix.feature_keys.tolist()
    assert matrix.targets and keys
    assert matrix.targets == sorted(matrix.targets)
    assert keys == sorted(keys)
    cells = [(target, render_feature(feature)) for target, feature, _ in matrix.items()]
    assert cells == sorted(cells)
