"""Knowledge-rich measures over a typed concept hierarchy.

The hierarchy is a labeled multigraph of concepts.  One relation label
(``isa`` by default) forms the hypernymy subgraph, which must be acyclic and
carries depth, subsumer, and information-content computations; path-based
scores walk edges of every label.

Information content is corpus-derived: each occurrence of a mapped word
credits every concept the word maps to plus all hypernym ancestors, once per
occurrence.  A concept's probability is its credit over the root's, and its
information content the negative log of that.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, islice, repeat
from typing import Optional

import numpy as np

from .assoc import check_log_base
from .corpus import (
    _integer,
    _record_columns,
    _split_lines,
    data_runs,
    read_tagged_tsv,
    write_tagged_tsv,
)
from .errors import (
    ConfigurationError,
    MissingICError,
    MissingWordError,
    NoPathError,
    ParseError,
    ValidationError,
    ZeroCreditWarning,
)

#: Bytes the (word, concept) pairs of one chunk of words may take in the IC build.
_CHUNK_BYTES = 1 << 21

#: Bytes one pair takes while it goes up a level: its key, its level and their copies.
_PAIR_BYTES = 48


class Taxonomy:
    """A concept hierarchy held on integer ids: concepts, relation labels and
    words are numbered, and edges and word senses are id arrays.  The name
    views ``nodes``, ``edges`` and ``word_map`` are built on first use."""

    def __init__(
        self, nodes: dict[str, str], edges: list[tuple[str, str, str]],
        word_map: Optional[dict[str, frozenset]] = None, hypernym_relation: str = "isa",
    ):
        """From name-keyed views, turned into ids for :meth:`from_ids`; a word
        with no sense is left out.  An edge end or word sense that is not a
        node ends in :class:`ValidationError`."""
        senses = [(word, concept) for word, concepts in (word_map or {}).items() for concept in concepts]
        edge_columns, sense_columns = tuple(zip(*edges)) or ((), (), ()), tuple(zip(*senses)) or ((), ())
        index, labels = _numbered(nodes), list(nodes.values())
        self._build(*_id_columns(index, labels, edge_columns, sense_columns, _invalid), hypernym_relation)

    @classmethod
    def from_ids(cls, names, labels, edges, relations, words, senses, hypernym_relation="isa"):
        """A taxonomy of the concepts ``names``, with their ``labels``, from id arrays.

        ``edges`` holds each edge's child, parent and relation ids, a relation
        id indexing ``relations``; ``senses`` holds (word id, concept id)
        pairs, a word id indexing ``words``.  Ids must be in range, each word
        must have a pair, and a repeated pair counts once.  A cycle of
        ``hypernym_relation`` edges ends in :class:`ValidationError`.  The
        name views are built on first use.
        """
        taxonomy = cls.__new__(cls)
        taxonomy._build(names, labels, edges, relations, words, senses, hypernym_relation)
        return taxonomy

    def _build(self, names, labels, edges, relations, words, senses, hypernym_relation) -> None:
        n = len(names)
        self._names, self._labels, self._words = names, labels, words
        self._child, self._parent, relation = (np.asarray(ids, dtype=np.int64) for ids in edges)
        distinct = _numbered(relations)  # a label given twice gets one id
        self._relations, self._relation = list(distinct), _lookup(distinct, relations)[relation]
        self.hypernym_relation = hypernym_relation
        # each word's senses, once each
        owner, concept = (np.asarray(ids, dtype=np.int64) for ids in senses)
        owner, concept = np.divmod(_distinct(owner * n + concept), max(n, 1))
        self._sense_ptr, self._senses = _csr(owner, concept, len(words))
        hyper = np.array([label == hypernym_relation for label in distinct], dtype=bool)[self._relation]
        child, parent = self._child[hyper], self._parent[hyper]
        # each concept's hypernyms in edge order, and its hyponyms
        self._up_ptr, self._up = _csr(child, parent, n)
        self._down_ptr, self._down = _csr(parent, child, n)
        self._depths = self._compute_depths()
        self.roots = sorted(self._names[i] for i in np.flatnonzero(self._depths == 0).tolist())
        self.depth = int(self._depths.max()) if n else 0
        if n > 1 and self.depth < 1:
            raise ValidationError("hypernymy subgraph has no edges")

    @cached_property
    def nodes(self) -> dict[str, str]:
        """Concept name -> label, in id order."""
        return dict(zip(self._names, self._labels))

    @cached_property
    def edges(self) -> list[tuple[str, str, str]]:
        """(child, parent, relation) of each edge, in edge order."""
        names, relations, ids = self._names, self._relations, (self._child, self._parent, self._relation)
        return [(names[c], names[p], relations[r]) for c, p, r in zip(*(a.tolist() for a in ids))]

    @cached_property
    def word_map(self) -> dict[str, frozenset]:
        """Word -> the names of its senses."""
        ptr, senses = self._sense_ptr.tolist(), list(map(self._names.__getitem__, self._senses.tolist()))
        return {word: frozenset(senses[ptr[i] : ptr[i + 1]]) for i, word in enumerate(self._words)}

    @cached_property
    def _ids(self) -> dict[str, int]:
        return _numbered(self._names)

    @cached_property
    def _word_ids(self) -> dict[str, int]:
        return _numbered(self._words)

    @cached_property
    def _links(self) -> tuple[list[int], list[int], list[int]]:
        """Each concept's links over edges of every label, both directions, in
        edge order: row pointers, and each link's neighbor and relation id."""
        ends = np.stack([self._child, self._parent], axis=1).ravel()  # link 2e: edge e from its child
        ptr, links = _csr(ends, np.arange(ends.size), len(self._names))
        return ptr.tolist(), ends[links ^ 1].tolist(), self._relation[links >> 1].tolist()

    def _compute_depths(self) -> np.ndarray:
        """Longest hypernym chain from any root, by one level-synchronous Kahn pass.

        A concept joins the level after the last of its hypernyms; concepts
        never reached lie on or below a cycle.
        """
        waiting = np.diff(self._up_ptr)
        depths = np.zeros(len(waiting), dtype=np.int64)
        level, depth = np.flatnonzero(waiting == 0), 0
        while level.size:
            depths[level] = depth
            below = _rows(self._down_ptr, self._down, level)[0]
            np.subtract.at(waiting, below, 1)
            level, depth = _distinct(below[waiting[below] == 0]), depth + 1
        if waiting.any():
            # walk up through unreached hypernyms until a concept repeats
            node, seen = int(np.flatnonzero(waiting)[0]), set()
            while node not in seen:
                seen.add(node)
                parents = self._up[self._up_ptr[node] : self._up_ptr[node + 1]]
                node = int(parents[waiting[parents] > 0][0])
            raise ValidationError(f"hypernymy cycle through {self._names[node]!r}")
        return depths

    def node_depth(self, concept: str) -> int:
        self._require(concept)
        return int(self._depths[self._ids[concept]])

    def ancestors(self, concept: str) -> frozenset:
        """Hypernym closure of a concept, including itself."""
        self._require(concept)
        return frozenset(map(self._names.__getitem__, self._closure(self._ids[concept])))

    def _closure(self, node: int) -> set[int]:
        """Numbers of the concepts in the hypernym closure of concept number ``node``."""
        ptr, up = self._up_lists
        seen, stack = {node}, [node]
        while stack:
            below = stack.pop()
            for parent in up[ptr[below] : ptr[below + 1]]:
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return seen

    @cached_property
    def _up_lists(self) -> tuple[list[int], list[int]]:
        """The hypernym rows as lists, which a walk from one concept reads fastest."""
        return self._up_ptr.tolist(), self._up.tolist()

    def _require(self, concept: str) -> None:
        if concept not in self._ids:
            raise MissingWordError(f"concept {concept!r} is not in the taxonomy")


def _csr(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pointers and ``cols`` grouped by row, each row's in their given order."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return ptr, cols[np.argsort(rows, kind="stable")]


def _rows(ptr: np.ndarray, values: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows ``rows`` joined in that order, and each row's length."""
    starts = ptr[rows]
    lengths = ptr[rows + 1] - starts
    picks = (starts - lengths.cumsum() + lengths).repeat(lengths)
    picks += np.arange(picks.size)
    return values[picks], lengths


def _lookup(ids: dict[str, int], names) -> np.ndarray:
    """The id of each of ``names``, -1 for a name not in ``ids``."""
    return np.fromiter(map(ids.get, names, repeat(-1)), dtype=np.int64, count=len(names))


def _numbered(keys) -> dict[str, int]:
    """Each distinct key of ``keys`` -> its number, in first-seen order."""
    return dict(zip(dict.fromkeys(keys), count()))


#: Each record of a taxonomy file, as (tag, field count) -> field that may not be empty -> message.
_RECORDS = {
    ("NODE", 3): {1: "empty concept name"},
    ("EDGE", 4): {1: "empty concept name", 2: "empty concept name", 3: "empty relation"},
    ("WORD", 3): {1: "empty word", 2: "empty concept name"},
}


def load_taxonomy(path, hypernym_relation: str = "isa") -> Taxonomy:
    """Read ``NODE``, ``EDGE``, and ``WORD`` tab-separated record lines.

    The lines follow the rules of :func:`~distsem.corpus._runs`, read in
    pieces by :func:`~distsem.corpus.data_runs`.  Each run of data lines is
    taken apart as columns and checked as a whole; a run with a bad line is
    walked again one line at a time, so the first bad line, or line of bytes
    that are not UTF-8, ends in :class:`ParseError`.  Then the first edge,
    and then the first ``WORD`` line, naming a concept that no ``NODE`` line
    declares ends in :class:`ParseError` at its line.  The taxonomy is built
    from id arrays (:meth:`Taxonomy.from_ids`); its name views are built on
    first use.
    """
    index: dict[str, int] = {}  # node name -> id, in NODE line order
    lines = [[np.empty(0, dtype=np.int64)] for _ in _RECORDS]  # each record kind's line numbers
    fields = [[[] for _ in range(width - 1)] for _, width in _RECORDS]  # and fields after the tag
    for first, text in data_runs(path):
        known, found = len(index), _record_columns(text, _RECORDS)
        names = found[0][1][0] if found else []
        index.update(zip(names, count(known)))
        if found is None or len(index) < known + len(names) or not all(
            all(columns[f - 1]) for (_, columns), checks in zip(found, _RECORDS.values()) for f in checks
        ):
            _first_bad_record(path, first, text, set(islice(index, known)))
        for kind, (at, columns) in enumerate(found):
            lines[kind].append(first + at)
            for column, values in zip(fields[kind], columns):
                column += values
    if not index:
        raise ConfigurationError(f"{path}: taxonomy file has no nodes")

    def refuse(kind: int, at: int, message: str):
        raise ParseError(str(path), int(np.concatenate(lines[kind])[at]), message)

    labels, edges, senses = fields[0][1], fields[1], fields[2]
    return Taxonomy.from_ids(*_id_columns(index, labels, edges, senses, refuse), hypernym_relation)


def _id_columns(index: dict[str, int], labels, edges, senses, refuse) -> tuple:
    """The concept names, labels and id arrays :meth:`Taxonomy.from_ids` takes, from names.

    ``index`` numbers the concepts; ``edges`` holds the child, parent and
    relation of each edge, and ``senses`` the word and concept of each
    (word, sense) pair.  Words and relations are numbered in first-seen
    order.  The first edge, and then the first pair, naming a concept not in
    ``index`` goes to ``refuse(kind, position, message)``, with kind 1 for
    an edge and 2 for a pair.
    """
    (children, parents, relations), (words, concepts) = edges, senses
    child, parent, sense = (_lookup(index, column) for column in (children, parents, concepts))
    if (bad := np.flatnonzero((child < 0) | (parent < 0))).size:
        refuse(1, bad[0], f"edge {children[bad[0]]!r} -> {parents[bad[0]]!r} uses unknown node")
    if (bad := np.flatnonzero(sense < 0)).size:
        refuse(2, bad[0], f"word {words[bad[0]]!r} maps to unknown concept {concepts[bad[0]]!r}")
    relation_ids, word_ids = _numbered(relations), _numbered(words)
    edge_ids = (child, parent, _lookup(relation_ids, relations))
    sense_ids = (_lookup(word_ids, words), sense)
    return list(index), labels, edge_ids, list(relation_ids), list(word_ids), sense_ids


def _invalid(kind: int, at: int, message: str):
    raise ValidationError(message)


def _first_bad_record(path, first: int, text: str, seen: set[str]):
    """Raise the :class:`ParseError` of the first bad line of ``text``, lines
    numbered from ``first``; ``seen`` holds the nodes of the lines before."""
    for number, line in enumerate(text.split("\n"), first):
        parts = line.split("\t")
        checks = _RECORDS.get((parts[0], len(parts)))
        if checks is None:
            raise ParseError(str(path), number, f"unrecognized record {line!r}")
        for field, message in checks.items():
            if not parts[field]:
                raise ParseError(str(path), number, message)
        if parts[0] == "NODE":
            if parts[1] in seen:
                raise ParseError(str(path), number, f"duplicate node {parts[1]!r}")
            seen.add(parts[1])
    raise AssertionError(f"{path}: no bad line among lines {first} on")


def _layered_search(
    taxonomy: Taxonomy, c1: str, c2: str, relation: Optional[str] = None
) -> tuple[int, int]:
    """Shortest path length from ``c1`` to ``c2`` and its fewest relation changes.

    Searches from both concepts, one whole layer at a time, growing the
    frontier with fewer adjacency entries; with ``relation`` it walks only
    edges of that label.  It stops at the first layer that reaches a concept
    in the other side's frontier.  The length is then the two sides' layer
    counts added, and every shortest path passes through exactly one of these
    meeting concepts.  The fewest changes are the least, over the meeting
    concepts and the labels ``l1`` of the edge reaching one from ``c1`` and
    ``l2`` of the edge leaving it toward ``c2``, of the changes on each half
    plus one if ``l1 != l2``; at ``c1`` or ``c2`` itself, which no edge
    reaches, the other half's fewest changes.
    """
    if c1 == c2:
        return 0, 0
    ptr = taxonomy._links[0]
    allowed = [relation is None or label == relation for label in taxonomy._relations]
    # per side: concept id -> relation id of the edge toward that side's end -> fewest changes
    ends = [taxonomy._ids[c1], taxonomy._ids[c2]]
    fronts: list[dict[int, dict[int, int]]] = [{end: {}} for end in ends]
    seen = [{end} for end in ends]
    work = [ptr[end + 1] - ptr[end] for end in ends]
    length = 0
    while True:
        side = 0 if work[0] <= work[1] else 1
        fronts[side] = _next_layer(taxonomy._links, fronts[side], seen[side], allowed)
        work[side] = sum(ptr[node + 1] - ptr[node] for node in fronts[side])
        length += 1
        if not fronts[side]:
            kind = "path" if relation is None else "hypernymy path"
            raise NoPathError(f"no {kind} between {c1!r} and {c2!r}")
        head, tail = fronts
        meeting = head.keys() & tail.keys()
        if meeting:
            return length, min(_joined_changes(head[m], tail[m]) for m in meeting)


def _next_layer(
    links: tuple[list[int], list[int], list[int]],
    layer: dict[int, dict[int, int]],
    seen: set,
    allowed: list[bool],
) -> dict[int, dict[int, int]]:
    """The concepts one link of an ``allowed`` relation beyond ``layer`` and not yet ``seen``,
    which it then holds; ``links`` are :attr:`Taxonomy._links`."""
    ptr, neighbors, labels = links
    next_layer: dict[int, dict[int, int]] = {}
    for node, costs in layer.items():
        # a new label costs one change over the best path here; an end has none yet
        turn = min(costs.values(), default=-1) + 1
        lo, hi = ptr[node], ptr[node + 1]
        for neighbor, label in zip(neighbors[lo:hi], labels[lo:hi]):
            if neighbor in seen or not allowed[label]:
                continue
            cost = min(costs.get(label, turn), turn)
            slot = next_layer.setdefault(neighbor, {})
            if cost < slot.get(label, turn + 1):
                slot[label] = cost
    seen.update(next_layer)
    return next_layer


def _joined_changes(head: dict[str, int], tail: dict[str, int]) -> int:
    """Fewest changes of a path joined at one concept from its two halves' costs."""
    if not head or not tail:
        return min((head or tail).values())
    return min(h + t + (l1 != l2) for l1, h in head.items() for l2, t in tail.items())


def shortest_path(taxonomy: Taxonomy, c1: str, c2: str) -> tuple[int, int]:
    """Length of the shortest path over all edge types, plus its relation changes.

    Among equal-length paths the one with the fewest changes of relation
    label between consecutive edges is chosen.  The search grows from both
    concepts and stops where the two frontiers meet (see ``_layered_search``),
    so ``shortest_path(t, a, b) == shortest_path(t, b, a)``.
    """
    taxonomy._require(c1)
    taxonomy._require(c2)
    return _layered_search(taxonomy, c1, c2)


def check_hs_constants(c_const: float, k: float, names: tuple[str, str] = ("C", "k")) -> None:
    """Refuse a Hirst-St-Onge constant that is negative or not finite (ConfigurationError)."""
    for name, value in zip(names, (c_const, k)):
        if not 0.0 <= value < math.inf:
            raise ConfigurationError(f"{name} must be finite and >= 0, not {value}")


def hirst_stonge(
    taxonomy: Taxonomy, c1: str, c2: str, c_const: float = 8.0, k: float = 1.0
) -> float:
    """Path-based relatedness discounted by length and relation turns, floored at 0."""
    check_hs_constants(c_const, k)
    try:
        length, changes = shortest_path(taxonomy, c1, c2)
    except NoPathError:
        return 0.0
    return max(0.0, c_const - length - k * changes)


def leacock_chodorow(
    taxonomy: Taxonomy, c1: str, c2: str, log_base: float = 2.0
) -> float:
    """Negative log of hypernymy path length scaled by twice the taxonomy depth."""
    check_log_base(log_base)
    taxonomy._require(c1)
    taxonomy._require(c2)
    length = max(_layered_search(taxonomy, c1, c2, taxonomy.hypernym_relation)[0], 1)
    depth = taxonomy.depth
    if depth < 1:
        raise ConfigurationError("taxonomy depth must be at least 1")
    return -math.log(length / (2.0 * depth)) / math.log(log_base)


@dataclass
class ICTable:
    prob: dict[str, float]
    ic: dict[str, float]
    log_base: float = 2.0

    def ic_of(self, concept: str) -> float:
        if concept not in self.ic:
            raise MissingICError(f"no information content for {concept!r}")
        return self.ic[concept]


def ic_from_counts(
    taxonomy: Taxonomy, word_frequencies: dict[str, int], log_base: float = 2.0
) -> ICTable:
    """Propagate word-occurrence credit up the hierarchy and take negative logs.

    Requires a single root.  Concepts left with zero credit are floored to
    half of one occurrence's share and flagged with a warning.  The mapped
    frequencies may total at most 2**53, so that every credit is a sum of
    integers float64 holds exactly, whatever the order of addition.
    """
    check_log_base(log_base)
    if len(taxonomy.roots) != 1:
        raise ConfigurationError("information content needs a single-root taxonomy")
    negative = [word for word, freq in word_frequencies.items() if freq < 0]
    if negative:
        raise ValidationError(f"negative frequency for {min(negative)!r}")
    index = taxonomy._word_ids
    words = [w for w, freq in word_frequencies.items() if freq and w in index]
    total = sum(map(word_frequencies.__getitem__, words))
    if total == 0:
        raise ConfigurationError("no word occurrences mapped into the taxonomy")
    if total > 2**53:
        raise ValidationError(
            "word frequencies mapped into the taxonomy total more than 2**53, "
            "which float64 cannot add exactly"
        )
    credit = _credit(
        taxonomy,
        np.fromiter(map(index.__getitem__, words), dtype=np.int64, count=len(words)),
        np.fromiter(map(word_frequencies.__getitem__, words), dtype=np.float64, count=len(words)),
    )

    root = taxonomy.roots[0]
    root_credit = credit[taxonomy._ids[root]]
    floor = 1.0 / (2.0 * root_credit)
    prob = dict(zip(taxonomy._names, np.where(credit > 0, credit / root_credit, floor).tolist()))
    floored = np.flatnonzero(credit == 0)
    if floored.size:
        warnings.warn(
            f"concepts with zero corpus credit floored: {sorted(taxonomy._names[i] for i in floored)}",
            ZeroCreditWarning,
            stacklevel=2,
        )
    log_norm = math.log(log_base)
    ic = {node: -math.log(p) / log_norm for node, p in prob.items()}
    ic[root] = 0.0
    return ICTable(prob=prob, ic=ic, log_base=log_base)


def _credit(taxonomy: Taxonomy, words: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each concept's credit: the ``weights`` of the ``words`` (ids) whose senses it subsumes.

    The (word, concept) pairs of a chunk of words go up the hierarchy one
    depth level at a time, deepest first.  Every hyponym of a concept lies
    deeper, so a concept's pairs are all found when its level comes, and one
    sort drops the repeats of a word that reaches it along several paths.
    A chunk's words reach about ``_CHUNK_BYTES / _PAIR_BYTES`` pairs,
    counting ``depth + 1`` per sense.
    """
    n, depths = len(taxonomy._names), taxonomy._depths
    senses, sizes = _rows(taxonomy._sense_ptr, taxonomy._senses, words)
    owners = np.repeat(np.arange(words.size, dtype=np.int64), sizes)
    ends = np.cumsum(sizes)
    reach = np.cumsum(depths[senses] + 1)[ends - 1]
    step = _CHUNK_BYTES // _PAIR_BYTES
    cuts = ends[np.searchsorted(reach, np.arange(step, reach[-1], step))]
    bounds = _distinct(np.concatenate([[0], cuts, [senses.size]])).tolist()
    credit = np.zeros(n)
    for lo, hi in zip(bounds, bounds[1:]):
        keys, levels = owners[lo:hi] * n + senses[lo:hi], depths[senses[lo:hi]]
        found = []
        while keys.size:
            deepest = levels == levels.max()
            pairs = _distinct(keys[deepest])
            found.append(pairs)
            owner, concept = np.divmod(pairs, n)
            parents, fanout = _rows(taxonomy._up_ptr, taxonomy._up, concept)
            keys = np.concatenate([keys[~deepest], owner.repeat(fanout) * n + parents])
            levels = np.concatenate([levels[~deepest], depths[parents]])
        owner, concept = np.divmod(np.concatenate(found), n)
        credit += np.bincount(concept, weights=weights[owner], minlength=n)
    return credit


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted (by a sort: numpy's hashing ``unique`` is slower here)."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def lso(
    taxonomy: Taxonomy, c1: str, c2: str, ic: Optional[ICTable] = None
) -> str:
    """Lowest superordinate: the deepest common hypernym ancestor.

    Depth ties break by higher information content when a table is supplied,
    then by lexicographic id.
    """
    taxonomy._require(c1)
    taxonomy._require(c2)
    ids = taxonomy._ids
    common = list(taxonomy._closure(ids[c1]) & taxonomy._closure(ids[c2]))
    if not common:
        raise NoPathError(f"{c1!r} and {c2!r} share no hypernym ancestor")
    depths = taxonomy._depths[common].tolist()
    top = max(depths)
    deepest = [taxonomy._names[i] for i, depth in zip(common, depths) if depth == top]

    def sort_key(node: str):
        return (-(ic.ic.get(node, 0.0) if ic is not None else 0.0), node)

    return min(deepest, key=sort_key)


def resnik(taxonomy: Taxonomy, c1: str, c2: str, ic: ICTable) -> float:
    """Information content of the lowest superordinate."""
    return ic.ic_of(lso(taxonomy, c1, c2, ic))


def jiang_conrath(taxonomy: Taxonomy, c1: str, c2: str, ic: ICTable) -> float:
    """Summed information-content distance of both concepts from their subsumer."""
    shared = ic.ic_of(lso(taxonomy, c1, c2, ic))
    return ic.ic_of(c1) + ic.ic_of(c2) - 2.0 * shared


def lin_taxonomy(taxonomy: Taxonomy, c1: str, c2: str, ic: ICTable) -> float:
    """Shared information content over total information content, in [0, 1]."""
    ic1 = ic.ic_of(c1)
    ic2 = ic.ic_of(c2)
    if ic1 + ic2 == 0.0:
        return 1.0
    shared = ic.ic_of(lso(taxonomy, c1, c2, ic))
    return 2.0 * shared / (ic1 + ic2)


def save_ic_table(table: ICTable, path, extra_header: list[str] = ()) -> None:
    body = (
        f"{concept}\t{repr(table.prob[concept])}\t{repr(table.ic[concept])}\n"
        for concept in sorted(table.prob)
    )
    write_tagged_tsv(path, "ic", {"log_base": repr(table.log_base)}, body, extra_header)


def load_ic_table(path) -> ICTable:
    """Read a table written by :func:`save_ic_table`.

    Each concept comes once, with a ``prob`` in (0, 1] and a finite ``ic``
    of the sign its log base gives: at least 0 (the root's value) for a base
    above 1.  As in a counts file, the first line with a bad value, and then
    the first repeated concept, ends in :class:`ParseError`; so does a
    header ``log_base`` that :func:`check_log_base` refuses.
    """
    fields, _, blocks = read_tagged_tsv(
        path,
        "ic",
        {"concept": str, "prob": float, "ic": float},
        {"log_base": lambda text: check_log_base(float(text))},
        bad_value="non-numeric prob or ic",
    )
    prob: dict[str, float] = {}
    ic: dict[str, float] = {}
    parts: list[tuple] = []
    for numbers, (concepts, probs, ics) in blocks:
        parts.append((numbers, probs, ics, concepts))
        prob.update(zip(concepts, probs.tolist()))
        ic.update(zip(concepts, ics.tolist()))
    if not prob:
        raise ValidationError(f"{path}: empty information-content table")
    log_base = fields.get("log_base", 2.0)
    numbers, probs, ics = (np.concatenate(column) for column in list(zip(*parts))[:3])
    sign = 1.0 if log_base > 1.0 else -1.0
    bad = ~((probs > 0.0) & (probs <= 1.0) & np.isfinite(ics) & (ics * sign >= 0.0))
    if bad.any():
        at = np.flatnonzero(bad)[0]
        p, value = probs[at].item(), ics[at].item()
        rule = f"prob {p!r} is outside (0, 1]" if not 0.0 < p <= 1.0 else (
            f"ic {value!r} must be finite and {'>=' if sign > 0 else '<='} 0"
        )
        raise ParseError(str(path), int(numbers[at]), rule)
    if len(prob) < numbers.size:
        first: dict[str, int] = {}
        for number, concept in zip(numbers.tolist(), chain.from_iterable(part[3] for part in parts)):
            if first.setdefault(concept, number) != number:
                raise ParseError(str(path), number, f"repeats the concept of line {first[concept]}")
    return ICTable(prob=prob, ic=ic, log_base=log_base)


#: The columns of a word frequency table.
_FREQUENCY_COLUMNS = {"word": str, "count": _integer}


def load_word_frequencies(path) -> dict[str, int]:
    """Read a ``word<TAB>count`` frequency table; the counts of a repeated word add up.

    The lines follow the rules of :func:`~distsem.corpus._runs` and are read
    as columns (:func:`~distsem.corpus._split_lines`).  The first line that
    is not two fields or whose count ``int`` refuses, and then the first
    negative count, ends in :class:`ParseError` at its line.
    """
    words, counts, negative = [], [], None
    for first, text in data_runs(path):
        numbers, (run_words, run_counts) = _split_lines(
            path, text, first, _FREQUENCY_COLUMNS, "bad {} {!r}"
        )
        if negative is None and (below := np.flatnonzero(run_counts < 0)).size:
            at = below[0]
            negative = ParseError(str(path), int(numbers[at]), f"negative count {run_counts[at]}")
        words += run_words
        counts += run_counts.tolist()
    if negative is not None:
        raise negative
    freqs = dict(zip(words, counts))
    if len(freqs) < len(words):  # a repeated word: add up its counts
        freqs = dict.fromkeys(words, 0)
        for word, n in zip(words, counts):
            freqs[word] += n
    return freqs
