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
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .assoc import check_log_base
from .corpus import read_records, read_tagged_tsv, write_tagged_tsv
from .errors import (
    ConfigurationError,
    MissingICError,
    MissingWordError,
    NoPathError,
    ParseError,
    ValidationError,
    ZeroCreditWarning,
)


@dataclass
class Taxonomy:
    nodes: dict[str, str]  # concept id -> label
    edges: list[tuple[str, str, str]]  # (child, parent, relation)
    word_map: dict[str, frozenset] = field(default_factory=dict)
    hypernym_relation: str = "isa"

    def __post_init__(self):
        for child, parent, _ in self.edges:
            if child not in self.nodes or parent not in self.nodes:
                raise ValidationError(f"edge {child!r} -> {parent!r} uses unknown node")
        for word, concepts in self.word_map.items():
            for concept in concepts:
                if concept not in self.nodes:
                    raise ValidationError(f"word {word!r} maps to unknown concept {concept!r}")
        self._neighbors: dict[str, list[tuple[str, str]]] = {n: [] for n in self.nodes}
        self._hyper_parents: dict[str, list[str]] = {n: [] for n in self.nodes}
        self._hyper_children: dict[str, list[str]] = {n: [] for n in self.nodes}
        for child, parent, relation in self.edges:
            self._neighbors[child].append((parent, relation))
            self._neighbors[parent].append((child, relation))
            if relation == self.hypernym_relation:
                self._hyper_parents[child].append(parent)
                self._hyper_children[parent].append(child)
        self.roots = sorted(
            n for n in self.nodes if not self._hyper_parents[n]
        )
        self._depths = self._compute_depths()
        self.depth = max(self._depths.values()) if self._depths else 0
        if self.nodes and self.depth < 1 and len(self.nodes) > 1:
            raise ValidationError("hypernymy subgraph has no edges")

    def _compute_depths(self) -> dict[str, int]:
        """Longest hypernym chain from any root, by one topological pass (Kahn).

        A concept is reached once all its hypernyms are; concepts never
        reached lie on or below a cycle.
        """
        waiting = {n: len(parents) for n, parents in self._hyper_parents.items()}
        depths = {n: 0 for n, count in waiting.items() if count == 0}
        queue = deque(depths)
        while queue:
            node = queue.popleft()
            for child in self._hyper_children[node]:
                depths[child] = max(depths.get(child, 0), depths[node] + 1)
                waiting[child] -= 1
                if waiting[child] == 0:
                    queue.append(child)
        if any(waiting.values()):
            # walk up through unreached hypernyms until a concept repeats
            node, seen = next(n for n in self.nodes if waiting[n]), set()
            while node not in seen:
                seen.add(node)
                node = next(p for p in self._hyper_parents[node] if waiting[p])
            raise ValidationError(f"hypernymy cycle through {node!r}")
        return depths

    def node_depth(self, concept: str) -> int:
        self._require(concept)
        return self._depths[concept]

    def ancestors(self, concept: str) -> frozenset:
        """Hypernym closure of a concept, including itself."""
        self._require(concept)
        seen = {concept}
        queue = deque([concept])
        while queue:
            node = queue.popleft()
            for parent in self._hyper_parents[node]:
                if parent not in seen:
                    seen.add(parent)
                    queue.append(parent)
        return frozenset(seen)

    def _require(self, concept: str) -> None:
        if concept not in self.nodes:
            raise MissingWordError(f"concept {concept!r} is not in the taxonomy")


def load_taxonomy(path, hypernym_relation: str = "isa") -> Taxonomy:
    """Read ``NODE``, ``EDGE``, and ``WORD`` tab-separated record lines."""
    nodes: dict[str, str] = {}
    edges: list[tuple[str, str, str]] = []
    word_map: dict[str, set] = {}
    for line_number, parts in read_records(path):
        record = parts[0]
        if record == "NODE" and len(parts) == 3:
            if parts[1] in nodes:
                raise ParseError(str(path), line_number, f"duplicate node {parts[1]!r}")
            nodes[parts[1]] = parts[2]
        elif record == "EDGE" and len(parts) == 4:
            edges.append((parts[1], parts[2], parts[3]))
        elif record == "WORD" and len(parts) == 3:
            word_map.setdefault(parts[1], set()).add(parts[2])
        else:
            line = "\t".join(parts)
            raise ParseError(str(path), line_number, f"unrecognized record {line!r}")
    if not nodes:
        raise ConfigurationError(f"{path}: taxonomy file has no nodes")
    return Taxonomy(
        nodes=nodes,
        edges=edges,
        word_map={w: frozenset(c) for w, c in word_map.items()},
        hypernym_relation=hypernym_relation,
    )


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
    # per side: concept -> label of the edge toward that side's end -> fewest changes
    fronts: list[dict[str, dict[str, int]]] = [{c1: {}}, {c2: {}}]
    seen = [{c1}, {c2}]
    work = [len(taxonomy._neighbors[c1]), len(taxonomy._neighbors[c2])]
    length = 0
    while True:
        side = 0 if work[0] <= work[1] else 1
        fronts[side] = _next_layer(taxonomy, fronts[side], seen[side], relation)
        work[side] = sum(len(taxonomy._neighbors[node]) for node in fronts[side])
        length += 1
        if not fronts[side]:
            kind = "path" if relation is None else "hypernymy path"
            raise NoPathError(f"no {kind} between {c1!r} and {c2!r}")
        head, tail = fronts
        meeting = head.keys() & tail.keys()
        if meeting:
            return length, min(_joined_changes(head[m], tail[m]) for m in meeting)


def _next_layer(
    taxonomy: Taxonomy,
    layer: dict[str, dict[str, int]],
    seen: set,
    relation: Optional[str],
) -> dict[str, dict[str, int]]:
    """The concepts one edge beyond ``layer`` and not yet ``seen``, which it then holds."""
    next_layer: dict[str, dict[str, int]] = {}
    for node, costs in layer.items():
        # a new label costs one change over the best path here; an end has none yet
        turn = min(costs.values(), default=-1) + 1
        for neighbor, label in taxonomy._neighbors[node]:
            if neighbor in seen or relation is not None and label != relation:
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
    half of one occurrence's share and flagged with a warning.
    """
    check_log_base(log_base)
    if len(taxonomy.roots) != 1:
        raise ConfigurationError("information content needs a single-root taxonomy")
    root = taxonomy.roots[0]
    credit: dict[str, float] = {node: 0.0 for node in taxonomy.nodes}
    total_mapped = 0
    for word in sorted(word_frequencies):
        freq = word_frequencies[word]
        if freq < 0:
            raise ValidationError(f"negative frequency for {word!r}")
        concepts = taxonomy.word_map.get(word)
        if not concepts or freq == 0:
            continue
        credited: set = set()
        for concept in concepts:
            credited.update(taxonomy.ancestors(concept))
        for node in credited:
            credit[node] += freq
        total_mapped += freq
    if total_mapped == 0 or credit[root] == 0:
        raise ConfigurationError("no word occurrences mapped into the taxonomy")

    root_credit = credit[root]
    floor = 1.0 / (2.0 * root_credit)
    prob: dict[str, float] = {}
    floored = []
    for node in taxonomy.nodes:
        if credit[node] > 0:
            prob[node] = credit[node] / root_credit
        else:
            prob[node] = floor
            floored.append(node)
    if floored:
        warnings.warn(
            f"concepts with zero corpus credit floored: {sorted(floored)}",
            ZeroCreditWarning,
            stacklevel=2,
        )
    log_norm = math.log(log_base)
    ic = {node: -math.log(p) / log_norm for node, p in prob.items()}
    ic[root] = 0.0
    return ICTable(prob=prob, ic=ic, log_base=log_base)


def lso(
    taxonomy: Taxonomy, c1: str, c2: str, ic: Optional[ICTable] = None
) -> str:
    """Lowest superordinate: the deepest common hypernym ancestor.

    Depth ties break by higher information content when a table is supplied,
    then by lexicographic id.
    """
    common = taxonomy.ancestors(c1) & taxonomy.ancestors(c2)
    if not common:
        raise NoPathError(f"{c1!r} and {c2!r} share no hypernym ancestor")

    def sort_key(node: str):
        ic_value = ic.ic.get(node, 0.0) if ic is not None else 0.0
        return (-taxonomy.node_depth(node), -ic_value, node)

    return min(common, key=sort_key)


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
    fields, _, blocks = read_tagged_tsv(
        path,
        "ic",
        {"concept": str, "prob": float, "ic": float},
        {"log_base": float},
        bad_value="non-numeric prob or ic",
    )
    prob: dict[str, float] = {}
    ic: dict[str, float] = {}
    for _, (concepts, probs, ics) in blocks:
        prob.update(zip(concepts, probs.tolist()))
        ic.update(zip(concepts, ics.tolist()))
    if not prob:
        raise ValidationError(f"{path}: empty information-content table")
    return ICTable(prob=prob, ic=ic, log_base=fields.get("log_base", 2.0))


def load_word_frequencies(path) -> dict[str, int]:
    """Read a ``word<TAB>count`` frequency table."""
    freqs: dict[str, int] = {}
    for line_number, (word, count) in read_records(path, "word<TAB>count"):
        try:
            freqs[word] = freqs.get(word, 0) + int(count)
        except ValueError:
            raise ParseError(str(path), line_number, f"bad count {count!r}") from None
    return freqs
