import math
import random
import tempfile
import tracemalloc
import warnings
from collections import deque
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distsem import (
    Taxonomy,
    hirst_stonge,
    ic_from_counts,
    jiang_conrath,
    leacock_chodorow,
    lin_taxonomy,
    load_ic_table,
    load_taxonomy,
    lso,
    resnik,
    save_ic_table,
    shortest_path,
)
from distsem import corpus
from distsem.errors import (
    ConfigurationError,
    DistSemError,
    MissingICError,
    MissingWordError,
    NoPathError,
    ParseError,
    ValidationError,
    ZeroCreditWarning,
)

import distsem.taxonomy as taxonomy_module
from distsem.taxonomy import load_word_frequencies
import oracles
from oracles import (
    dijkstra_with_changes,
    hypernym_closure,
    hypernym_parents,
    ic_by_word,
    longest_depths,
    shortest_with_changes,
)

# hand-derived corpus frequencies for the 7-node fixture
TOY_FREQS = {
    "dog": 10,
    "puppy": 5,
    "cat": 10,
    "jaguar": 5,
    "hammer": 8,
    "tool": 4,
    "animal": 3,
    "thing": 5,
}

# credit propagated by hand: every occurrence credits its concepts and all
# hypernym ancestors once
TOY_CREDITS = {
    "entity": 50,
    "animal": 33,
    "artifact": 17,
    "dog": 15,
    "cat": 15,
    "tool": 12,
    "hammer": 8,
}


def toy_ic_oracle():
    return {
        node: -math.log2(Fraction(credit, TOY_CREDITS["entity"]))
        for node, credit in TOY_CREDITS.items()
    }


@pytest.fixture(scope="module")
def toy_ic(toy_taxonomy):
    return ic_from_counts(toy_taxonomy, TOY_FREQS)


class TestStructure:
    def test_load(self, toy_taxonomy):
        assert len(toy_taxonomy.nodes) == 7
        assert toy_taxonomy.roots == ["entity"]
        assert toy_taxonomy.depth == 3

    def test_node_depths(self, toy_taxonomy):
        assert toy_taxonomy.node_depth("entity") == 0
        assert toy_taxonomy.node_depth("dog") == 2
        assert toy_taxonomy.node_depth("hammer") == 3

    def test_ancestors(self, toy_taxonomy):
        assert toy_taxonomy.ancestors("hammer") == frozenset(
            {"hammer", "tool", "artifact", "entity"}
        )

    def test_cycle_rejected(self):
        with pytest.raises(ValidationError):
            Taxonomy(
                nodes={"a": "A", "b": "B"},
                edges=[("a", "b", "isa"), ("b", "a", "isa")],
            )

    def test_unknown_edge_node_rejected(self):
        with pytest.raises(ValidationError):
            Taxonomy(nodes={"a": "A"}, edges=[("a", "b", "isa")])

    def test_from_ids_with_no_senses(self):
        # empty Python lists, as the edge columns may be too
        taxo = Taxonomy.from_ids(["a", "b"], ["A", "B"], ([1], [0], [0]), ["isa"], [], ([], []))
        assert (taxo.edges, taxo.word_map, taxo.roots) == ([("b", "a", "isa")], {}, ["a"])

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.taxo"
        path.write_text("NODE\ta\tA\nJUNK\tline\n")
        with pytest.raises(ParseError) as err:
            load_taxonomy(path)
        assert err.value.line_number == 2


class TestShortestPath:
    def test_self(self, toy_taxonomy):
        assert shortest_path(toy_taxonomy, "dog", "dog") == (0, 0)

    def test_parent_child(self, toy_taxonomy):
        assert shortest_path(toy_taxonomy, "dog", "animal") == (1, 0)

    def test_mixed_relation_path(self, toy_taxonomy):
        # dog -uses-> tool -isa-> hammer is shortest, with one relation turn
        assert shortest_path(toy_taxonomy, "dog", "hammer") == (2, 1)

    def test_fixture_pairs_match_exhaustive_oracle(self, toy_taxonomy):
        neighbors = _neighbor_lists(toy_taxonomy)
        names = sorted(toy_taxonomy.nodes)
        for c1 in names:
            for c2 in names:
                if c1 == c2:
                    continue
                want = shortest_with_changes(neighbors, c1, c2)
                assert shortest_path(toy_taxonomy, c1, c2) == want

    def test_turn_counts_from_the_fewest_changes(self):
        # x is reached by partof edges with no change and by an isa edge with
        # two; going on by isa from x costs one change, not two
        edges = [
            ("a", "p", "partof"), ("p", "q", "partof"), ("q", "x", "partof"),
            ("a", "r", "isa"), ("r", "s", "partof"), ("s", "x", "isa"), ("x", "g", "isa"),
        ]
        taxo = Taxonomy(nodes={n: n for n in "apqrsxg"}, edges=edges)
        assert shortest_path(taxo, "a", "g") == (4, 1)

    def test_a_relation_label_given_twice_is_one_relation(self):
        # the edges of one chain, their "isa" given under two relation ids
        names, edges = ["a", "b", "c", "d"], ([1, 2, 3], [0, 1, 2], [0, 2, 1])
        taxo = Taxonomy.from_ids(names, names, edges, ["isa", "partof", "isa"], ["w"], ([0], [3]))
        assert taxo.edges == [("b", "a", "isa"), ("c", "b", "isa"), ("d", "c", "partof")]
        assert (taxo.depth, taxo.roots) == (2, ["a", "d"])
        assert shortest_path(taxo, "a", "d") == (3, 1)
        assert leacock_chodorow(taxo, "a", "c") == leacock_chodorow(taxo, "c", "a") == 1.0

    def test_disconnected(self):
        taxo = Taxonomy(
            nodes={"a": "A", "b": "B", "c": "C"},
            edges=[("b", "a", "isa")],
        )
        with pytest.raises(NoPathError):
            shortest_path(taxo, "a", "c")

    def test_unknown_concept(self, toy_taxonomy):
        with pytest.raises(MissingWordError):
            shortest_path(toy_taxonomy, "dog", "unicorn")


@st.composite
def small_taxonomies(draw):
    """At most 8 nodes: acyclic ``isa`` edges (at least one), other labels that
    may form cycles, parallel edges with different labels, isolated nodes."""
    names = [f"n{i}" for i in range(draw(st.integers(2, 8)))]
    isa = draw(
        st.lists(
            st.tuples(st.integers(1, len(names) - 1), st.integers(0, len(names) - 1))
            .map(lambda e: (e[0], e[1] % e[0])),  # parent precedes child
            min_size=1,
            max_size=8,
        )
    )
    labels = st.sampled_from(["partof", "memberof"])
    index = st.integers(0, len(names) - 1)
    others = draw(st.lists(st.tuples(index, index, labels), max_size=6))
    parallel = draw(st.lists(st.tuples(st.sampled_from(isa), labels), max_size=3))
    others += [(child, parent, label) for (child, parent), label in parallel]
    edges = [(names[c], names[p], "isa") for c, p in isa]
    edges += [(names[a], names[b], label) for a, b, label in others]
    return Taxonomy(nodes={n: n.upper() for n in names}, edges=edges)


def _hypernym_bfs(taxonomy, start, goal):
    """Plain breadth-first search over ``isa`` edges in both directions."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for child, parent, relation in taxonomy.edges:
            if relation != "isa" or node not in (child, parent):
                continue
            other = parent if node == child else child
            if other not in dist:
                dist[other] = dist[node] + 1
                queue.append(other)
    return dist.get(goal)


class TestSearchProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_taxonomies())
    def test_paths_match_oracles(self, taxo):
        neighbors = {node: [] for node in taxo.nodes}
        for child, parent, relation in taxo.edges:
            neighbors[child].append((parent, relation))
            neighbors[parent].append((child, relation))
        for c1 in taxo.nodes:
            for c2 in taxo.nodes:
                want = shortest_with_changes(neighbors, c1, c2)
                if want is None:
                    with pytest.raises(NoPathError, match="no path between"):
                        shortest_path(taxo, c1, c2)
                else:
                    assert shortest_path(taxo, c1, c2) == want
                length = _hypernym_bfs(taxo, c1, c2)
                if length is None:
                    with pytest.raises(NoPathError, match="no hypernymy path between"):
                        leacock_chodorow(taxo, c1, c2)
                else:
                    want_lc = -math.log(max(length, 1) / (2.0 * taxo.depth)) / math.log(2.0)
                    assert leacock_chodorow(taxo, c1, c2) == want_lc


def _neighbor_lists(taxonomy, relation=None):
    """Both directions of every edge, or of the edges labeled ``relation``."""
    neighbors = {node: [] for node in taxonomy.nodes}
    for child, parent, label in taxonomy.edges:
        if relation is None or label == relation:
            neighbors[child].append((parent, label))
            neighbors[parent].append((child, label))
    return neighbors


def wordnet_like(seed, size=300):
    """A seeded hierarchy shaped like WordNet's nouns, plus a detached island.

    ``c0`` is the root and its hyponym ``c1`` a hub with a fifth of the
    concepts as direct hyponyms, so a search that reaches the hub faces a wide
    layer on that side only.  The rest hang in deep, narrow chains, some with
    a second hypernym.  ``partof`` and ``memberof`` edges join random concepts,
    close three-concept cycles and run parallel to some ``isa`` edges.  The
    last five concepts are an island of three reached by no edge from the
    rest, a concept that only ``memberof`` ties to the island, and one that
    only ``partof`` ties to the main hierarchy.
    """
    rng = random.Random(seed)
    names = [f"c{i}" for i in range(size)]
    hub, main = size // 5 + 2, size - 5
    edges = [("c1", "c0", "isa")] + [(names[i], "c1", "isa") for i in range(2, hub)]
    for i in range(hub, main):
        parent = names[rng.randrange(max(hub, i - 3), i)] if i > hub else "c0"
        edges.append((names[i], parent, "isa"))
        if rng.random() < 0.1:
            edges.append((names[i], names[rng.randrange(i)], "isa"))
    labels = ("partof", "memberof")
    for _ in range(size // 6):
        a, b = rng.sample(range(main), 2)
        edges.append((names[a], names[b], rng.choice(labels)))
    for _ in range(4):
        a, b, c = (names[i] for i in rng.sample(range(main), 3))
        label = rng.choice(labels)
        edges += [(a, b, label), (b, c, label), (c, a, label)]
    isa = [edge for edge in edges if edge[2] == "isa"]
    edges += [(child, parent, rng.choice(labels)) for child, parent, _ in rng.sample(isa, 5)]
    i0, i1, i2, i3, lone = names[main:]
    edges += [(i1, i0, "isa"), (i2, i0, "isa"), (i3, i1, "memberof")]
    edges.append((lone, names[rng.randrange(hub, main)], "partof"))
    return Taxonomy(nodes={n: n.upper() for n in names}, edges=edges)


def _test_pairs(taxo, seed, count=80):
    """Random pairs of the main hierarchy, hub hyponyms against chain concepts,
    and pairs with the island and the ``partof``-only concept, in both orders."""
    rng = random.Random(seed)
    names = list(taxo.nodes)
    hub, main = len(names) // 5 + 2, len(names) - 5
    pairs = [tuple(rng.sample(names[:main], 2)) for _ in range(count)]
    pairs += [(names[rng.randrange(2, hub)], names[rng.randrange(hub, main)]) for _ in range(20)]
    pairs += [(names[rng.randrange(main)], far) for far in names[main:]]
    pairs += [(names[main], names[main + 3]), (names[main + 2], names[main + 3])]
    return pairs + [(b, a) for a, b in pairs]


class TestMidSizeSearch:
    """The two-sided search against the state-space Dijkstra oracle on graphs
    too large for path enumeration."""

    @settings(max_examples=60, deadline=None)
    @given(small_taxonomies())
    def test_dijkstra_oracle_matches_enumeration(self, taxo):
        for relation in (None, "isa"):
            neighbors = _neighbor_lists(taxo, relation)
            for c1 in taxo.nodes:
                for c2 in taxo.nodes:
                    want = shortest_with_changes(neighbors, c1, c2)
                    assert dijkstra_with_changes(neighbors, c1, c2) == want

    @pytest.mark.parametrize("seed", range(4))
    def test_path_measures_match_oracle(self, seed):
        taxo = wordnet_like(seed)
        every, isa = _neighbor_lists(taxo), _neighbor_lists(taxo, "isa")
        unreachable = 0
        for c1, c2 in _test_pairs(taxo, seed):
            want = dijkstra_with_changes(every, c1, c2)
            if want is None:
                unreachable += 1
                with pytest.raises(NoPathError, match="no path between"):
                    shortest_path(taxo, c1, c2)
                assert hirst_stonge(taxo, c1, c2) == 0.0
            else:
                assert shortest_path(taxo, c1, c2) == want
                assert hirst_stonge(taxo, c1, c2) == max(0.0, 8.0 - want[0] - want[1])
            hyper = dijkstra_with_changes(isa, c1, c2)
            if hyper is None:
                with pytest.raises(NoPathError, match="no hypernymy path between"):
                    leacock_chodorow(taxo, c1, c2)
            else:
                want_lc = -math.log(max(hyper[0], 1) / (2.0 * taxo.depth)) / math.log(2.0)
                assert leacock_chodorow(taxo, c1, c2) == want_lc
        assert unreachable >= 8

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetric(self, seed):
        taxo = wordnet_like(seed)
        for c1, c2 in _test_pairs(taxo, seed, count=40):
            for measure in (shortest_path, hirst_stonge, leacock_chodorow):
                try:
                    forward = measure(taxo, c1, c2)
                except NoPathError as err:
                    forward = type(err)
                try:
                    backward = measure(taxo, c2, c1)
                except NoPathError as err:
                    backward = type(err)
                assert forward == backward

    def test_each_side_grows_first_and_the_far_side_empties(self, monkeypatch):
        taxo = wordnet_like(0)
        grown = []  # per search: (end whose side grew, concepts in its new layer)
        next_layer = taxonomy_module._next_layer

        def spy(links, layer, seen, allowed):
            result = next_layer(links, layer, seen, allowed)
            grown[-1].append(("c1" if taxo._ids[c1] in seen else "c2", len(result)))
            return result

        monkeypatch.setattr(taxonomy_module, "_next_layer", spy)
        detached = list(taxo.nodes)[-5:]
        firsts, island_ends = set(), 0
        for c1, c2 in _test_pairs(taxo, 0):
            grown.append([])
            try:
                shortest_path(taxo, c1, c2)
            except NoPathError:
                if c2 in detached[:4] and c1 not in detached:
                    assert grown[-1][-1] == ("c2", 0)
                    island_ends += 1
            firsts.add(grown[-1][0][0])
        assert firsts == {"c1", "c2"}
        assert island_ends == 4


class TestHirstStOnge:
    def test_identical(self, toy_taxonomy):
        assert hirst_stonge(toy_taxonomy, "cat", "cat") == 8.0

    def test_parent_child_default(self, toy_taxonomy):
        assert hirst_stonge(toy_taxonomy, "dog", "animal") == 7.0

    def test_relation_turns_penalized(self, toy_taxonomy):
        assert hirst_stonge(toy_taxonomy, "dog", "hammer") == 8.0 - 2 - 1

    def test_floor_at_zero(self):
        chain = {f"n{i}": f"N{i}" for i in range(10)}
        edges = [(f"n{i}", f"n{i+1}", "isa") for i in range(9)]
        taxo = Taxonomy(nodes=chain, edges=edges)
        assert hirst_stonge(taxo, "n0", "n9") == 0.0

    def test_no_path_is_zero(self):
        taxo = Taxonomy(
            nodes={"a": "A", "b": "B", "c": "C"}, edges=[("b", "a", "isa")]
        )
        assert hirst_stonge(taxo, "a", "c") == 0.0


class TestLeacockChodorow:
    def test_maximal_path_is_zero(self):
        # chain of depth 2: the longest hypernymy path equals twice the depth
        taxo = Taxonomy(
            nodes={"r": "R", "m": "M", "l": "L", "m2": "M2", "l2": "L2"},
            edges=[
                ("m", "r", "isa"),
                ("l", "m", "isa"),
                ("m2", "r", "isa"),
                ("l2", "m2", "isa"),
            ],
        )
        assert leacock_chodorow(taxo, "l", "l2") == pytest.approx(0.0, abs=1e-12)

    def test_unit_path_depth_four(self):
        chain = {f"n{i}": f"N{i}" for i in range(5)}
        edges = [(f"n{i+1}", f"n{i}", "isa") for i in range(4)]
        taxo = Taxonomy(nodes=chain, edges=edges)
        assert taxo.depth == 4
        assert leacock_chodorow(taxo, "n0", "n1") == pytest.approx(3.0, abs=1e-12)

    def test_identity_uses_unit_floor(self, toy_taxonomy):
        same = leacock_chodorow(toy_taxonomy, "dog", "dog")
        adjacent = leacock_chodorow(toy_taxonomy, "dog", "animal")
        assert same == pytest.approx(adjacent)

    def test_monotone_in_length(self, toy_taxonomy):
        near = leacock_chodorow(toy_taxonomy, "dog", "animal")
        mid = leacock_chodorow(toy_taxonomy, "dog", "cat")
        far = leacock_chodorow(toy_taxonomy, "dog", "hammer")
        assert near > mid > far


class TestInformationContent:
    def test_root_probability_one(self, toy_ic):
        assert toy_ic.prob["entity"] == 1.0
        assert toy_ic.ic["entity"] == 0.0

    def test_matches_hand_propagation(self, toy_ic):
        oracle = toy_ic_oracle()
        for node, want in oracle.items():
            assert toy_ic.ic[node] == pytest.approx(want, abs=1e-9)
            assert toy_ic.prob[node] == pytest.approx(
                TOY_CREDITS[node] / 50.0, abs=1e-12
            )

    def test_monotone_along_hypernymy(self, toy_taxonomy, toy_ic):
        for child, parent, relation in toy_taxonomy.edges:
            if relation != "isa":
                continue
            assert toy_ic.ic[parent] <= toy_ic.ic[child] + 1e-12
            assert toy_ic.prob[parent] >= toy_ic.prob[child] - 1e-12

    def test_all_mass_under_one_leaf(self):
        taxo = Taxonomy(
            nodes={"r": "R", "a": "A", "b": "B"},
            edges=[("a", "r", "isa"), ("b", "r", "isa")],
            word_map={"x": frozenset({"a"})},
        )
        with pytest.warns(ZeroCreditWarning):
            table = ic_from_counts(taxo, {"x": 9})
        assert table.prob["a"] == 1.0
        assert table.prob["r"] == 1.0
        assert table.ic["a"] == 0.0
        assert 0.0 < table.prob["b"] < 1.0

    @pytest.mark.parametrize("log_base", [2.0, 10.0, 0.5])
    def test_certain_concept_has_positive_zero_ic(self, log_base):
        """A non-root concept of probability 1 gets 0.0, never -0.0."""
        taxo = Taxonomy(
            nodes={"r": "R", "a": "A", "b": "B", "c": "C"},
            edges=[("a", "r", "isa"), ("b", "a", "isa"), ("c", "a", "isa")],
            word_map={"x": frozenset({"b"}), "y": frozenset({"c"})},
        )
        table = ic_from_counts(taxo, {"x": 3, "y": 1}, log_base)
        assert table.prob["a"] == 1.0
        assert table.ic["a"].hex() == table.ic["r"].hex() == (0.0).hex()
        assert resnik(taxo, "b", "c", table).hex() == (0.0).hex()

    def test_no_mapped_occurrences(self, toy_taxonomy):
        with pytest.raises(ConfigurationError):
            ic_from_counts(toy_taxonomy, {"unmapped": 5})

    def test_round_trip(self, toy_ic, tmp_path):
        path = tmp_path / "ic.tsv"
        save_ic_table(toy_ic, path)
        loaded = load_ic_table(path)
        assert loaded.prob == toy_ic.prob
        assert loaded.ic == toy_ic.ic


class TestLso:
    def test_self(self, toy_taxonomy, toy_ic):
        assert lso(toy_taxonomy, "dog", "dog", toy_ic) == "dog"

    def test_siblings(self, toy_taxonomy, toy_ic):
        assert lso(toy_taxonomy, "dog", "cat", toy_ic) == "animal"

    def test_cross_tree(self, toy_taxonomy, toy_ic):
        assert lso(toy_taxonomy, "dog", "hammer", toy_ic) == "entity"

    def test_dag_prefers_deeper_ancestor(self):
        taxo = Taxonomy(
            nodes={"r": "R", "m": "M", "x": "X", "y": "Y"},
            edges=[
                ("m", "r", "isa"),
                ("x", "m", "isa"),
                ("y", "m", "isa"),
                ("x", "r", "isa"),
                ("y", "r", "isa"),
            ],
        )
        # both r and m subsume x and y; m is deeper
        assert lso(taxo, "x", "y") == "m"


class TestICMeasures:
    def test_root_subsumer_gives_zero(self, toy_taxonomy, toy_ic):
        assert resnik(toy_taxonomy, "dog", "hammer", toy_ic) == 0.0

    def test_identity_collapses(self, toy_taxonomy, toy_ic):
        assert jiang_conrath(toy_taxonomy, "cat", "cat", toy_ic) == pytest.approx(
            0.0, abs=1e-12
        )
        assert lin_taxonomy(toy_taxonomy, "cat", "cat", toy_ic) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_root_identity_lin_is_one(self, toy_taxonomy, toy_ic):
        assert lin_taxonomy(toy_taxonomy, "entity", "entity", toy_ic) == 1.0

    def test_values_match_spreadsheet_oracle(self, toy_taxonomy, toy_ic):
        oracle = toy_ic_oracle()
        cases = [
            ("dog", "cat", "animal"),
            ("dog", "hammer", "entity"),
            ("tool", "hammer", "tool"),
            ("cat", "tool", "entity"),
        ]
        for c1, c2, subsumer in cases:
            res_want = oracle[subsumer]
            jc_want = oracle[c1] + oracle[c2] - 2 * oracle[subsumer]
            got_res = resnik(toy_taxonomy, c1, c2, toy_ic)
            got_jc = jiang_conrath(toy_taxonomy, c1, c2, toy_ic)
            assert got_res == pytest.approx(res_want, abs=1e-9)
            assert got_jc == pytest.approx(jc_want, abs=1e-9)
            if oracle[c1] + oracle[c2] > 0:
                lin_want = 2 * oracle[subsumer] / (oracle[c1] + oracle[c2])
                assert lin_taxonomy(toy_taxonomy, c1, c2, toy_ic) == pytest.approx(
                    lin_want, abs=1e-9
                )

    def test_symmetry_and_nonnegativity(self, toy_taxonomy, toy_ic):
        names = sorted(toy_taxonomy.nodes)
        for c1 in names:
            for c2 in names:
                jc = jiang_conrath(toy_taxonomy, c1, c2, toy_ic)
                assert jc >= -1e-12
                assert jc == pytest.approx(
                    jiang_conrath(toy_taxonomy, c2, c1, toy_ic), abs=1e-12
                )
                assert resnik(toy_taxonomy, c1, c2, toy_ic) == pytest.approx(
                    resnik(toy_taxonomy, c2, c1, toy_ic), abs=1e-12
                )
                lin_value = lin_taxonomy(toy_taxonomy, c1, c2, toy_ic)
                assert -1e-12 <= lin_value <= 1.0 + 1e-12

    def test_missing_ic_entry(self, toy_taxonomy, toy_ic):
        from distsem import ICTable

        partial = ICTable(prob={"dog": 0.3}, ic={"dog": 1.7})
        with pytest.raises(MissingICError):
            resnik(toy_taxonomy, "dog", "cat", partial)


@st.composite
def random_dags(draw):
    """Up to 12 concepts in a shuffled order, and word frequencies.

    Each concept after the first takes up to three hypernyms among those made
    before it, repeats allowed; with ``single_root`` each takes at least one.
    ``partof`` edges join any two concepts.  Words map to one to three senses
    (one word to a sense and a hypernym of it), some words are in no sense,
    and some frequencies are zero.
    """
    made = [f"n{i}" for i in range(draw(st.integers(2, 12)))]
    single_root = draw(st.booleans())
    edges = []
    for i in range(1, len(made)):
        low = 1 if single_root or i == 1 else 0
        for parent in draw(st.lists(st.integers(0, i - 1), min_size=low, max_size=3)):
            edges.append((made[i], made[parent], "isa"))
    index = st.integers(0, len(made) - 1)
    edges += [(made[a], made[b], "partof") for a, b in draw(st.lists(st.tuples(index, index), max_size=4))]
    senses = st.frozensets(st.sampled_from(made), min_size=1, max_size=3)
    word_map = {f"w{j}": draw(senses) for j in range(draw(st.integers(0, 6)))}
    child, parent, _ = edges[0]
    word_map["both"] = frozenset({child, parent})
    frequency = st.one_of(st.integers(0, 50), st.integers(0, 2**40))
    freqs = {word: draw(frequency) for word in [*word_map, "unmapped", "absent"]}
    taxo = Taxonomy(
        nodes={n: n.upper() for n in draw(st.permutations(made))},
        edges=draw(st.permutations(edges)),
        word_map=word_map,
    )
    return taxo, freqs


def _bits(values):
    return {key: value.hex() for key, value in values.items()}  # -0.0 and 0.0 differ


class TestArrayStructureAndIC:
    """Integer-id structure and the level-wise IC build against per-concept oracles."""

    @settings(max_examples=200, deadline=None)
    @given(random_dags(), st.sampled_from([2.0, 10.0, 0.5]), st.sampled_from([1, 3, None]))
    def test_matches_oracles(self, case, log_base, chunk_pairs):
        taxo, freqs = case
        parents = hypernym_parents(taxo.nodes, taxo.edges)
        depths = longest_depths(parents)
        assert {node: taxo.node_depth(node) for node in taxo.nodes} == depths
        assert taxo.depth == max(depths.values())
        assert taxo.roots == sorted(node for node in taxo.nodes if not parents[node])
        for node in taxo.nodes:
            assert taxo.ancestors(node) == hypernym_closure(parents, node)
        if len(taxo.roots) != 1:
            with pytest.raises(ConfigurationError, match="single-root"):
                ic_from_counts(taxo, freqs, log_base)
            return
        budget = taxonomy_module._CHUNK_BYTES
        if chunk_pairs is not None:  # a few pairs a chunk, so most words are chunks of their own
            budget = chunk_pairs * taxonomy_module._PAIR_BYTES
        if not any(freqs[word] for word in taxo.word_map):
            with pytest.raises(ConfigurationError, match="no word occurrences"):
                ic_from_counts(taxo, freqs, log_base)
            return
        with mock.patch.object(taxonomy_module, "_CHUNK_BYTES", budget):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                table = ic_from_counts(taxo, freqs, log_base)
        prob, ic, floored = ic_by_word(taxo.nodes, parents, taxo.word_map, freqs, log_base)
        assert list(table.prob) == list(taxo.nodes)
        assert _bits(table.prob) == _bits(prob)
        assert _bits(table.ic) == _bits(ic)
        messages = [str(w.message) for w in caught if w.category is ZeroCreditWarning]
        assert messages == ([f"concepts with zero corpus credit floored: {floored}"] if floored else [])
        for c1 in taxo.nodes:
            for c2 in taxo.nodes:
                common = hypernym_closure(parents, c1) & hypernym_closure(parents, c2)
                want = min(common, key=lambda n: (-depths[n], -table.ic[n], n))
                assert lso(taxo, c1, c2, table) == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 8).flatmap(lambda n: st.tuples(
        st.permutations([f"n{i}" for i in range(n)]),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=10),
    )))
    def test_cycle_names_the_concept_the_walk_repeats(self, case):
        order, pairs = case
        edges = [(f"n{a}", f"n{b}", "isa") for a, b in pairs]
        parents = hypernym_parents(order, edges)
        reached = set()  # concepts every one of whose hypernyms is reached, to a fixed point
        while grown := {n for n in order if n not in reached and set(parents[n]) <= reached}:
            reached |= grown
        if len(reached) == len(order):
            return
        # the first concept not reached, then up by its first unreached hypernym until one repeats
        node, seen = next(n for n in order if n not in reached), set()
        while node not in seen:
            seen.add(node)
            node = next(p for p in parents[node] if p not in reached)
        with pytest.raises(ValidationError, match=f"hypernymy cycle through '{node}'$"):
            Taxonomy(nodes={n: n for n in order}, edges=edges)


def wordnet_sized(seed, size=25_000):
    """A single-root hierarchy the size of the benchmark's, one word per concept.

    Concept ``i`` takes its hypernym at ``floor(i * u**1.5)`` for a uniform
    ``u``, which makes the hierarchy about 17 deep; three percent take a
    second, earlier hypernym.  A tenth of the words also name one or two other
    concepts, and frequencies fall with a Zipf rank.
    """
    rng = random.Random(seed)
    names = [f"c{i}" for i in range(size)]
    edges = [(names[i], names[int(i * rng.random() ** 1.5)], "isa") for i in range(1, size)]
    edges += [(names[i], names[rng.randrange(i)], "isa") for i in range(2, size) if rng.random() < 0.03]
    word_map, freqs = {}, {}
    for i, name in enumerate(names):
        extra = rng.randint(1, 2) if rng.random() < 0.1 else 0
        word_map[f"w{i}"] = frozenset([name, *(rng.choice(names) for _ in range(extra))])
        freqs[f"w{i}"] = 1_000_000 // rng.randint(1, size)
    return Taxonomy(nodes={n: n for n in names}, edges=edges, word_map=word_map), freqs


class TestICMemory:
    def test_ic_pass_holds_its_budget(self, monkeypatch):
        taxo, freqs = wordnet_sized(0)

        def transient():
            """Traced bytes the pass held at its peak beyond the table it returns."""
            tracemalloc.start()
            try:
                table = ic_from_counts(taxo, freqs)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(table.ic) == len(taxo.nodes)
            return peak - held

        budget = taxonomy_module._CHUNK_BYTES
        assert transient() <= budget
        monkeypatch.setattr(taxonomy_module, "_CHUNK_BYTES", 1 << 40)  # one chunk
        assert transient() > 2 * budget


class TestFrequencyTotal:
    """Credit is added in float64, which holds every integer up to 2**53 exactly."""

    def test_total_above_2_53_refused(self, toy_taxonomy):
        with pytest.raises(ValidationError, match="2\\*\\*53"):
            ic_from_counts(toy_taxonomy, {"dog": 2**53, "cat": 3})
        with pytest.raises(ValidationError, match="2\\*\\*53"):
            ic_from_counts(toy_taxonomy, {"dog": 10**400})

    def test_total_of_2_53_is_exact(self, toy_taxonomy):
        with pytest.warns(ZeroCreditWarning):
            table = ic_from_counts(toy_taxonomy, {"dog": 2**53 - 3, "cat": 3, "unmapped": 10**400})
        assert table.prob["animal"] == 1.0
        assert table.prob["dog"] == (2**53 - 3) / 2**53


# ---------------------------------------------------------------------------
# the taxonomy file loader against a line-by-line oracle

NAMES = ["a", "b", "dog", "é", "日本", "x y", "n0", "ü"]
# lines to skip: blank ones, some only of whitespace that str.strip clears but a byte test can miss
NOTES = ["", " ", "\t", "#note", "#manifest\ttool=test", "# NODE\tq\tQ", "\x0b", "\x0c", "\x1c", "\x1d",
         "\x1e", "\x1f", "\x85", "\xa0 \t", "\u2028", "\u3000"]


def outcome(load, path):
    """What loading ``path`` gives: the error's type and message, or the loaded
    nodes, edges and word map (as item lists, so that order counts), depths and roots."""
    try:
        value = load(path)
    except DistSemError as exc:
        return type(exc).__name__, str(exc)
    except oracles.Refused as exc:
        return exc.args
    if isinstance(value, Taxonomy):
        depths = {node: value.node_depth(node) for node in value.nodes}
        nodes, edges, word_map, roots = value.nodes, value.edges, value.word_map, value.roots
    else:
        nodes, edges, word_map = value
        depths = longest_depths(hypernym_parents(nodes, edges))
        roots = sorted(node for node, depth in depths.items() if depth == 0)
    return "loaded", list(nodes.items()), edges, list(word_map.items()), depths, roots


@st.composite
def taxonomy_lines(draw):
    """The lines of a well-formed taxonomy file, in any order, with notes and blank lines.

    ``isa`` edges run from a concept to one made before it, so the hierarchy
    is acyclic; other edges join any two concepts.  Edges and ``WORD`` lines
    may repeat, and a word may have several senses.
    """
    names = draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=len(NAMES), unique=True))
    labels = st.sampled_from(["", "Label", "ä b", "C"])
    lines = [f"NODE\t{name}\t{draw(labels)}" for name in names]
    edges = [(names[1], names[0], "isa")]
    for i in range(2, len(names)):
        for parent in draw(st.lists(st.integers(0, i - 1), max_size=2)):
            edges.append((names[i], names[parent], "isa"))
    index = st.integers(0, len(names) - 1)
    relation = st.sampled_from(["partof", "memberof", "isa-like"])
    for a, b, label in draw(st.lists(st.tuples(index, index, relation), max_size=4)):
        edges.append((names[a], names[b], label))
    edges += draw(st.lists(st.sampled_from(edges), max_size=2))  # repeated edges
    lines += [f"EDGE\t{child}\t{parent}\t{label}" for child, parent, label in edges]
    words = draw(st.lists(st.tuples(st.sampled_from(["w", "ẞ", "dog"]), index), max_size=6))
    lines += [f"WORD\t{word}\t{names[i]}" for word, i in words]
    lines = draw(st.permutations(lines))
    notes = st.tuples(st.integers(0, len(lines)), st.sampled_from(NOTES))
    for at, note in draw(st.lists(notes, max_size=4)):
        lines.insert(at, note)
    return lines


def defects(names):
    """A bad line of each kind the loader refuses, given the file's node ``names``."""
    name = names[0] if names else "a"
    return st.sampled_from([
        "NODE\t\tEmpty", f"NODE\t{name}\tAgain", "NODE\tq", "NODE\tq\tQ\textra", "node\tq\tQ",
        f"EDGE\t\t{name}\tisa", f"EDGE\t{name}\t\tisa", f"EDGE\t{name}\t{name}\t",
        f"EDGE\t{name}\tzz\tisa", f"EDGE\tzz\t{name}\tpartof", "EDGE\ta\tb",
        f"WORD\t\t{name}", "WORD\tw\t", "WORD\tw\tzz", "WORD\tw", "JUNK\tx", " NODE\tq\tQ",
        "NODEX\tq\tQ",
    ])


def write_lines(tmp, lines, newline="\n", last_newline=True):
    path = Path(tmp) / "taxonomy.tsv"
    path.write_bytes((newline.join(lines) + newline * last_newline).encode("utf-8"))
    return path


class TestLoaderAgainstOracle:
    """``load_taxonomy`` reads runs of lines as columns; it must load and refuse
    exactly what the line-by-line oracle does, at the same line."""

    @settings(max_examples=150, deadline=None)
    @given(
        taxonomy_lines(), st.sampled_from([1, 7, 64, corpus._BLOCK_CHARS]),
        st.sampled_from(["\n", "\r\n", "\r"]), st.booleans(),
    )
    def test_well_formed_files(self, lines, block, newline, last_newline):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_lines(tmp, lines, newline, last_newline)
            with mock.patch.object(corpus, "_BLOCK_CHARS", block):
                loaded = outcome(load_taxonomy, path)
            assert loaded == outcome(oracles.taxonomy_file, path)
        assert loaded[0] == "loaded"

    @settings(max_examples=200, deadline=None)
    @given(taxonomy_lines(), st.data(), st.sampled_from([1, 7, 64, corpus._BLOCK_CHARS]))
    def test_defects(self, lines, data, block):
        names = [line.split("\t")[1] for line in lines if line.startswith("NODE\t")]
        for _ in range(data.draw(st.integers(1, 2))):
            at = data.draw(st.integers(0, len(lines)))
            lines.insert(at, data.draw(defects(names)))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_lines(tmp, lines)
            with mock.patch.object(corpus, "_BLOCK_CHARS", block):
                loaded = outcome(load_taxonomy, path)
            assert loaded == outcome(oracles.taxonomy_file, path)
        assert loaded[0] != "loaded"

    @pytest.mark.parametrize("defect", [
        None, "NODE\tc000040\tAgain", "EDGE\tc000007\tzz\tisa", "WORD\tw9\tzz", "EDGE\tc000007",
        "WORD\t\tc000001",
    ])
    def test_files_of_many_pieces(self, tmp_path, defect):
        """At the default piece size, runs of many lines meet the column checks at once."""
        rng = random.Random(5)
        lines = wordnet_sized_lines(rng, 3000)
        rng.shuffle(lines)
        for at in range(500, len(lines), 1700):  # notes inside pieces
            lines[at:at] = ["#note", "", "#manifest\tx=1"]
        at = len(lines) * 2 // 3
        if defect is not None:
            lines.insert(at, defect)
        path = write_lines(tmp_path, lines)
        assert path.stat().st_size > 3 * corpus._BLOCK_CHARS
        loaded = outcome(load_taxonomy, path)
        assert loaded == outcome(oracles.taxonomy_file, path)
        if defect is None:
            assert loaded[0] == "loaded"
        else:
            # at the defect, or for a duplicate node at whichever of the two comes later
            assert loaded[0] == "ParseError"
            assert int(loaded[1].removeprefix(f"{path}:").split(":")[0]) >= at + 1

    @pytest.mark.parametrize("defect", ["JUNK\tx", "WORD\tw", "EDGE\ta\t\tisa", "NODE\ta\tThird"])
    def test_node_named_again_before_another_defect(self, tmp_path, defect):
        """In a run that holds a bad line, a node named again earlier is still named first."""
        lines = ["NODE\tb\tB", "NODE\ta\tA", "EDGE\ta\tb\tisa", "NODE\ta\tAgain", defect]
        path = write_lines(tmp_path, lines)
        loaded = outcome(load_taxonomy, path)
        assert loaded == outcome(oracles.taxonomy_file, path)
        assert loaded == ("ParseError", f"{path}:4: duplicate node 'a'")

    def test_no_nodes(self, tmp_path):
        for lines in (["#manifest\ttool=test", "", "WORD\tw\tzz"], ["#note", ""], []):
            path = write_lines(tmp_path, lines)
            assert outcome(load_taxonomy, path) == outcome(oracles.taxonomy_file, path) == (
                "ConfigurationError", f"{path}: taxonomy file has no nodes"
            )


frequency_lines = st.one_of(
    st.builds(
        "{}\t{}".format,
        st.sampled_from(["w", "é", "x y", ""]),
        st.sampled_from(["5", "-3", " 7", "+2", "1_0", "٣", "007", "x", "", "2.5", "1" + "0" * 30]),
    ),
    st.sampled_from([*NOTES, "w", "w\t1\t2"]),
)


def frequency_outcome(load, path):
    try:
        return "loaded", list(load(path).items())
    except DistSemError as exc:
        return type(exc).__name__, str(exc)
    except oracles.Refused as exc:
        return exc.args


@settings(max_examples=150, deadline=None)
@given(st.lists(frequency_lines, max_size=12), st.sampled_from([1, 7, 64, corpus._BLOCK_CHARS]))
def test_frequency_files_read_as_one_line_at_a_time(lines, block):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_lines(tmp, lines)
        with mock.patch.object(corpus, "_BLOCK_CHARS", block):
            loaded = frequency_outcome(load_word_frequencies, path)
        assert loaded == frequency_outcome(oracles.frequency_file, path)


def wordnet_sized_lines(rng, size):
    """The lines of a taxonomy file shaped like the benchmark's, ``size`` concepts.

    Concept ``i`` takes its hypernym at ``floor(i * u**1.5)``, three percent
    a second one and five percent a ``partof`` or ``memberof`` edge; every
    concept has its word, and a tenth of the words one or two more senses.
    """
    name = "c{:06d}".format
    lines = [f"NODE\t{name(i)}\tconcept {i}" for i in range(size)]
    for i in range(1, size):
        lines.append(f"EDGE\t{name(i)}\t{name(int(i * rng.random() ** 1.5))}\tisa")
        if i > 1 and rng.random() < 0.03:
            lines.append(f"EDGE\t{name(i)}\t{name(rng.randrange(i))}\tisa")
    for i in range(size):
        if rng.random() < 0.05:
            label = rng.choice(["partof", "memberof"])
            lines.append(f"EDGE\t{name(i)}\t{name(rng.randrange(size))}\t{label}")
    for i in range(size):
        extra = rng.randint(1, 2) if rng.random() < 0.1 else 0
        lines += [f"WORD\tw{i}\t{name(j)}" for j in [i] + [rng.randrange(size) for _ in range(extra)]]
    return lines


def test_load_memory_stays_at_the_line_loader(tmp_path):
    """A benchmark-sized load holds one piece of the file at a time besides its columns."""
    path = write_lines(tmp_path, wordnet_sized_lines(random.Random(1), 25_000))
    tracemalloc.start()
    try:
        taxonomy = load_taxonomy(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(taxonomy.nodes) == 25_000
    # the line-by-line loader peaked at 29.0 MiB on this 1.9 MB file, and so did
    # a column loader that split the whole text at once; by pieces, about 20 MiB
    assert peak <= 1.1 * 29.0 * 2**20
