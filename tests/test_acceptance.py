"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the slow end-to-end and throughput checks come last.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from corpusgen import flat_token_stream, write_topic_corpus
from distsem import (
    CorpusConfig,
    CrmKind,
    CrmPenalty,
    DistributionalProfile,
    MeasureConfig,
    MeasureId,
    SoAKind,
    build_base_wccm,
    build_crosslingual_wccm,
    build_profile,
    bootstrap_wccm,
    contingency,
    count_cooccurrences,
    counts_equal,
    crm_combine,
    crm_precision_recall,
    ingest_triples,
    ic_from_counts,
    jiang_conrath,
    hirst_stonge,
    leacock_chodorow,
    lin_taxonomy,
    lso,
    is_symmetric,
    merge_counts,
    resnik,
    score,
    strength,
    tokenize_documents,
)
from distsem.concept import BilingualLexicon
from distsem.errors import UndefinedAssociationError

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def report(number: int, text: str) -> None:
    print(f"\nacceptance criterion {number}: PASS ({text})")


def cp(entries, target="w"):
    return DistributionalProfile(target=target, soa=SoAKind.CP, entries=dict(entries))


def pmi(entries, target="w"):
    return DistributionalProfile(target=target, soa=SoAKind.PMI, entries=dict(entries))


# ---------------------------------------------------------------------------
# random profile pairs shared by criteria 2 and 3


def random_cp_pair(rng, pool):
    shared = rng.sample(pool, rng.randint(2, 5))
    extra = [f for f in pool if f not in shared]
    f1 = shared + rng.sample(extra, rng.randint(1, 5))
    f2 = shared + rng.sample(extra, rng.randint(1, 5))
    raw1 = {f: rng.random() + 1e-3 for f in f1}
    raw2 = {f: rng.random() + 1e-3 for f in f2}
    t1 = sum(raw1.values())
    t2 = sum(raw2.values())
    return (
        cp({f: v / t1 for f, v in raw1.items()}, "p"),
        cp({f: v / t2 for f, v in raw2.items()}, "q"),
    )


def random_pmi_pair(rng, pool):
    shared = rng.sample(pool, rng.randint(2, 5))
    extra = [f for f in pool if f not in shared]
    f1 = shared + rng.sample(extra, rng.randint(1, 5))
    f2 = shared + rng.sample(extra, rng.randint(1, 5))
    e1 = {f: rng.uniform(-3.0, 4.0) for f in f1}
    e2 = {f: rng.uniform(-3.0, 4.0) for f in f2}
    e1[shared[0]] = abs(e1[shared[0]]) + 0.1  # keep both positive supports nonempty
    e2[shared[0]] = abs(e2[shared[0]]) + 0.1
    return pmi(e1, "p"), pmi(e2, "q")


WORD_POOL = [f"f{i}" for i in range(24)]
REL_POOL = [("obj^-1", f"v{i}") for i in range(12)] + [
    ("subj^-1", f"v{i}") for i in range(12)
]

PMI_MEASURES = {MeasureId.HINDLE, MeasureId.HINDLE_REL, MeasureId.LIN}

SYMMETRIC_MEASURES = [m for m in MeasureId if is_symmetric(m)]

ZERO_ON_IDENTITY = [
    MeasureId.KLD,
    MeasureId.L1,
    MeasureId.L2,
    MeasureId.JSD,
    MeasureId.ASD,
    MeasureId.DIF,
    MeasureId.DIV,
]

ONE_ON_IDENTITY = [
    MeasureId.COS,
    MeasureId.LIN,
    MeasureId.DICE_CP,
    MeasureId.PDT_AVG,
]

UNIT_BOUNDED = [
    MeasureId.COS,
    MeasureId.LIN,
    MeasureId.DICE_CP,
    MeasureId.JACCARD_CP,
    MeasureId.PDT_AVG,
]

NONNEGATIVE_DIVERGENCES = [
    MeasureId.KLD,
    MeasureId.KLD_ABS,
    MeasureId.KLD_UNW_ABS,
    MeasureId.KLD_MAX,
    MeasureId.KLD_AVG,
    MeasureId.ASD,
    MeasureId.JSD,
    MeasureId.JSD_ABS,
    MeasureId.DIV,
]


def profile_pair_for(measure, cp_pair, rel_pmi_pair, word_pmi_pair):
    if measure is MeasureId.HINDLE_REL:
        return word_pmi_pair
    if measure in (MeasureId.HINDLE, MeasureId.LIN):
        return rel_pmi_pair
    return cp_pair


# ---------------------------------------------------------------------------
# criterion 1


def test_criterion_1_oracle_equivalence(toy_counts, toy_pairs, fixtures_dir):
    started = time.monotonic()
    pairs = dict(toy_pairs)

    # counts
    assert {(t, f): n for t, f, n in toy_counts.items()} == pairs
    assert toy_counts.total_pairs == sum(pairs.values())

    # every association statistic on a spread of cells
    cells = sorted(pairs)[::7] + [("guitar", "horse"), ("band", "jam")]
    checked_soa = 0
    for target, feature in cells:
        table = contingency(toy_counts, target, feature)
        want_table = oracles.contingency_from_pairs(pairs, target, feature)
        assert (table.n_wc, table.n_w_nc, table.n_nw_c, table.n_nw_nc) == want_table
        for kind in SoAKind:
            want = oracles.soa_value(want_table, kind.value)
            if want is None:
                with pytest.raises(UndefinedAssociationError):
                    strength(table, kind)
            else:
                assert strength(table, kind) == pytest.approx(want, abs=1e-9)
                checked_soa += 1
    assert checked_soa > 100

    # every measure on toy word pairs
    word_pairs = [
        ("guitar", "piano"),
        ("bread", "cheese"),
        ("cat", "dog"),
        ("band", "jam"),
        ("song", "soup"),
        ("guitar", "horse"),
    ]
    config = MeasureConfig()
    cp_profiles = {}
    pmi_profiles = {}
    for w in {w for pair in word_pairs for w in pair}:
        cp_profiles[w] = build_profile(toy_counts, w, SoAKind.CP)
        pmi_profiles[w] = build_profile(toy_counts, w, SoAKind.PMI)
    oracle_cp = {w: oracles.cp_profile(pairs, w) for w in cp_profiles}
    oracle_pmi = {w: oracles.pmi_profile(pairs, w) for w in pmi_profiles}

    cp_cases = {
        MeasureId.COS: oracles.o_cosine,
        MeasureId.L1: oracles.o_l1,
        MeasureId.L2: oracles.o_l2,
        MeasureId.KLD: oracles.o_kld,
        MeasureId.KLD_COM: oracles.o_kld_com,
        MeasureId.KLD_ABS: oracles.o_kld_abs,
        MeasureId.KLD_UNW_ABS: oracles.o_kld_unw_abs,
        MeasureId.KLD_MAX: oracles.o_kld_max,
        MeasureId.KLD_AVG: oracles.o_kld_avg,
        MeasureId.ASD: oracles.o_asd,
        MeasureId.JSD: oracles.o_jsd,
        MeasureId.JSD_ABS: lambda p, q: oracles.o_jsd(p, q, use_abs=True),
        MeasureId.DICE_CP: oracles.o_dice_cp,
        MeasureId.JACCARD_CP: oracles.o_jaccard_cp,
        MeasureId.DIF: oracles.o_dif,
        MeasureId.DIV: oracles.o_div,
        MeasureId.PDT_AVG: oracles.o_pdt_avg,
        MeasureId.PDT_AVG_WT: oracles.o_pdt_avg_wt_closed,
    }
    for w1, w2 in word_pairs:
        d1, d2 = cp_profiles[w1], cp_profiles[w2]
        o1, o2 = oracle_cp[w1], oracle_cp[w2]
        for measure, oracle_fn in cp_cases.items():
            got = score(measure, d1, d2, config)
            want = oracle_fn(o1, o2)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (measure, w1, w2)
        # relation-free profile form of the matched-sign measure
        got = score(MeasureId.HINDLE_REL, pmi_profiles[w1], pmi_profiles[w2], config)
        want = oracles.o_hindle(oracle_pmi[w1], oracle_pmi[w2])
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
        # retrieval measures in every kind and penalty combination
        for kind in CrmKind:
            for penalty in CrmPenalty:
                if kind is CrmKind.MI:
                    dd1, dd2 = pmi_profiles[w1], pmi_profiles[w2]
                    oo1, oo2 = oracle_pmi[w1], oracle_pmi[w2]
                else:
                    dd1, dd2, oo1, oo2 = d1, d2, o1, o2
                got_pr = crm_precision_recall(dd1, dd2, kind, penalty)
                want_pr = oracles.o_crm_pr(oo1, oo2, kind.value, penalty.value)
                assert got_pr[0] == pytest.approx(want_pr[0], rel=1e-9, abs=1e-9)
                assert got_pr[1] == pytest.approx(want_pr[1], rel=1e-9, abs=1e-9)
                got_crm = crm_combine(*got_pr, config.gamma, config.beta)
                want_crm = oracles.o_crm(
                    oo1, oo2, kind.value, penalty.value, config.gamma, config.beta
                )
                assert got_crm == pytest.approx(want_crm, rel=1e-9, abs=1e-9)

    # dependency-based profiles for the syntactically constrained measures
    lines = (fixtures_dir / "toy.triples").read_text().splitlines()
    tri_counts = ingest_triples(lines)
    tri_pairs = dict(
        oracles.triple_pairs([tuple(l.split("\t")) for l in lines if l])
    )
    for w1, w2 in [("guitar", "piano"), ("apple", "bread"), ("cat", "bird")]:
        d1 = build_profile(tri_counts, w1, SoAKind.PMI)
        d2 = build_profile(tri_counts, w2, SoAKind.PMI)
        o1 = oracles.pmi_profile(tri_pairs, w1)
        o2 = oracles.pmi_profile(tri_pairs, w2)
        got = score(MeasureId.HINDLE, d1, d2, config)
        want = oracles.o_hindle(o1, o2, ("obj^-1", "subj^-1"))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
        got = score(MeasureId.LIN, d1, d2, config)
        want = oracles.o_lin(o1, o2)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report(1, f"counts, associations, and all measures match brute force in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2


def test_criterion_2_measure_property_conformance():
    rng = random.Random(20240229)
    config = MeasureConfig()
    log2_two = 2.0 * math.log(2.0) / math.log(config.log_base)

    for _ in range(1000):
        cp_pair = random_cp_pair(rng, WORD_POOL)
        rel_pair = random_pmi_pair(rng, REL_POOL)
        word_pair = random_pmi_pair(rng, WORD_POOL)

        for measure in SYMMETRIC_MEASURES:
            d1, d2 = profile_pair_for(measure, cp_pair, rel_pair, word_pair)
            forward = score(measure, d1, d2, config)
            backward = score(measure, d2, d1, config)
            assert abs(forward - backward) <= 1e-12, measure

        d = cp_pair[0]
        d_rel = rel_pair[0]
        for measure in ZERO_ON_IDENTITY:
            assert abs(score(measure, d, d, config)) <= 1e-12, measure
        for measure in ONE_ON_IDENTITY:
            same = d_rel if measure in PMI_MEASURES else d
            assert abs(score(measure, same, same, config) - 1.0) <= 1e-12, measure

        for measure in UNIT_BOUNDED:
            d1, d2 = profile_pair_for(measure, cp_pair, rel_pair, word_pair)
            value = score(measure, d1, d2, config)
            assert -1e-12 <= value <= 1.0 + 1e-12, measure
        for measure in NONNEGATIVE_DIVERGENCES:
            value = score(measure, *cp_pair, config)
            assert value >= -1e-12, measure
        assert score(MeasureId.JSD, *cp_pair, config) <= log2_two + 1e-12
        assert score(MeasureId.KLD_ABS, *cp_pair, config) >= (
            score(MeasureId.KLD, *cp_pair, config) - 1e-12
        )

    # stored witness pairs for the asymmetric measures
    witnesses = json.loads((FIXTURES / "asymmetry_witnesses.json").read_text())
    for name in ("kld", "kld_abs", "kld_com", "asd"):
        d1 = cp(witnesses[name][0], "a")
        d2 = cp(witnesses[name][1], "b")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            forward = score(MeasureId(name), d1, d2)
            backward = score(MeasureId(name), d2, d1)
        assert abs(forward - backward) > 1e-9, name
    crm_config = MeasureConfig(
        gamma=0.0, beta=1.0, crm_kind=CrmKind.TOKEN, crm_penalty=CrmPenalty.ADD
    )
    d1 = cp(witnesses["crm"][0], "a")
    d2 = cp(witnesses["crm"][1], "b")
    assert abs(
        score(MeasureId.CRM, d1, d2, crm_config)
        - score(MeasureId.CRM, d2, d1, crm_config)
    ) > 1e-9

    report(2, "symmetry tags, identity extremes, and bounds hold on 1000 random pairs")


# ---------------------------------------------------------------------------
# criterion 3


def test_criterion_3_algebraic_identities():
    rng = random.Random(71)
    config = MeasureConfig()
    for _ in range(200):
        d1, d2 = random_cp_pair(rng, WORD_POOL)

        # averaged divergence equals its closed-form rewrite
        got = score(MeasureId.KLD_AVG, d1, d2, config)
        closed = oracles.o_kld_avg_closed(d1.entries, d2.entries)
        assert got == pytest.approx(closed, abs=1e-9)

        # the difference form is the city-block distance
        assert score(MeasureId.DIF, d1, d2) == score(MeasureId.L1, d1, d2)

        # average-weighted product form telescopes to product over half-sum
        got = score(MeasureId.PDT_AVG_WT, d1, d2)
        want = oracles.o_pdt_avg_wt_closed(d1.entries, d2.entries)
        assert got == pytest.approx(want, abs=1e-9)

        # difference-weighted token retrieval is direction-free
        p, r = crm_precision_recall(d1, d2, CrmKind.TOKEN, CrmPenalty.DW)
        assert p == r

    # skew divergence approaches the unsmoothed divergence as mixing vanishes
    d1 = cp({"a": 0.2, "b": 0.5, "c": 0.3})
    d2 = cp({"a": 0.4, "b": 0.1, "c": 0.5})
    plain = sum(
        d1.entries[k] * math.log(d1.entries[k] / d2.entries[k], 2.0) for k in "abc"
    )
    for alpha in (1.0, 1.0 - 1e-9, 1.0 - 1e-7):
        got = score(MeasureId.ASD, d1, d2, MeasureConfig(alpha=alpha))
        assert got == pytest.approx(plain, abs=1e-6)

    report(3, "closed forms, telescoping, and limits agree")


# ---------------------------------------------------------------------------
# criterion 4


def test_criterion_4_worked_compositional_example():
    close_pair = (cp({"w": 0.91}, "w1"), cp({"w": 0.80}, "w2"))
    far_pair = (cp({"w": 0.60}, "w3"), cp({"w": 0.50}, "w4"))

    dif_close = score(MeasureId.DIF, *close_pair)
    dif_far = score(MeasureId.DIF, *far_pair)
    assert dif_close == pytest.approx(0.11, abs=1e-12)
    assert dif_far == pytest.approx(0.10, abs=1e-12)
    assert dif_close > dif_far

    div_close = score(MeasureId.DIV, *close_pair)
    div_far = score(MeasureId.DIV, *far_pair)
    assert div_close < div_far  # the log-ratio form reverses the ranking

    report(4, "difference values 0.11 vs 0.10 with log-ratio ranking reversal")


# ---------------------------------------------------------------------------
# criterion 5


def test_criterion_5_word_category_matrix_suite(
    toy_counts, toy_thesaurus, toy_documents, toy_config, toy_segments
):
    base = build_base_wccm(toy_counts, toy_thesaurus)

    # linearity: base matrix equals word-word counts times membership incidence
    words = toy_counts.targets
    cats = sorted(toy_thesaurus.categories)
    windex = {w: i for i, w in enumerate(words)}
    counts_matrix = np.zeros((len(words), len(words)))
    for t, f, n in toy_counts.items():
        counts_matrix[windex[t], windex[f]] = n
    incidence = np.zeros((len(words), len(cats)))
    for j, cat in enumerate(cats):
        for word in toy_thesaurus.categories[cat].words:
            if word in windex:
                incidence[windex[word], j] = 1.0
    product = counts_matrix @ incidence
    for i, word in enumerate(words):
        for j, cat in enumerate(cats):
            assert base.matrix.pair_count(cat, word) == pytest.approx(product[i, j], abs=1e-9)

    # bootstrap attribution: one cell per event, totals conserved
    tokens = list(tokenize_documents(toy_documents, toy_config))
    boot = bootstrap_wccm(tokens, base, toy_thesaurus, toy_config)
    radius = toy_config.window_radius
    events = 0
    for segment in toy_segments:
        for i, word in enumerate(segment):
            if toy_thesaurus.senses(word):
                lo = max(0, i - radius)
                hi = min(len(segment), i + radius + 1)
                events += hi - lo - 1
    assert boot.matrix.total_pairs == pytest.approx(events)
    assert all(abs(v - round(v)) < 1e-9 for _, _, v in boot.matrix.items())
    assert boot.matrix.total_pairs <= base.matrix.total_pairs

    # identity lexicon collapses the cross-lingual matrix onto the monolingual one
    identity = BilingualLexicon({w: frozenset({w}) for w in toy_counts.targets})
    xling = build_crosslingual_wccm(toy_counts, identity, toy_thesaurus)
    assert sorted(xling.matrix.items()) == sorted(base.matrix.items())

    report(5, "linearity, event conservation, and identity-lexicon reduction hold")


# ---------------------------------------------------------------------------
# criterion 6

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

# credit propagated by hand through the 7-node hierarchy
TOY_CREDITS = {
    "entity": 50,
    "animal": 33,
    "artifact": 17,
    "dog": 15,
    "cat": 15,
    "tool": 12,
    "hammer": 8,
}


def test_criterion_6_taxonomy_suite(toy_taxonomy):
    table = ic_from_counts(toy_taxonomy, TOY_FREQS)
    ic_oracle = {
        node: -math.log2(Fraction(credit, 50)) for node, credit in TOY_CREDITS.items()
    }

    for node, want in ic_oracle.items():
        assert table.ic[node] == pytest.approx(want, abs=1e-9)

    for child, parent, relation in toy_taxonomy.edges:
        if relation == "isa":
            assert table.ic[parent] <= table.ic[child] + 1e-12

    # subsumer-based scores against the hand-propagated sheet
    cases = [
        ("dog", "cat", "animal"),
        ("tool", "hammer", "tool"),
        ("cat", "tool", "entity"),
        ("dog", "hammer", "entity"),
    ]
    for c1, c2, subsumer in cases:
        assert lso(toy_taxonomy, c1, c2, table) == subsumer
        assert resnik(toy_taxonomy, c1, c2, table) == pytest.approx(
            ic_oracle[subsumer], abs=1e-9
        )
        want_jc = ic_oracle[c1] + ic_oracle[c2] - 2 * ic_oracle[subsumer]
        assert jiang_conrath(toy_taxonomy, c1, c2, table) == pytest.approx(
            want_jc, abs=1e-9
        )
        if ic_oracle[c1] + ic_oracle[c2] > 0:
            want_lin = 2 * ic_oracle[subsumer] / (ic_oracle[c1] + ic_oracle[c2])
            assert lin_taxonomy(toy_taxonomy, c1, c2, table) == pytest.approx(
                want_lin, abs=1e-9
            )

    assert jiang_conrath(toy_taxonomy, "cat", "cat", table) == pytest.approx(
        0.0, abs=1e-12
    )
    assert lin_taxonomy(toy_taxonomy, "cat", "cat", table) == pytest.approx(
        1.0, abs=1e-12
    )
    assert resnik(toy_taxonomy, "dog", "hammer", table) == 0.0

    # path-based scores against hand-walked paths (depth 3 hierarchy)
    assert hirst_stonge(toy_taxonomy, "cat", "cat") == pytest.approx(8.0, abs=1e-9)
    assert hirst_stonge(toy_taxonomy, "dog", "animal") == pytest.approx(7.0, abs=1e-9)
    assert hirst_stonge(toy_taxonomy, "dog", "hammer") == pytest.approx(5.0, abs=1e-9)
    assert hirst_stonge(toy_taxonomy, "cat", "hammer") == pytest.approx(2.0, abs=1e-9)
    assert leacock_chodorow(toy_taxonomy, "dog", "cat") == pytest.approx(
        math.log2(3), abs=1e-9
    )
    assert leacock_chodorow(toy_taxonomy, "dog", "animal") == pytest.approx(
        math.log2(6), abs=1e-9
    )
    assert leacock_chodorow(toy_taxonomy, "dog", "hammer") == pytest.approx(
        math.log2(6 / 5), abs=1e-9
    )

    report(6, "information content and all five hierarchy scores match the sheet")


# ---------------------------------------------------------------------------
# criterion 7


def _run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "distsem"] + [str(a) for a in args],
        capture_output=True,
        text=True,
        cwd=str(cwd),
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_7_end_to_end_smoke(tmp_path_factory):
    started = time.monotonic()
    root = tmp_path_factory.mktemp("e2e")
    corpus = root / "corpus.txt"
    n_tokens = write_topic_corpus(corpus, 1_020_000)
    assert n_tokens >= 1_000_000

    benchmark = FIXTURES / "miller_charles.csv"
    cache = root / "cache"
    common = [
        "--counts",
        root / "counts.tsv",
        "--benchmark",
        benchmark,
        "--measure",
        "cos",
    ]
    _run_cli(
        [
            "count",
            "--corpus",
            corpus,
            "--docs",
            "line",
            "--cache-dir",
            cache,
            "--out",
            root / "counts.tsv",
        ],
        root,
    )
    for name in ("rank1.tsv", "rank2.tsv"):
        _run_cli(["rank", *common, "--out", root / name], root)
    for name in ("eval1.tsv", "eval2.tsv"):
        _run_cli(["eval", *common, "--out", root / name], root)

    assert (root / "rank1.tsv").read_bytes() == (root / "rank2.tsv").read_bytes()
    assert (root / "eval1.tsv").read_bytes() == (root / "eval2.tsv").read_bytes()

    fields = dict(
        line.split("\t", 1)
        for line in (root / "eval1.tsv").read_text().splitlines()
        if line and not line.startswith("#")
    )
    spearman_value = float(fields["spearman_raw"])
    assert -1.0 <= spearman_value <= 1.0
    assert int(fields["pairs_skipped"]) == 0

    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    report(
        7,
        f"deterministic rank+eval on {n_tokens:,} tokens in {elapsed:.0f}s, "
        f"rank correlation {spearman_value:+.3f} (reported, not asserted)",
    )


# ---------------------------------------------------------------------------
# criterion 8


def test_criterion_8_throughput_and_memory():
    config = CorpusConfig(window_radius=5)
    n_tokens = 10_000_000
    vocab = 50_000

    started = time.monotonic()
    full = count_cooccurrences(flat_token_stream(n_tokens, vocab), config)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    assert full.total_tokens == n_tokens

    # memory grows with the observed pair inventory, not with corpus length
    def traced_peak(tokens):
        tracemalloc.start()
        count_cooccurrences(
            flat_token_stream(tokens, 500, seed=7), config, chunk_size=1 << 16
        )
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    peak_small = traced_peak(200_000)
    peak_large = traced_peak(800_000)
    assert peak_large < 2.0 * peak_small

    # shard-merge equivalence on a two-way split at a document boundary
    def token_slice(start, stop):
        i = 0
        for token in flat_token_stream(n_tokens, vocab):
            if token is None:
                if start < i < stop:
                    yield None
                continue
            if i >= stop:
                return
            if i >= start:
                yield token
            i += 1

    half = n_tokens // 2
    first = count_cooccurrences(token_slice(0, half), config)
    second = count_cooccurrences(token_slice(half, n_tokens), config)
    merged = merge_counts([first, second])
    del first, second
    assert counts_equal(merged, full)

    report(
        8,
        f"counted {n_tokens:,} tokens in {elapsed:.0f}s; "
        f"peak memory x{peak_large / peak_small:.2f} for x4 corpus; shard merge exact",
    )


def test_cli_count_memory_follows_the_pairs_not_the_file(tmp_path, monkeypatch):
    """``count --docs line`` reads a line at a time, so a 4x corpus takes under 2x the memory."""
    from distsem import cli, corpus

    # with 4,096-position chunks the id buffers stop growing well inside the smaller
    # corpus (at the default 2**20, only millions of tokens would show the file's share)
    monkeypatch.setattr(
        corpus.count_cooccurrences, "__defaults__", (CorpusConfig(), corpus._FIRST_BUFFER)
    )

    def traced_peak(n_tokens):
        path = tmp_path / f"corpus_{n_tokens}.txt"
        write_topic_corpus(path, n_tokens)
        tracemalloc.start()
        code = cli.main(["count", "--corpus", str(path), "--docs", "line",
                         "--out", str(tmp_path / "counts.tsv")])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == 0
        return peak

    peak_small = traced_peak(100_000)
    peak_large = traced_peak(400_000)
    assert peak_large < 2.0 * peak_small
