"""One round of one workload's program steps, in a process of its own.

Run by ``run.py`` as ``python3 bench/worker.py <workload> <work dir> <output
dir> <trace 0|1>``.  The process does nothing but the program's steps, so its
peak resident memory is the workload's.  A round runs the set-up steps once
and then the query set ``QUERY_SETS`` times.  Build steps and the CLI's batch
queries go through ``distsem.cli.main``; pair lists that the CLI answers only
one pair per process for are scored by library calls that load the model
once.  Timings exclude
the deliberately failing deep-chain ``ic-build`` and everything the output
checks need afterwards.  The result is written as JSON to ``result.json`` in
the output directory.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import distsem.cli as cli  # noqa: E402
from distsem import MeasureId  # noqa: E402
from distsem import concept, taxonomy  # noqa: E402

# The shared machine's speed swings by a third for seconds at a time; two
# query sets per round give the query mean more samples than the set-up's.
QUERY_SETS = 2


class Round:
    def __init__(self, tracer):
        self.tracer = tracer
        self.ops = 0
        self.failed = 0
        self.setup_s = 0.0
        self.query_s: list[float] = []  # one entry per query set

    def timed(self, phase, label: str, fn, *args, collect: bool = True):
        """Run one step and add its wall time to ``phase`` ("setup", "query" or None).

        A raised error or a nonzero exit code counts as a failed operation.
        ``collect`` runs a full garbage collection first, so that one step's
        garbage is not collected on the next step's clock.  Single-pair scores
        skip it: a collection costs more than the score.
        """
        if collect:
            gc.collect()
        if self.tracer:
            self.tracer.phase = phase
        start = time.perf_counter()
        try:
            result = fn(*args)
            ok = not (isinstance(result, int) and result != 0)
        except Exception as exc:  # an uncaught program error is a failed operation
            print(f"{label}: {type(exc).__name__}: {exc}"[:300], file=sys.stderr)
            result, ok = None, False
        elapsed = time.perf_counter() - start
        if phase == "setup":
            self.setup_s += elapsed
        elif phase == "query":
            self.query_s[-1] += elapsed
        self.ops += 1
        self.failed += not ok
        return result


# ---------------------------------------------------------------------------
# zipf-wordsim


def zipf_setup(rnd: Round, work: Path, out: Path, meta: dict) -> None:
    shards = [str(work / s) for s in meta["shards"]]
    count = ["count", "--corpus", *shards, "--docs", "line", "--cache-dir", str(out / "cache")]
    rnd.timed("setup", "count-cold", cli.main, count + ["--out", str(out / "counts_cold.tsv")])
    rnd.timed("setup", "count-warm", cli.main, count + ["--out", str(out / "counts.tsv")])


def zipf_queries(rnd: Round, work: Path, out: Path, meta: dict) -> None:
    counts = str(out / "counts.tsv")
    for measure in ("cos", "lin"):
        rnd.timed("query", f"rank-{measure}", cli.main, [
            "rank", "--counts", counts, "--benchmark", str(work / "pairs.csv"),
            "--measure", measure, "--out", str(out / f"rank_{measure}.tsv"),
        ])
    rnd.timed("query", "eval-choices", cli.main, [
        "eval", "--counts", counts, "--choices", str(work / "choices.tsv"),
        "--measure", "cos", "--out", str(out / "eval_choices.tsv"),
    ])


# ---------------------------------------------------------------------------
# topic-concepts

CONCEPT_MEASURES = ("cos", "jsd", "lin")


def topic_setup(rnd: Round, work: Path, out: Path, meta: dict) -> None:
    corpus, thesaurus = str(work / "corpus.txt"), str(work / "thesaurus.tsv")
    counts, base, boot = (str(out / n) for n in ("counts.tsv", "base.tsv", "boot.tsv"))
    rnd.timed("setup", "count", cli.main,
              ["count", "--corpus", corpus, "--docs", "line", "--out", counts])
    rnd.timed("setup", "wccm-build", cli.main,
              ["wccm-build", "--counts", counts, "--thesaurus", thesaurus, "--out", base])
    rnd.timed("setup", "wccm-bootstrap", cli.main, [
        "wccm-bootstrap", "--corpus", corpus, "--docs", "line", "--base", base,
        "--thesaurus", thesaurus, "--out", boot,
    ])


def topic_queries(rnd: Round, work: Path, out: Path, meta: dict) -> None:
    thesaurus, boot = str(work / "thesaurus.tsv"), str(out / "boot.tsv")
    model = {
        "word": ["--counts", str(out / "counts.tsv")],
        "concept": ["--wccm", boot, "--thesaurus", thesaurus],
    }
    for level, flags in model.items():
        for command in ("rank", "eval"):
            rnd.timed("query", f"{command}-{level}", cli.main, [
                command, *flags, "--benchmark", str(work / "miller_charles.csv"),
                "--measure", "cos", "--out", str(out / f"{command}_{level}.tsv"),
            ])
    wccm = rnd.timed("query", "load-wccm", concept.load_wccm, boot)
    matrices = {}
    for measure in CONCEPT_MEASURES:
        result = rnd.timed("query", f"matrix-{measure}", concept.concept_distance_matrix,
                           wccm, MeasureId(measure))
        if result is not None:
            matrices[measure] = result[1]
    np.savez(out / "matrices.npz", **matrices)


# ---------------------------------------------------------------------------
# taxonomy-scores

TAXO_MEASURES = ("path", "hs", "lc", "res", "jc", "lin")


def taxonomy_setup(rnd: Round, work: Path, out: Path, meta: dict) -> None:
    rnd.timed("setup", "ic-build", cli.main, [
        "ic-build", "--taxonomy", str(work / "taxonomy.taxo"), "--freqs", str(work / "freqs.tsv"),
        "--out", str(out / "ic.tsv"),
    ])
    # Fails today (RecursionError in the recursive hypernym validation); its
    # time is kept out of every metric.
    rnd.timed(None, "ic-build-deep-chain", cli.main, [
        "ic-build", "--taxonomy", str(work / "chain.taxo"),
        "--freqs", str(work / "chain_freqs.tsv"), "--out", str(out / "chain_ic.tsv"),
    ])


def taxonomy_queries(rnd: Round, work: Path, out: Path, meta: dict) -> None:
    loaded = {}

    def load():
        loaded["taxonomy"] = taxonomy.load_taxonomy(str(work / "taxonomy.taxo"))
        loaded["ic"] = taxonomy.load_ic_table(str(out / "ic.tsv"))

    rnd.timed("query", "load", load)
    tx, ic = loaded.get("taxonomy"), loaded.get("ic")
    scorers = {
        "path": lambda a, b: taxonomy.shortest_path(tx, a, b),
        "hs": lambda a, b: taxonomy.hirst_stonge(tx, a, b),
        "lc": lambda a, b: taxonomy.leacock_chodorow(tx, a, b),
        "res": lambda a, b: taxonomy.resnik(tx, a, b, ic),
        "jc": lambda a, b: taxonomy.jiang_conrath(tx, a, b, ic),
        "lin": lambda a, b: taxonomy.lin_taxonomy(tx, a, b, ic),
    }
    scores = [
        {m: rnd.timed("query", f"{m} {c1} {c2}", scorers[m], c1, c2, collect=False)
         for m in TAXO_MEASURES}
        for c1, c2, _ in meta["pairs"]
    ]
    (out / "scores.json").write_text(json.dumps(scores), encoding="utf-8")


STEPS = {
    "zipf-wordsim": (zipf_setup, zipf_queries),
    "topic-concepts": (topic_setup, topic_queries),
    "taxonomy-scores": (taxonomy_setup, taxonomy_queries),
}


def peak_rss_mb() -> float:
    """Peak resident memory since exec (VmHWM).

    ``ru_maxrss`` would also count the parent's pages that the child shared
    between fork and exec, so it would follow the size of the harness.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    workload, work, out, trace = argv[0], Path(argv[1]), Path(argv[2]), argv[3] == "1"
    meta = json.loads((work / "worker.json").read_text(encoding="utf-8"))
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    rnd = Round(tracer)
    setup, queries = STEPS[workload]
    setup(rnd, work, out, meta)
    for _ in range(QUERY_SETS):
        rnd.query_s.append(0.0)
        queries(rnd, work, out, meta)
    result = {
        "ops": rnd.ops,
        "failed": rnd.failed,
        "setup_s": rnd.setup_s,
        "query_s": rnd.query_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = tracer.per_run({"setup": 1, "query": QUERY_SETS})
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
