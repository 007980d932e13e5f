"""Benchmark of the word, concept and taxonomy pipelines of distsem.

    python3 bench/run.py --workload zipf-wordsim --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --small          # every workload, tiny inputs, both modes

A run generates the workload's inputs from ``--seed`` under
``bench/_work/<workload>``, then repeats whole rounds of the workload's
program steps, each round in a fresh worker process (``worker.py``), until
``--seconds`` of rounds have run (at least three rounds at full size).  The
outputs of the first round are checked (``checks.py``); later rounds must
reproduce them byte for byte.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which holds
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
WORKLOADS = ("zipf-wordsim", "topic-concepts", "taxonomy-scores")
MIN_ROUNDS = {"full": 3, "small": 1}
DEADLINE_S = 170  # a run must end within 180 s, whatever a worker does

COUNT_METRICS = (
    "corpus.tokens",
    "corpus.nnz",
    "concept.occurrences",
    "concept.ambiguous",
    "concept.matrix_cells",
    "taxonomy.nodes",
    "taxonomy.edges",
    "taxonomy.pairs",
)


def _digests(out: Path) -> dict:
    """Content hashes of a round's output files (the counts cache excluded)."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "result.json"
    }


def _data_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if not line.startswith("#"))


def layer_counts(workload: str, work: Path, out: Path, meta: dict) -> dict:
    """Per-layer work counts, from the benchmark's inputs and the program's outputs."""
    from checks import topic_counts, topic_matrices

    counts = dict.fromkeys(COUNT_METRICS, 0)
    counts["corpus.counts_mb"] = 0.0
    if workload in ("zipf-wordsim", "topic-concepts"):
        counts["corpus.tokens"] = int(meta["tokens"])
        counts["corpus.nnz"] = _data_lines(out / "counts.tsv")
        counts["corpus.counts_mb"] = (out / "counts.tsv").stat().st_size / 2**20
    if workload == "topic-concepts":
        occ = topic_counts(work, meta["thesaurus"])
        counts["concept.occurrences"] = occ["occurrences"]
        counts["concept.ambiguous"] = occ["ambiguous"]
        counts["concept.matrix_cells"] = int(sum(m.size for m in topic_matrices(out).values()))
    if workload == "taxonomy-scores":
        counts["taxonomy.nodes"] = meta["nodes"]
        counts["taxonomy.edges"] = meta["edges"]
        counts["taxonomy.pairs"] = len(meta["pairs"])
    return counts


def run_workload(workload: str, seed: int, seconds: float, trace: bool, mode: str) -> dict:
    # imported here: they need tests/ of the checkout, which main() checks first
    from checks import CHECKS
    from inputs import GENERATORS, SIZES

    deadline = time.perf_counter() + DEADLINE_S
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()
    meta = GENERATORS[workload](work, seed, SIZES[mode])
    harness_s = {"generate": time.perf_counter() - started, "check": 0.0}

    rounds: list[dict] = []
    failures: list[str] = []
    figures: dict = {}
    counts: dict = {}
    first_digests = None
    busy = 0.0
    out = work / "out"  # one path for every round: output manifests record input paths
    while True:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), workload, str(work), str(out),
                 "1" if trace else "0"],
                cwd=ROOT, stdout=sys.stderr, timeout=max(deadline - started, 1.0),
            )
        except subprocess.TimeoutExpired:
            failures.append(f"round {len(rounds)} did not end within the run's {DEADLINE_S} s")
            break
        busy += time.perf_counter() - started
        if proc.returncode != 0:
            failures.append(f"worker exited with {proc.returncode}")
            break
        rounds.append(json.loads((out / "result.json").read_text(encoding="utf-8")))
        digests = _digests(out)
        if first_digests is None:
            first_digests = digests
            started = time.perf_counter()
            try:
                more, figures = CHECKS[workload](work, out, meta)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                more = [f"output check could not read the outputs: {exc!r}"]
            failures += more
            harness_s["check"] = time.perf_counter() - started
            counts = layer_counts(workload, work, out, meta) if trace and not more else {}
        elif digests != first_digests:
            failures.append(f"round {len(rounds) - 1} outputs differ from round 0")
        if busy >= seconds and len(rounds) >= MIN_ROUNDS[mode]:
            break

    (work / "rounds.json").write_text(json.dumps(rounds), encoding="utf-8")
    for line in failures:
        print(f"CHECK FAILED: {line}")
    summary = {
        "setup_s": [round(r["setup_s"], 3) for r in rounds],
        "query_s": [[round(q, 3) for q in r["query_s"]] for r in rounds],
        "peak_rss_mb": [round(r["peak_rss_mb"], 1) for r in rounds],
    }
    print(f"{workload} seed={seed} trace={int(trace)} rounds={len(rounds)} {summary}")
    print(f"harness: {', '.join(f'{k} {v:.2f} s' for k, v in harness_s.items())}")
    if figures:
        print(f"reference figures: {figures}")

    # Times are means: the shared machine's speed swings between two levels
    # for seconds at a time, and a mean of many samples moves less with that
    # than their median does.  Memory steps in 2 MiB pages, so a median.
    metrics = {}
    if rounds:
        if trace:
            for name, value in rounds[0]["layers"].items():
                if name.endswith("_s"):
                    metrics[name] = {"value": statistics.mean(r["layers"][name] for r in rounds),
                                     "unit": "s"}
                else:
                    metrics[name] = {"value": value, "unit": "count"}
            for name, value in counts.items():
                metrics[name] = {"value": value, "unit": "MB" if name.endswith("_mb") else "count"}
        else:
            metrics["setup_s"] = {"value": statistics.mean(r["setup_s"] for r in rounds), "unit": "s"}
            metrics["query_s"] = {"value": statistics.mean(q for r in rounds for q in r["query_s"]),
                                  "unit": "s"}
            metrics["peak_rss_mb"] = {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                                      "unit": "MB"}
    return {
        "correct": bool(rounds) and not failures,
        "attempted": sum(r["ops"] for r in rounds) or 1,
        "failed": sum(r["failed"] for r in rounds),
        "metrics": dict(sorted(metrics.items())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, one round; without --workload, every workload traced and not")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "distsem").is_dir() or not (ROOT / "tests" / "corpusgen.py").is_file():
        print(f"bench: {ROOT} holds no distsem sources (src/distsem, tests/corpusgen.py)",
              file=sys.stderr)
        return 2
    if args.small:
        runs = [(w, t) for w in ([args.workload] if args.workload else WORKLOADS) for t in (0, 1)]
        results = [run_workload(w, args.seed, 0.0, bool(t), "small") for w, t in runs]
        for (w, t), result in zip(runs, results):
            print(json.dumps({"workload": w, "trace": t, **result}))
        return 0 if all(r["correct"] for r in results) else 1
    if args.workload is None:
        parser.error("--workload is required unless --small is given")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
