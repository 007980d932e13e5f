"""Spans around the program's public layer functions, for the traced run only.

The tracer replaces each function listed in ``LAYER_FUNCTIONS`` with a
wrapper in every ``distsem`` module that holds a reference to it, so calls
made through ``distsem.cli.main`` are covered too.  Spans (name, start, end,
parent, phase) are kept in memory; a layer's self time is the time of its
spans minus the time of their child spans, summed per phase of the round
("setup", "query", or None for untimed steps, which no figure includes).
Counters that need work of their own (the union support of a scored pair)
run inside a ``trace`` span, so that work is charged to no layer.
"""

from __future__ import annotations

import sys
import time

# (module, function) -> per-layer metric that its self time adds to
LAYER_FUNCTIONS = {
    ("corpus", "read_documents"): "corpus.read_s",
    ("corpus", "tokenize"): "corpus.tokenize_s",
    ("corpus", "count_cooccurrences"): "corpus.count_s",
    ("corpus", "merge_counts"): "corpus.merge_s",
    ("corpus", "save_counts"): "corpus.save_counts_s",
    ("corpus", "load_counts"): "corpus.load_counts_s",
    ("cli", "_hash_file"): "cli.manifest_s",
    ("profiles", "build_profile"): None,  # profiles.cp_s or profiles.pmi_s, by kind
    ("measures", "score"): "measures.score_s",
    ("evaluation", "rank_pairs"): "evaluation.rank_s",
    ("evaluation", "correlate"): "evaluation.rank_s",
    ("evaluation", "solve_word_choice"): "evaluation.choice_s",
    ("concept", "build_base_wccm"): "concept.base_s",
    ("concept", "save_wccm"): "concept.wccm_io_s",
    ("concept", "load_wccm"): "concept.wccm_io_s",
    ("concept", "load_thesaurus"): "concept.wccm_io_s",
    ("concept", "bootstrap_wccm"): "concept.bootstrap_s",
    ("concept", "concept_profile"): "concept.profile_s",
    ("concept", "concept_distance_matrix"): "concept.matrix_s",
    ("taxonomy", "load_taxonomy"): "taxonomy.load_s",
    ("taxonomy", "ic_from_counts"): "taxonomy.ic_s",
    ("taxonomy", "save_ic_table"): "taxonomy.ic_io_s",
    ("taxonomy", "load_ic_table"): "taxonomy.ic_io_s",
    ("taxonomy", "load_word_frequencies"): "taxonomy.ic_io_s",
    ("taxonomy", "shortest_path"): "taxonomy.path_s",
    ("taxonomy", "hirst_stonge"): "taxonomy.path_s",
    ("taxonomy", "leacock_chodorow"): "taxonomy.lc_s",
    ("taxonomy", "resnik"): "taxonomy.ic_measures_s",
    ("taxonomy", "jiang_conrath"): "taxonomy.ic_measures_s",
    ("taxonomy", "lin_taxonomy"): "taxonomy.ic_measures_s",
}

TIME_METRICS = sorted(
    {m for m in LAYER_FUNCTIONS.values() if m} | {"profiles.cp_s", "profiles.pmi_s"}
)
COUNTERS = ("profiles.built", "profiles.entries", "measures.scored", "measures.union_features")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self._stack: list[int] = []
        self.phase = None  # set by the worker before each step
        self.counters: dict = {}  # phase -> counter -> count

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.phase])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def count(self, name: str, n: int) -> None:
        counters = self.counters.setdefault(self.phase, dict.fromkeys(COUNTERS, 0))
        counters[name] += n

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, metric):
        tracer = self

        def traced(*args, **kwargs):
            name = metric or _profile_metric(args, kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if metric is None:
                tracer.count("profiles.built", 1)
                tracer.count("profiles.entries", len(result.entries))
            elif metric == "measures.score_s":
                inner = tracer.open("trace")
                tracer.count("measures.scored", 1)
                tracer.count(
                    "measures.union_features", len(args[1].entries.keys() | args[2].entries.keys())
                )
                tracer.close(inner)
            return result

        return traced

    def install(self) -> None:
        """Swap every listed function for its traced wrapper in all distsem modules."""
        import distsem.cli  # noqa: F401  (imports every other submodule)

        modules = [m for n, m in sys.modules.items() if n == "distsem" or n.startswith("distsem.")]
        for (module_name, attr), metric in LAYER_FUNCTIONS.items():
            original = getattr(sys.modules[f"distsem.{module_name}"], attr)
            wrapper = self.wrap(original, metric)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def self_times(self) -> dict:
        """Per-phase, per-layer self time: each span's duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict = {}
        for (name, start, end, _, phase), inner in zip(self.spans, child_time):
            if name in TIME_METRICS:
                by_layer = totals.setdefault(phase, dict.fromkeys(TIME_METRICS, 0.0))
                by_layer[name] += (end - start) - inner
        return totals

    def per_run(self, runs: dict) -> dict:
        """Self times and counters for one run of each phase (phase -> runs in the round)."""
        out = dict.fromkeys(TIME_METRICS, 0.0) | dict.fromkeys(COUNTERS, 0)
        for by_phase in (self.self_times(), self.counters):
            for phase, count in runs.items():
                for name, value in by_phase.get(phase, {}).items():
                    out[name] += value / count
        return {k: int(v) if k in COUNTERS and v == int(v) else v for k, v in out.items()}


def _profile_metric(args, kwargs) -> str:
    kind = kwargs.get("kind", args[2] if len(args) > 2 else None)
    return "profiles.cp_s" if str(getattr(kind, "value", kind)) == "cp" else "profiles.pmi_s"
