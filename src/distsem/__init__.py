"""Corpus-driven semantic distance between words and coarse-grained concepts.

The toolkit has three layers:

* word level: windowed or dependency-based co-occurrence counts, strength of
  association statistics, distributional profiles, and a catalog of profile
  distance measures;
* concept level: word-by-category co-occurrence matrices over a thesaurus,
  bootstrapped disambiguation, cross-lingual candidate senses, and concept
  profiles compared with the same measures;
* knowledge-rich level: path- and information-content-based scores over a
  typed concept hierarchy, plus an evaluation harness against human-judgment
  benchmarks.
"""

__version__ = "0.1.0"

from .assoc import ContingencyTable, SoAKind, contingency, strength
from .concept import (
    BilingualLexicon,
    Thesaurus,
    WCCM,
    bootstrap_wccm,
    build_base_wccm,
    build_crosslingual_wccm,
    candidate_senses,
    concept_distance,
    concept_distance_matrix,
    concept_profile,
    load_lexicon,
    load_thesaurus,
    load_wccm,
    save_wccm,
)
from .corpus import (
    BOUNDARY,
    Boundaries,
    CooccurrenceCounts,
    CorpusConfig,
    count_cooccurrences,
    counts_equal,
    ingest_triples,
    inverse_relation,
    load_counts,
    merge_counts,
    read_documents,
    save_counts,
    tokenize,
    tokenize_documents,
)
from .evaluation import (
    BenchmarkSet,
    WordChoiceProblem,
    concept_pair_scorer,
    correlate,
    load_benchmark,
    load_word_choice,
    pearson,
    rank_pairs,
    solve_word_choice,
    spearman,
    word_pair_scorer,
)
from .measures import (
    CrmKind,
    CrmPenalty,
    MeasureConfig,
    MeasureId,
    Orientation,
    WeightScheme,
    crm_combine,
    crm_precision_recall,
    is_symmetric,
    orientation,
    required_soa,
    score,
)
from .profiles import (
    DistributionalProfile,
    build_profile,
    load_profile,
    save_profile,
)
from .taxonomy import (
    ICTable,
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
