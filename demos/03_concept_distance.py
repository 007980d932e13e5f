"""
Concept distance through a thesaurus
====================================

Word-level profiles conflate senses: 'jam' mixes music evidence with food
evidence.  A word-by-category matrix over coarse thesaurus senses separates
them.  The base matrix credits every candidate sense of each neighbor; a
second, disambiguating pass re-attributes each event to the single category
its context supports best.  The cross-lingual variant does the same through a
bilingual lexicon, profiling source-language words against target-language
categories.
"""

from distsem import (
    BilingualLexicon,
    CorpusConfig,
    MeasureId,
    SoAKind,
    Thesaurus,
    bootstrap_wccm,
    build_base_wccm,
    build_crosslingual_wccm,
    candidate_senses,
    concept_distance,
    concept_profile,
    count_cooccurrences,
    tokenize_documents,
)
from distsem.concept import Category

DOCUMENTS = [
    "the band played a quiet song while the guitar and piano carried the melody",
    "the drummer hit the drum and the band started a long jam on stage",
    "the band tuned the guitar and the drum before the jam and the song began",
    "we spread sweet jam and fresh butter on warm bread with cheese and apple",
    "bread with butter and a spoon of jam makes a fine meal with cheese",
    "a small bird watched the cat while the dog slept near the horse",
]

THESAURUS = Thesaurus(
    {
        "music": Category("Music", frozenset("band song guitar piano melody drum jam".split())),
        "food": Category("Food", frozenset("bread butter cheese apple jam meal".split())),
        "animals": Category("Animals", frozenset("cat dog bird horse".split())),
    }
)



def word_row(wccm, word):
    """A word's event counts per category, read from the category-by-word matrix."""
    return {cat: n for cat, w, n in wccm.matrix.items() if w == word}


config = CorpusConfig(window_radius=3)
tokens = list(tokenize_documents(DOCUMENTS, config))
counts = count_cooccurrences(tokens, config)

# First pass: ambiguous neighbors ('jam') credit both of their categories.
base = build_base_wccm(counts, THESAURUS)
print("base matrix grand total:", base.matrix.total_pairs)
print("row for 'bread':", word_row(base, "bread"))

# Second pass: every event lands in exactly one category, so the total drops
# to the number of co-occurrence events.
boot = bootstrap_wccm(tokens, base, THESAURUS, config)
print("bootstrapped grand total:", boot.matrix.total_pairs, "(one cell per event)")
print("row for 'bread':", word_row(boot, "bread"))

# Columns are distributional profiles of concepts.
music = concept_profile(boot, "music", SoAKind.CP)
top = sorted(music.entries.items(), key=lambda kv: -kv[1])[:5]
print("\nwords most expected around the music sense:", [w for w, _ in top])

print("\nconcept distances (cosine):")
for c1, c2 in [("music", "music"), ("music", "food"), ("music", "animals")]:
    value = concept_distance(boot, c1, c2, MeasureId.COS)
    print(f"  {c1:>7} vs {c2:<7}: {value:.3f}")

# Cross-lingual candidate senses: a source word reaches target-language
# categories through its translations, no parallel corpus needed.
lexicon = BilingualLexicon(
    {
        "gitarre": frozenset({"guitar"}),
        "brot": frozenset({"bread"}),
        "marmelade": frozenset({"jam"}),
        "katze": frozenset({"cat"}),
    }
)
print("\ncandidate senses of 'marmelade':",
      sorted(candidate_senses("marmelade", lexicon, THESAURUS)))

source_docs = ["gitarre und marmelade", "brot und marmelade", "katze und brot"]
source_counts = count_cooccurrences(tokenize_documents(source_docs, config), config)
xling = build_crosslingual_wccm(source_counts, lexicon, THESAURUS)
print("cross-lingual row for 'brot':", word_row(xling, "brot"))
