"""Command-line front end: reproducible batch runs over the library pipeline.

Every emitted file or stream begins with manifest lines recording the tool
version, the subcommand, the configuration, and a content hash of every
input, so identical inputs and flags always produce byte-identical output.
Each input is read once per command, through one reader that hashes the
bytes it reads (see :func:`~distsem.corpus._blocks`), and the manifest is
built after the inputs are read, from those digests; so a pipe is hashed as
it is read.  ``count --cache-dir`` keeps each counts file it writes and its
binary sidecar (see :func:`save_counts`), whose sha256 checks the file, keyed
by its manifest, and copies both to ``--out`` on a re-run instead of counting
again; a corpus that is not a regular file (read once) is counted uncached.

Exit codes: 0 success, 1 computation error, 2 usage or input validation
error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Optional

from . import __version__
from .assoc import SoAKind, check_log_base
from .concept import (
    bootstrap_wccm,
    build_base_wccm,
    build_crosslingual_wccm,
    concept_distance,
    crosslingual_sense_index,
    load_lexicon,
    load_thesaurus,
    load_wccm,
    save_wccm,
)
from .corpus import (
    Boundaries,
    CorpusConfig,
    _document_lines,
    _DIGESTS,
    _Documents,
    _digest_of,
    _file_pieces,
    _read_sidecar,
    _recording,
    _sidecar,
    _write_atomically,
    config_fields,
    count_cooccurrences,
    ingest_triples,
    load_counts,
    merge_counts,
    read_documents,
    save_counts,
)
from .errors import (
    ConfigurationError,
    CorpusDecodeError,
    DistSemError,
    DistSemWarning,
    ParseError,
    ValidationError,
)
from .evaluation import (
    concept_pair_scorer,
    correlate,
    load_benchmark,
    load_word_choice,
    rank_pairs,
    solve_word_choice,
    word_pair_scorer,
)
from .measures import (
    CrmKind,
    CrmPenalty,
    MeasureConfig,
    MeasureId,
    WeightScheme,
    orientation,
)
from .profiles import build_profile, profile_lines
from .taxonomy import (
    check_hs_constants,
    hirst_stonge,
    ic_from_counts,
    jiang_conrath,
    leacock_chodorow,
    lin_taxonomy,
    load_ic_table,
    load_taxonomy,
    load_word_frequencies,
    resnik,
    save_ic_table,
    shortest_path,
)

_USAGE_ERRORS = (
    ValidationError,
    ParseError,
    ConfigurationError,
    CorpusDecodeError,
    FileNotFoundError,
    FileExistsError,
    IsADirectoryError,
    NotADirectoryError,
)


def _hash_file(path) -> str:
    """The sha256 of a ``count --cache-dir`` corpus file, read before it is counted, to key the entry."""
    return _digest_of(path)


def _digest(path) -> str:
    """The sha256 of input ``path``, recorded as the command read it."""
    return _DIGESTS.get()[str(path)]


def _fmt(value: float) -> str:
    return repr(float(value))


def build_manifest(command: str, inputs: list, settings: dict) -> list[str]:
    """Manifest lines, once ``inputs`` are read: each input's sha256 is the one taken as it was read."""
    lines = [f"#manifest\ttool=distsem/{__version__}", f"#manifest\tcommand={command}"]
    for path in inputs:
        lines.append(f"#manifest\tinput={path}\tsha256={_digest(path)}")
    for key in sorted(settings):
        lines.append(f"#manifest\tsetting\t{key}={settings[key]}")
    return lines


def _emit(args, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _corpus_config(args) -> CorpusConfig:
    return CorpusConfig(
        window_radius=args.window,
        lowercase=not args.no_lowercase,
        respect_boundaries=Boundaries(args.boundaries),
    )


def _corpus_settings(args) -> dict:
    return {**config_fields(_corpus_config(args)), "docs": args.docs}


def _measure_config(args) -> MeasureConfig:
    return MeasureConfig(
        log_base=args.log_base,
        epsilon=args.epsilon,
        alpha=args.alpha,
        gamma=args.gamma,
        beta=args.beta,
        weight_scheme=WeightScheme(args.weight),
        crm_kind=CrmKind(args.crm_kind),
        crm_penalty=CrmPenalty(args.crm_penalty),
    )


def _measure_settings(args) -> dict:
    return {
        "measure": args.measure,
        "log_base": _fmt(args.log_base),
        "epsilon": _fmt(args.epsilon),
        "alpha": _fmt(args.alpha),
        "gamma": _fmt(args.gamma),
        "beta": _fmt(args.beta),
        "weight": args.weight,
        "crm_kind": args.crm_kind,
        "crm_penalty": args.crm_penalty,
        "min_freq": args.min_freq,
    }


def _corpus_documents(args) -> _Documents:
    """The ``--corpus`` files' documents, tokenized one at a time; ``--docs line`` reads lines."""
    return _Documents(
        _document_lines(path) if args.docs == "line" else read_documents(path)
        for path in args.corpus
    )


def _count_corpus(args):
    """Count the windows of all input files, or each file's ``--triples`` and merge them."""
    if not args.triples:
        config = _corpus_config(args)
        return count_cooccurrences(_corpus_documents(args), config)
    relations = set(args.relations.split(",")) if args.relations else None
    parts = [ingest_triples(_file_pieces(p), relations, source=str(p)) for p in args.corpus]
    return parts[0] if len(parts) == 1 else merge_counts(parts)


def _lowercase(config: Optional[CorpusConfig]) -> bool:
    """Whether words were lowercased under ``config``, so a thesaurus or lexicon must be too."""
    return config is None or config.lowercase


def _entry_bytes(entry: Path) -> bytes:
    """The bytes of count cache entry ``entry``, checked against the sha256 its sidecar records."""
    data = entry.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if _read_sidecar(Path(f"{entry}.npz"), digest, "counts cache entry", lambda member: data) is None:
        raise ValidationError(f"{entry}: damaged counts cache entry (its sidecar does not record its sha256)")
    return data


def _copy_sidecar(entry: Path, dest: Path) -> None:
    """Copy the sidecar of count cache entry ``entry`` beside counts file ``dest``, where that may have one."""
    copy = _sidecar(dest)
    if copy is not None:
        data = Path(f"{entry}.npz").read_bytes()
        _write_atomically(copy, lambda handle: handle.write(data), like=dest)


#: Flags (by ``dest``) that only window counting reads, and their defaults.
_WINDOW_DEFAULTS = {"window": 5, "boundaries": "document", "no_lowercase": False, "docs": "file"}
#: The Hirst-St-Onge constants of ``taxo-distance`` and their defaults.
_HS_DEFAULTS = {"hs_c": 8.0, "hs_k": 1.0}


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", nargs="+", required=True, help="corpus text file(s)")
    parser.add_argument("--docs", choices=("file", "line"), help="one document per file or line")
    parser.add_argument("--window", type=int, help="window radius in tokens")
    parser.add_argument(
        "--boundaries",
        choices=tuple(b.value for b in Boundaries),
        help="which boundaries windows must not cross",
    )
    parser.add_argument("--no-lowercase", action="store_true", help="keep original case")
    parser.set_defaults(**_WINDOW_DEFAULTS)


def _add_measure_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--measure",
        choices=tuple(m.value for m in MeasureId),
        default="cos",
        help="profile-distance measure",
    )
    parser.add_argument("--log-base", type=float, default=2.0)
    parser.add_argument("--epsilon", type=float, default=1e-8, help="smoothing floor")
    parser.add_argument("--alpha", type=float, default=0.99, help="skew-divergence mixing")
    parser.add_argument("--gamma", type=float, default=0.5, help="retrieval blend weight")
    parser.add_argument("--beta", type=float, default=0.5, help="precision/recall balance")
    parser.add_argument(
        "--weight",
        choices=tuple(w.value for w in WeightScheme),
        default="none",
        help="compositional term weighting",
    )
    parser.add_argument(
        "--crm-kind", choices=tuple(k.value for k in CrmKind), default="token"
    )
    parser.add_argument(
        "--crm-penalty", choices=tuple(p.value for p in CrmPenalty), default="dw"
    )
    parser.add_argument("--min-freq", type=int, default=1, help="minimum feature frequency")


def cmd_count(args) -> int:
    settings = _corpus_settings(args)
    settings["triples"] = str(args.triples).lower()
    out = Path(args.out or "counts.tsv")
    if not args.cache_dir or not all(map(os.path.isfile, args.corpus)):  # a pipe is read once
        counts = _count_corpus(args)
        save_counts(counts, out, extra_header=build_manifest("count", args.corpus, settings))
        return 0
    for path in args.corpus:  # hashed first, as the manifest keys the entry
        _hash_file(path)
    manifest = build_manifest("count", args.corpus, settings)
    # the entry is the output file, keyed by everything that shapes it
    key = hashlib.sha256("\n".join(manifest).encode("utf-8")).hexdigest()
    entry = Path(args.cache_dir) / f"counts-v4-{key}.tsv"
    entry.parent.mkdir(parents=True, exist_ok=True)
    if not (entry.exists() and Path(f"{entry}.npz").exists()):  # a miss: counted into the cache
        with tempfile.TemporaryDirectory(dir=entry.parent) as made:
            counts = Path(made) / entry.name
            save_counts(_count_corpus(args), counts, extra_header=manifest)
            os.replace(f"{counts}.npz", f"{entry}.npz")  # first, so that an entry never lacks its sidecar
            os.replace(counts, entry)
    out.write_bytes(_entry_bytes(entry))  # read from the cache, as --out may be a pipe
    _copy_sidecar(entry, out)
    return 0


def cmd_profile(args) -> int:
    counts = load_counts(args.counts)
    profile = build_profile(
        counts, args.target, SoAKind(args.soa), log_base=args.log_base, min_feature_count=args.min_freq
    )
    settings = {"target": args.target, "soa": args.soa, "log_base": _fmt(args.log_base),
                "min_freq": args.min_freq}
    _emit(args, profile_lines(profile, build_manifest("profile", [args.counts], settings)))
    return 0


def cmd_distance(args) -> int:
    counts = load_counts(args.counts)
    config = _measure_config(args)
    scorer = word_pair_scorer(counts, MeasureId(args.measure), config, args.min_freq)
    value = scorer(args.w1, args.w2)
    lines = build_manifest("distance", [args.counts], _measure_settings(args))
    lines.append(f"{args.w1}\t{args.w2}\t{args.measure}\t{_fmt(value)}")
    _emit(args, lines)
    return 0


def _make_scorer(args, config: MeasureConfig):
    if args.wccm:
        wccm = load_wccm(args.wccm)
        thesaurus = load_thesaurus(args.thesaurus, _lowercase(wccm.config))
        scorer = concept_pair_scorer(wccm, thesaurus, MeasureId(args.measure), config)
        return scorer, [args.wccm, args.thesaurus]
    counts = load_counts(args.counts)
    scorer = word_pair_scorer(counts, MeasureId(args.measure), config, args.min_freq)
    return scorer, [args.counts]


def cmd_rank(args) -> int:
    config = _measure_config(args)
    scorer, inputs = _make_scorer(args, config)
    benchmark = load_benchmark(args.benchmark)
    result = rank_pairs(benchmark, scorer, orientation(MeasureId(args.measure)))
    lines = build_manifest("rank", inputs + [args.benchmark], _measure_settings(args))
    lines.append("rank\tword1\tword2\thuman\tscore")
    for position, (w1, w2, human, value) in enumerate(result.ranked, 1):
        lines.append(f"{position}\t{w1}\t{w2}\t{_fmt(human)}\t{_fmt(value)}")
    for w1, w2, reason in result.skipped:
        lines.append(f"#skipped\t{w1}\t{w2}\t{reason}")
    _emit(args, lines)
    return 0


def cmd_eval(args) -> int:
    config = _measure_config(args)
    scorer, inputs = _make_scorer(args, config)
    measure = MeasureId(args.measure)
    if args.choices:
        outcome = solve_word_choice(load_word_choice(args.choices), scorer, orientation(measure))
        rows = {"problems": outcome.n_problems, "correct": outcome.n_correct,
                "accuracy": _fmt(outcome.accuracy), "flagged": len(outcome.flagged)}
    else:
        report = correlate(load_benchmark(args.benchmark), scorer, orientation(measure))
        rows = {"pairs_used": report.n_used, "pairs_skipped": report.n_skipped,
                "orientation": report.orientation.value}
        for name in ("pearson_raw", "pearson_abs", "spearman_raw", "spearman_abs"):
            rows[name] = _fmt(getattr(report, name))
    lines = build_manifest("eval", inputs + [args.choices or args.benchmark], _measure_settings(args))
    _emit(args, lines + [f"{name}\t{value}" for name, value in rows.items()])
    return 0


def cmd_wccm_build(args) -> int:
    counts = load_counts(args.counts)
    thesaurus = load_thesaurus(args.thesaurus, _lowercase(counts.config))
    wccm = build_base_wccm(counts, thesaurus)
    wccm.source_fingerprint = _digest(args.counts)
    manifest = build_manifest("wccm-build", [args.counts, args.thesaurus], {})
    save_wccm(wccm, args.out or "wccm.tsv", extra_header=manifest)
    return 0


def cmd_wccm_bootstrap(args) -> int:
    config = _corpus_config(args)
    base = load_wccm(args.base)
    thesaurus = load_thesaurus(args.thesaurus, config.lowercase)
    if args.lexicon:
        lexicon = load_lexicon(args.lexicon, config.lowercase)
        senses = crosslingual_sense_index(lexicon, thesaurus)
    else:
        senses = thesaurus.index
    documents = _corpus_documents(args)
    wccm = bootstrap_wccm(
        documents, base, senses, config, log_base=args.log_base, iterations=args.iterations
    )
    inputs = args.corpus + [args.base, args.thesaurus] + ([args.lexicon] if args.lexicon else [])
    settings = _corpus_settings(args)
    settings["iterations"] = args.iterations
    settings["log_base"] = _fmt(args.log_base)
    manifest = build_manifest("wccm-bootstrap", inputs, settings)
    save_wccm(wccm, args.out or "wccm-bootstrapped.tsv", extra_header=manifest)
    return 0


def cmd_concept_distance(args) -> int:
    wccm = load_wccm(args.wccm)
    config = _measure_config(args)
    value = concept_distance(wccm, args.c1, args.c2, MeasureId(args.measure), config)
    lines = build_manifest("concept-distance", [args.wccm], _measure_settings(args))
    lines.append(f"{args.c1}\t{args.c2}\t{args.measure}\t{_fmt(value)}")
    _emit(args, lines)
    return 0


def cmd_xling_wccm(args) -> int:
    counts = load_counts(args.counts)
    lexicon = load_lexicon(args.lexicon, _lowercase(counts.config))
    thesaurus = load_thesaurus(args.thesaurus, _lowercase(counts.config))
    wccm = build_crosslingual_wccm(counts, lexicon, thesaurus)
    wccm.source_fingerprint = _digest(args.counts)
    manifest = build_manifest("xling-wccm", [args.counts, args.lexicon, args.thesaurus], {})
    save_wccm(wccm, args.out or "wccm-crosslingual.tsv", extra_header=manifest)
    return 0


def _path_and_changes(taxonomy, ic, args) -> tuple[float, str]:
    length, changes = shortest_path(taxonomy, args.c1, args.c2)
    return float(length), f"\trelation_changes={changes}"


#: Each ``--taxo-measure``: whether it reads ``--ic``, and its value and further output
#: fields from (taxonomy, IC table, args).  The measures are looked up when called.
_TAXO_MEASURES = {
    "path": (False, _path_and_changes),
    "hs": (False, lambda taxonomy, ic, a: (hirst_stonge(taxonomy, a.c1, a.c2, a.hs_c, a.hs_k), "")),
    "lc": (False, lambda taxonomy, ic, a: (leacock_chodorow(taxonomy, a.c1, a.c2, a.log_base), "")),
    "res": (True, lambda taxonomy, ic, a: (resnik(taxonomy, a.c1, a.c2, ic), "")),
    "jc": (True, lambda taxonomy, ic, a: (jiang_conrath(taxonomy, a.c1, a.c2, ic), "")),
    "lin": (True, lambda taxonomy, ic, a: (lin_taxonomy(taxonomy, a.c1, a.c2, ic), "")),
}


def cmd_taxo_distance(args) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    ic = load_ic_table(args.ic) if args.ic else None
    value, extra = _TAXO_MEASURES[args.taxo_measure][1](taxonomy, ic, args)
    settings = {"taxo_measure": args.taxo_measure, "log_base": _fmt(args.log_base),
                "hs_c": _fmt(args.hs_c), "hs_k": _fmt(args.hs_k)}
    lines = build_manifest("taxo-distance", [args.taxonomy] + ([args.ic] if args.ic else []), settings)
    lines.append(f"{args.c1}\t{args.c2}\t{args.taxo_measure}\t{_fmt(value)}{extra}")
    _emit(args, lines)
    return 0


def cmd_ic_build(args) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    if args.freqs:
        freqs = load_word_frequencies(args.freqs)
        inputs = [args.taxonomy, args.freqs]
    else:
        freqs = dict(load_counts(args.counts).unigram_counts)
        inputs = [args.taxonomy, args.counts]
    table = ic_from_counts(taxonomy, freqs, log_base=args.log_base)
    manifest = build_manifest("ic-build", inputs, {"log_base": _fmt(args.log_base)})
    save_ic_table(table, args.out or "ic.tsv", extra_header=manifest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distsem",
        description="Corpus-driven semantic distance between words and concepts",
    )
    parser.add_argument("--version", action="version", version=f"distsem {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count windowed co-occurrences or triples")
    _add_corpus_flags(p)
    p.add_argument("--triples", action="store_true", help="inputs are dependency triples")
    p.add_argument("--relations", default=None, help="comma-separated allowed relations")
    p.add_argument("--cache-dir", default=None, help="cache directory for counts")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("profile", help="build one word's distributional profile")
    p.add_argument("--counts", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--soa", choices=tuple(k.value for k in SoAKind), default="cp")
    p.add_argument("--log-base", type=float, default=2.0)
    p.add_argument("--min-freq", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("distance", help="score one word pair")
    p.add_argument("--counts", required=True)
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    _add_measure_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("rank", help="rank benchmark pairs by a measure")
    p.add_argument("--counts", default=None)
    p.add_argument("--wccm", default=None)
    p.add_argument("--thesaurus", default=None)
    p.add_argument("--benchmark", required=True)
    _add_measure_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("eval", help="correlate with human scores or solve word choices")
    p.add_argument("--counts", default=None)
    p.add_argument("--wccm", default=None)
    p.add_argument("--thesaurus", default=None)
    p.add_argument("--benchmark", default=None)
    p.add_argument("--choices", default=None)
    _add_measure_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("wccm-build", help="build the base word-category matrix")
    p.add_argument("--counts", required=True)
    p.add_argument("--thesaurus", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_wccm_build)

    p = sub.add_parser("wccm-bootstrap", help="disambiguating second pass")
    _add_corpus_flags(p)
    p.add_argument("--base", required=True, help="base matrix file")
    p.add_argument("--thesaurus", required=True)
    p.add_argument("--lexicon", default=None, help="bilingual lexicon for cross-lingual senses")
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--log-base", type=float, default=2.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_wccm_bootstrap)

    p = sub.add_parser("concept-distance", help="distance between two categories")
    p.add_argument("--wccm", required=True)
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", required=True)
    _add_measure_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_concept_distance)

    p = sub.add_parser("xling-wccm", help="cross-lingual base matrix")
    p.add_argument("--counts", required=True, help="source-language counts")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--thesaurus", required=True, help="target-language thesaurus")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_xling_wccm)

    p = sub.add_parser("taxo-distance", help="taxonomy-based concept distance")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", required=True)
    p.add_argument(
        "--taxo-measure",
        choices=tuple(_TAXO_MEASURES),
        default="path",
    )
    p.add_argument("--ic", default=None, help="information-content table file")
    p.add_argument("--log-base", type=float, default=2.0)
    p.add_argument("--hs-c", type=float)
    p.add_argument("--hs-k", type=float)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_taxo_distance, **_HS_DEFAULTS)

    p = sub.add_parser("ic-build", help="corpus-derived information content")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--freqs", default=None, help="word<TAB>count frequency file")
    p.add_argument("--counts", default=None, help="counts file; unigrams are used")
    p.add_argument("--log-base", type=float, default=2.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ic_build)

    return parser


def _refuse_unread(args, mode: str, defaults: dict) -> None:
    """Refuse a flag of ``defaults`` (dest to default) set otherwise: ``mode`` never reads it."""
    for dest, default in defaults.items():
        if getattr(args, dest) != default:
            raise ConfigurationError(f"--{dest.replace('_', '-')} is not used with {mode}")


def _validate_combinations(args) -> None:
    out = args.out and Path(args.out)
    if out and (out.is_dir() or not out.parent.is_dir()):
        raise ConfigurationError(f"--out {out} must name a file in an existing directory")
    if getattr(args, "log_base", None) is not None:
        check_log_base(args.log_base, "--log-base")
    if getattr(args, "min_freq", 1) < 1:
        raise ConfigurationError(f"--min-freq must be >= 1, not {args.min_freq}")
    if getattr(args, "min_freq", 1) != 1 and getattr(args, "wccm", None):
        raise ConfigurationError("--min-freq applies to --counts, not to --wccm")
    if args.command in ("rank", "eval"):
        if not args.counts and not args.wccm:
            raise ConfigurationError("need --counts or --wccm")
        if args.counts and args.wccm:
            raise ConfigurationError("--counts and --wccm exclude each other")
        if args.wccm and not args.thesaurus:
            raise ConfigurationError("--wccm needs --thesaurus for word-to-sense mapping")
        if args.thesaurus and not args.wccm:
            raise ConfigurationError("--thesaurus is used only with --wccm")
    if args.command == "eval":
        if bool(args.benchmark) == bool(args.choices):
            raise ConfigurationError("need exactly one of --benchmark or --choices")
    if args.command == "count":
        if args.relations is not None and not args.triples:
            raise ConfigurationError("--relations is used only with --triples")
        if args.relations == "":
            raise ConfigurationError("--relations names no relation")
        if args.cache_dir and args.triples:
            raise ConfigurationError("--cache-dir caches window counts, not --triples")
        if args.triples:
            _refuse_unread(args, "--triples", _WINDOW_DEFAULTS)
    if args.command == "ic-build":
        if bool(args.freqs) == bool(args.counts):
            raise ConfigurationError("need exactly one of --freqs or --counts")
    if args.command == "taxo-distance":
        needs_ic = _TAXO_MEASURES[args.taxo_measure][0]
        if needs_ic and not args.ic:
            raise ConfigurationError(f"--taxo-measure {args.taxo_measure} needs --ic")
        if args.ic and not needs_ic:
            raise ConfigurationError(f"--taxo-measure {args.taxo_measure} does not use --ic")
        if args.taxo_measure != "lc":
            _refuse_unread(args, f"--taxo-measure {args.taxo_measure}", {"log_base": 2.0})
        if args.taxo_measure != "hs":
            _refuse_unread(args, f"--taxo-measure {args.taxo_measure}", _HS_DEFAULTS)
        check_hs_constants(args.hs_c, args.hs_k, ("--hs-c", "--hs-k"))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings(), _recording():
        warnings.showwarning = _warning_printer(warnings.showwarning)
        try:
            _validate_combinations(args)
            return args.func(args)
        except _USAGE_ERRORS as exc:
            print(f"distsem: {exc}", file=sys.stderr)
            return 2
        except DistSemError as exc:
            print(f"distsem: {exc}", file=sys.stderr)
            return 1


def _warning_printer(show):
    """A ``warnings.showwarning`` that prints each package warning as one
    ``distsem: warning: <message>`` line and passes others on to ``show``."""

    def printer(message, category, *where):
        if issubclass(category, DistSemWarning):
            print(f"distsem: warning: {message}", file=sys.stderr)
        else:
            show(message, category, *where)

    return printer


if __name__ == "__main__":
    sys.exit(main())
