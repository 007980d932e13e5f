"""Corpus ingestion: tokenization, windowed co-occurrence counting, dependency triples.

Tokens are maximal runs of letters and digits; everything else is stripped.
Boundary markers (the module constant ``BOUNDARY``) are interleaved into token
streams between documents or sentences, and windows never cross them.

Counting is streaming: a batch of documents' tokens becomes one array of word
ids, the arrays are copied into bounded numpy chunks, and the pairs of each
chunk are aggregated as sorted (target id, feature id) key arrays, so memory
scales with the observed vocabulary and pair inventory rather than corpus
length.  A flat token stream is taken in bounded batches the same way.  Counts
over disjoint document shards can be merged additively with :func:`merge_counts`.
"""

from __future__ import annotations

import operator
import re
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, groupby, islice
from typing import Optional, Union

import numpy as np

from .errors import (
    ConfigurationError,
    CorpusDecodeError,
    MissingWordError,
    ParseError,
    UnknownRelationError,
    ValidationError,
)

#: Marker interleaved into token streams where a window must not reach across.
BOUNDARY = None

#: A profile/counts feature: a plain word or a (relation label, word) pair.
Feature = Union[str, tuple[str, str]]

_TOKEN_OR_STOP = re.compile(r"[^\W_]+|[.!?]", re.UNICODE)
_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)

#: Each byte of ASCII text as :func:`tokenize` reads it: a letter or digit
#: stays, any other byte becomes a space; and the same with ``A``-``Z`` folded.
_WORD_BYTES = bytes(c if chr(c).isalnum() and c < 128 else 32 for c in range(256))
_FOLDED_WORD_BYTES = _WORD_BYTES.lower()

_KEY_BITS = 32
_KEY_MASK = (1 << _KEY_BITS) - 1

#: Positions the token-id buffers hold before they first grow.
_FIRST_BUFFER = 1 << 12

#: Tokens taken from a flat token stream at a time.
_TOKEN_BATCH = 1 << 12

#: Lines a tagged-TSV writer joins into one piece.
_BLOCK_LINES = 1 << 12

#: Characters a data file reader takes from a file at a time.
_BLOCK_CHARS = 1 << 15

#: A line after the first of a piece of text that may be blank or a ``#`` line.
_LINE_MARK = re.compile(r"\n[#\s]")

#: The bytes such a line may start with: ``#``, ASCII whitespace and any non-ASCII byte.
_MARK_HEADS = np.array([c == "#" or c.isspace() or c > "\x7f" for c in map(chr, range(256))])


class Boundaries(str, Enum):
    DOCUMENT = "document"
    SENTENCE = "sentence"
    NONE = "none"


@dataclass(frozen=True)
class CorpusConfig:
    """Settings shared by tokenization and window counting."""

    window_radius: int = 5
    lowercase: bool = True
    respect_boundaries: Boundaries = Boundaries.DOCUMENT

    def __post_init__(self):
        if isinstance(self.respect_boundaries, str) and not isinstance(
            self.respect_boundaries, Boundaries
        ):
            object.__setattr__(
                self, "respect_boundaries", Boundaries(self.respect_boundaries)
            )
        if self.window_radius < 1:
            raise ConfigurationError("window_radius must be >= 1")


def tokenize(text: str, config: CorpusConfig = CorpusConfig()) -> list:
    """Split one document into tokens, inserting sentence boundaries if configured.

    Returns a list of strings with ``BOUNDARY`` markers between sentences when
    ``respect_boundaries`` is ``sentence``.  A single document never starts or
    ends with a marker.  Outside ``sentence`` mode an ASCII document is read
    in one pass over its bytes, through ``_WORD_BYTES``.  Other text is
    scanned with a regex, and each token lowercased on its own: lowercasing
    can give a letter a mark that is not a word character (``İ`` gives ``i``
    and U+0307), so such text is never lowercased before it is split.
    """
    if config.respect_boundaries is not Boundaries.SENTENCE:
        if text.isascii():
            table = _FOLDED_WORD_BYTES if config.lowercase else _WORD_BYTES
            return text.encode().translate(table).decode().split()
        tokens = _TOKEN.findall(text)
        return list(map(str.lower, tokens)) if config.lowercase else tokens
    tokens: list = []
    pending_break = False
    for piece in _TOKEN_OR_STOP.findall(text):
        if piece in (".", "!", "?"):
            pending_break = True
            continue
        if pending_break and tokens:
            tokens.append(BOUNDARY)
        pending_break = False
        tokens.append(piece.lower() if config.lowercase else piece)
    return tokens


def tokenize_documents(
    documents: Iterable[str], config: CorpusConfig = CorpusConfig()
) -> Iterator:
    """Tokenize a document sequence into one stream with boundaries between documents.

    Document breaks produce a marker in both ``document`` and ``sentence``
    modes; in ``none`` mode the stream has no markers at all.
    """
    keep_doc_breaks = config.respect_boundaries is not Boundaries.NONE
    emitted_any = False
    for doc in documents:
        doc_tokens = tokenize(doc, config)
        if not doc_tokens:
            continue
        if emitted_any and keep_doc_breaks:
            yield BOUNDARY
        yield from doc_tokens
        emitted_any = True


def read_documents(path, one_doc_per_line: bool = False) -> list[str]:
    """Read a UTF-8 corpus file as a list of documents.

    With ``one_doc_per_line`` each line is a document; otherwise the whole
    file is one document.  Invalid bytes raise :class:`CorpusDecodeError`
    carrying the byte offset.
    """
    if one_doc_per_line:
        return list(_document_lines(path))
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusDecodeError(str(path), exc.start) from None
    return [text] if text.strip() else []


def _document_lines(path) -> Iterator[str]:
    """The lines of a UTF-8 corpus file that hold more than whitespace, read one at a time.

    Lines end at ``\\n`` only.  Invalid bytes raise :class:`CorpusDecodeError`
    carrying their byte offset in the file.
    """
    with open(path, "rb") as handle:
        offset = 0
        for raw in handle:
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusDecodeError(str(path), offset + exc.start) from None
            offset += len(raw)
            if line.strip():
                yield line.removesuffix("\n")


def read_records(
    path,
    expect: Optional[str] = None,
    sep: str = "\t",
    on_note: Optional[Callable[[int, list[str]], None]] = None,
) -> Iterator[tuple[int, list[str]]]:
    """The records of a line-oriented data file, read in :func:`_file_pieces`; see :func:`line_records`."""
    return line_records(_file_pieces(path), str(path), expect, sep, on_note)


def line_records(
    lines: Iterable[str],
    source: str,
    expect: Optional[str] = None,
    sep: str = "\t",
    on_note: Optional[Callable[[int, list[str]], None]] = None,
) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields split on ``sep``) of each data line in ``lines``; see :func:`_runs`.

    ``lines`` are pieces of text, each one or more whole lines.  A ``#``
    line goes to ``on_note`` as (line number, fields split on ``sep``).
    With ``expect``, the field names joined by ``<TAB>`` or ``sep``, a line
    with another field count ends in :class:`ParseError` ("expected ..." and
    the field names) from ``source``.
    """
    width = None if expect is None else len(expect.replace("<TAB>", "\t").split(sep))
    for first, run, note in _runs(lines, source):
        if note and on_note is None:
            continue
        for number, line in enumerate(run.split("\n"), first):
            fields = line.split(sep)
            if note:
                on_note(number, fields)
            elif width is not None and len(fields) != width:
                raise ParseError(source, number, "expected " + expect)
            else:
                yield number, fields


def data_runs(path) -> Iterator[tuple[int, str]]:
    """(number of the first line, text) of each run of data lines of a record file; see :func:`_runs`."""
    return ((first, run) for first, run, notes in _runs(_file_pieces(path), str(path)) if not notes)


def _file_pieces(path) -> Iterator[str]:
    """The text of a data file in pieces of about ``_BLOCK_CHARS`` characters, each of whole lines.

    The file is opened once, in text mode.  A byte that is not UTF-8 stays in
    the text as a lone surrogate, and a piece ends before the line holding
    the first one, so :func:`_runs` refuses that line after every line before it.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        rest = ""
        while block := handle.read(_BLOCK_CHARS):
            text = rest + block
            cut = text.rfind("\n") + 1
            if not text.isascii() and (bad := re.search("[\udc80-\udcff]", text)):
                cut = text.rfind("\n", 0, bad.start()) + 1 or cut
            if cut:
                yield text[:cut]
            rest = text[cut:]
        if rest:
            yield rest


def _runs(pieces: Iterable[str], source: str) -> Iterator[tuple[int, str, bool]]:
    """(number of the first line, text, notes?) of each run of lines in ``pieces``.

    The line rules of every data file: each piece of text holds whole lines,
    split at ``\\n`` only and numbered from 1.  A line that holds a lone
    surrogate (a byte that is not UTF-8, see :func:`_file_pieces`) ends in
    :class:`ParseError` from ``source``.  Blank lines (of only whitespace)
    are skipped, and so is a ``#`` line whose first tab-separated field is
    ``#manifest``.  A run is the longest stretch of a piece's other lines
    that are all ``#`` lines (notes) or all data lines, joined by ``\\n``.
    A piece of data lines only (the first byte of each line shows it, or
    ``_LINE_MARK`` where a byte is not ASCII) or of notes only is one run as
    it stands.
    """
    first = 1
    for text in pieces:
        body = text.removesuffix("\n")
        try:
            count, unmarked = _line_heads(body)
        except UnicodeEncodeError as exc:
            raise ParseError(source, first + body.count("\n", 0, exc.start), "invalid UTF-8") from None
        if unmarked or (
            text and text[0] != "#" and not text[0].isspace() and not _LINE_MARK.search(text)
        ):
            yield first, body, False
        elif body[:1] == "#" and body.count("\n#") == body.count("\n") and "#manifest" not in body:
            yield first, body, True
        else:
            lines = body.split("\n")
            # per line: True for a note, False for a data line, None for one skipped
            kinds = [
                line[:1] == "#" and (line.partition("\t")[0] != "#manifest" or None)
                if line.strip() else None
                for line in lines
            ]
            start = 0
            for kind, group in groupby(kinds):
                end = start + len(list(group))
                if kind is not None:
                    yield first + start, "\n".join(lines[start:end]), kind
                start = end
        first += count


def _line_heads(body: str) -> tuple[int, bool]:
    """The number of lines of ``body``, and whether none starts with one of ``_MARK_HEADS``."""
    raw = np.frombuffer((body + "\n").encode("utf-8"), dtype=np.uint8)
    ends = np.flatnonzero(raw == 10)
    return ends.size, not _MARK_HEADS[raw[np.append(0, ends[:-1] + 1)]].any()


def inverse_relation(relation: str) -> str:
    """Label for the inverse direction of a dependency relation."""
    return relation + "^-1"


def render_feature(feature: Feature) -> str:
    if isinstance(feature, tuple):
        return f"{feature[0]}:{feature[1]}"
    return feature


def parse_feature(text: str) -> Feature:
    if ":" in text:
        relation, word = text.split(":", 1)
        return (relation, word)
    return text


class CooccurrenceCounts:
    """Sparse target-by-feature event counts with marginals.

    Rows are target words; columns are features (words for window counts,
    (relation, word) pairs for dependency triples).  Stored in compressed
    sparse row form over integer ids.  Targets are held sorted by name and
    features by rendered form, so rows, and the cells within each row, come
    in the order of a counts file.
    """

    def __init__(
        self,
        targets: list[str],
        features: list[Feature],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        unigram_counts: Optional[dict[str, int]] = None,
        total_tokens: int = 0,
        config: Optional[CorpusConfig] = None,
        feature_kind: str = "word",
    ):
        self.targets = targets
        self.features = features
        self._target_index = dict(zip(targets, range(len(targets))))
        self._feature_index = dict(zip(features, range(len(features))))
        self._indptr = indptr
        self._indices = indices
        self._data = data
        self.unigram_counts = dict(unigram_counts or {})
        self.total_tokens = total_tokens
        self.config = config
        self.feature_kind = feature_kind
        self._target_totals = _bincount_int(self.coo()[0], data, len(targets))
        self._feature_totals = _bincount_int(indices, data, len(features))
        self.total_pairs = int(data.sum()) if data.size else 0

    @classmethod
    def from_pairs(cls, pair_counts: dict, **meta) -> "CooccurrenceCounts":
        """Build counts from a {(target, feature): count} mapping.

        ``meta`` goes to the constructor.
        """
        targets, features = _FirstSeenIds(), _FirstSeenIds()
        rows = targets.ids([t for t, _ in pair_counts])
        cols = features.ids([f for _, f in pair_counts])
        data = np.fromiter(pair_counts.values(), dtype=np.int64, count=len(pair_counts))
        return cls.from_ids(list(targets), list(features), rows, cols, data, **meta)

    @classmethod
    def from_ids(
        cls, targets: list[str], features: list[Feature], rows, cols, data, **meta
    ) -> "CooccurrenceCounts":
        """Build counts from parallel (target id, feature id, count) arrays.

        Counts of a repeated cell add up.  Zero cells are not stored, and
        targets and features left without a cell are dropped.  The others are
        held in sorted order, whatever order they come in: targets by name,
        features by rendered form.  Sorted input does no sort work: names
        already in that order, and cells already in strictly increasing
        (target, feature) order, are taken as they come.  A negative count,
        or counts that add up to more than 2**53, end in
        :class:`ValidationError`; below that bound float64 holds every sum
        of counts exactly.  ``meta`` goes to the constructor.
        """
        data = np.asarray(data)
        negative = np.flatnonzero(data < 0)
        if negative.size:
            at = negative[0]
            raise ValidationError(
                f"negative count {data[at].item()} for cell "
                f"({targets[rows[at]]!r}, {features[cols[at]]!r})"
            )
        # added in two halves, whose int64 sums cannot wrap
        total = (int((data >> _KEY_BITS).sum()) << _KEY_BITS) + int((data & _KEY_MASK).sum())
        if total > 2**53:
            raise ValidationError(
                f"counts add up to {total}, more than 2**53, which float64 cannot add exactly"
            )
        target_ranks, targets = _sort_ranks(targets)
        feature_ranks, features = _sort_ranks(features, key=render_feature)
        keys, data = _sum_by_key((target_ranks[rows] << _KEY_BITS) | feature_ranks[cols], data)
        stored = data != 0
        keys, data = keys[stored], data[stored]
        row_ids, rows = _renumber(keys >> _KEY_BITS, len(targets))
        col_ids, cols = _renumber(keys & _KEY_MASK, len(features))
        return cls(
            [targets[i] for i in row_ids.tolist()],
            [features[i] for i in col_ids.tolist()],
            _indptr_from_sorted_rows(rows, row_ids.size),
            cols,
            data,
            **meta,
        )

    def has_target(self, word: str) -> bool:
        return word in self._target_index

    def pair_count(self, target: str, feature: Feature) -> int:
        row = self._target_index.get(target)
        col = self._feature_index.get(feature)
        if row is None or col is None:
            return 0
        lo, hi = self._indptr[row], self._indptr[row + 1]
        pos = np.searchsorted(self._indices[lo:hi], col)
        if pos < hi - lo and self._indices[lo + pos] == col:
            return int(self._data[lo + pos])
        return 0

    def target_total(self, target: str) -> int:
        row = self._target_index.get(target)
        if row is None:
            raise MissingWordError(f"no counts row for {target!r}")
        return int(self._target_totals[row])

    def feature_total(self, feature: Feature) -> int:
        col = self._feature_index.get(feature)
        return int(self._feature_totals[col]) if col is not None else 0

    @cached_property
    def feature_keys(self) -> np.ndarray:
        """The rendered features in id order, as a numpy string array."""
        return np.array([render_feature(f) for f in self.features], dtype=str)

    def row(self, target: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Feature ids, counts and feature totals of a target's stored cells."""
        row = self._target_index.get(target)
        if row is None:
            raise MissingWordError(f"no counts row for {target!r}")
        lo, hi = self._indptr[row], self._indptr[row + 1]
        cols = self._indices[lo:hi]
        return cols, self._data[lo:hi], self._feature_totals[cols]

    def cell_totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Target total and feature total of each stored cell, in row order."""
        rows, cols, _ = self.coo()
        return self._target_totals[rows], self._feature_totals[cols]

    def row_items(self, target: str) -> list[tuple[Feature, int]]:
        cols, data, _ = self.row(target)
        return [(self.features[c], n) for c, n in zip(cols.tolist(), data.tolist())]

    def items(self) -> Iterator[tuple[str, Feature, int]]:
        for row, target in enumerate(self.targets):
            lo, hi = int(self._indptr[row]), int(self._indptr[row + 1])
            for c, n in zip(self._indices[lo:hi], self._data[lo:hi]):
                yield target, self.features[int(c)], int(n)

    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Target ids, feature ids and counts of the stored cells, in row order."""
        rows = np.repeat(np.arange(len(self.targets), dtype=np.int64), np.diff(self._indptr))
        return rows, self._indices, self._data

    def unigram_count(self, word: str) -> int:
        return self.unigram_counts.get(word, 0)

    def nnz(self) -> int:
        return int(self._data.size)


def _bincount_int(ids: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    if ids.size == 0:
        return np.zeros(size, dtype=np.int64)
    return np.bincount(ids, weights=weights, minlength=size).astype(np.int64)


def _indptr_from_sorted_rows(rows: np.ndarray, n_rows: int) -> np.ndarray:
    return np.searchsorted(rows, np.arange(n_rows + 1), side="left").astype(np.int64)


def _sum_by_key(
    keys: np.ndarray, counts: np.ndarray, kind: Optional[str] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sort (key, count) pairs by key and add up the counts of equal keys.

    Keys already in order are not sorted, and strictly increasing ones are
    returned as they are.  ``kind`` is numpy's sort kind, its default sort
    if None.  Counts are integers, so the order in which equal keys' counts
    are added cannot change a sum.
    """
    if keys.size == 0:
        return keys, counts
    if (keys[1:] < keys[:-1]).any():
        order = np.argsort(keys, kind=kind)
        keys, counts = keys[order], counts[order]
    fresh = np.empty(keys.size, dtype=bool)
    fresh[0] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    if fresh.all():
        return keys, counts
    starts = np.flatnonzero(fresh)
    return keys[starts], np.add.reduceat(counts, starts)


def _renumber(ids: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``ids``, all in ``range(size)``, ascending; and each id's place among them."""
    used = np.zeros(size, dtype=bool)
    used[ids] = True
    if used.all():
        return np.arange(size), ids
    return np.flatnonzero(used), (np.cumsum(used) - 1)[ids]


@dataclass(frozen=True)
class _Documents:
    """A corpus that counting and the bootstrap pass tokenize a document at a time.

    ``files`` gives each file's documents.  It stands for the token stream of
    :func:`tokenize_documents` over each file, each followed by a marker.
    """

    files: Iterable[Iterable[str]]


def _token_pieces(tokens: Iterable, index: _FirstSeenIds, config: CorpusConfig) -> Iterator:
    """(word ids, segment numbers) pieces of a token stream or of :class:`_Documents`.

    ``index`` gives a new word the next id.  A token stream is taken in
    batches of ``_TOKEN_BATCH``, and a boundary marker starts a new segment.
    :class:`_Documents` are numbered a batch of :func:`_document_batches` at a
    time; a file, and a document except in ``none`` mode, starts a new segment.
    """
    segment = 0
    if not isinstance(tokens, _Documents):
        tokens = iter(tokens)
        while batch := list(islice(tokens, _TOKEN_BATCH)):
            ids, segs, segment = _ids_and_segments(batch, index, segment)
            yield ids, segs
        return
    step = int(config.respect_boundaries is not Boundaries.NONE)
    for documents in tokens.files:
        for batch, lengths in _document_batches(documents, config):
            if config.respect_boundaries is Boundaries.SENTENCE:  # markers within documents
                ids, segs, segment = _ids_and_segments(batch, index, segment)
            else:
                ids = index.ids(batch)
                segs = segment + step * np.repeat(np.arange(len(lengths)), lengths)
                segment += step * (len(lengths) - 1)
            yield ids, segs
            segment += step
        segment += 1


def _document_batches(documents: Iterable[str], config: CorpusConfig) -> Iterator[tuple]:
    """Batches of the tokens of ``documents``, each tokenized on its own, with each one's token count.

    A batch ends with the document that brings it to ``_TOKEN_BATCH`` tokens;
    in ``sentence`` mode a marker goes between the documents of a batch.
    """
    marks = config.respect_boundaries is Boundaries.SENTENCE
    batch, lengths = [], []
    for doc in documents:
        if doc_tokens := tokenize(doc, config):
            if marks and batch:
                batch.append(BOUNDARY)
            batch += doc_tokens
            lengths.append(len(doc_tokens))
            if len(batch) >= _TOKEN_BATCH:
                yield batch, lengths
                batch, lengths = [], []
    if batch:
        yield batch, lengths


def _ids_and_segments(tokens: list, index: _FirstSeenIds, segment: int) -> tuple:
    """Ids and segment numbers of ``tokens``, from ``segment`` on; and the last segment number."""
    if BOUNDARY not in tokens:
        ids = index.ids(tokens)
        return ids, np.broadcast_to(segment, ids.shape), segment  # a view, not a copy
    marks = np.array([i for i, t in enumerate(tokens) if t is BOUNDARY], dtype=np.int64)
    ids = index.ids([t for t in tokens if t is not BOUNDARY])
    # the words before each marker; a word's segment counts the markers it follows
    before = marks - np.arange(marks.size)
    segs = segment + np.searchsorted(before, np.arange(ids.size), side="right")
    return ids, segs, segment + marks.size


def _id_chunks(
    pieces: Iterable, carry: int, size: int
) -> Iterator[tuple[np.ndarray, np.ndarray, int, bool]]:
    """(word ids, segment numbers, carried positions, last?) of :func:`_token_pieces`, by chunk.

    A chunk holds up to ``size`` positions and begins with the last
    ``carry`` positions of the one before.  Pieces are copied in as array
    slices.  The arrays are views of buffers that the next chunk reuses.
    The buffers grow to their full size as tokens arrive, so a stream
    shorter than a chunk takes only the memory of its tokens, whatever
    ``carry`` is.
    """
    size = max(size, 2 * carry + 2)
    held = min(size, _FIRST_BUFFER)
    ids = np.empty(held, dtype=np.int64)
    segs = np.empty(held, dtype=np.int64)
    pos = kept = 0
    for piece, piece_segs in pieces:
        done = 0
        while done < piece.size:
            if pos == held and held < size:
                held = min(2 * held, size)
                ids, segs = np.resize(ids, held), np.resize(segs, held)
            elif pos == held:
                yield ids, segs, kept, False
                kept = carry
                ids[:kept] = ids[pos - kept : pos]
                segs[:kept] = segs[pos - kept : pos]
                pos = kept
            n = min(held - pos, piece.size - done)
            ids[pos : pos + n] = piece[done : done + n]
            segs[pos : pos + n] = piece_segs[done : done + n]
            pos += n
            done += n
    yield ids[:pos], segs[:pos], kept, True


def _window_pairs(rows, cols, segs: np.ndarray, start: int, radius: int) -> Iterator[tuple]:
    """(row, column) event arrays of the positions 1 to ``radius`` apart in one segment.

    A pair (i, j) whose later position is at or after ``start`` gives the
    events (rows[i], cols[j]) and (rows[j], cols[i]).
    """
    end = segs.size
    for offset in range(1, min(radius, end - 1) + 1):
        lo = max(start - offset, 0)
        if end - offset <= lo:
            continue
        left, right = slice(lo, end - offset), slice(lo + offset, end)
        same = segs[left] == segs[right]
        yield rows[left][same], cols[right][same]
        yield rows[right][same], cols[left][same]


_NO_EVENTS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _tally(tally: tuple[np.ndarray, np.ndarray], events: Iterable) -> tuple[np.ndarray, np.ndarray]:
    """Add (row, column) event arrays to a tally of sorted cell keys and their counts."""
    keys = [(rows << _KEY_BITS) | cols for rows, cols in events]
    if not keys:
        return tally
    uniq, counts = np.unique(np.concatenate(keys), return_counts=True)
    # two sorted runs, which mergesort merges in one pass
    return _sum_by_key(
        np.concatenate([tally[0], uniq]), np.concatenate([tally[1], counts]), kind="mergesort"
    )


def count_cooccurrences(
    tokens: Iterable,
    config: CorpusConfig = CorpusConfig(),
    chunk_size: int = 1 << 20,
) -> CooccurrenceCounts:
    """Count windowed co-occurrence events over a token stream.

    Every token occurrence pairs once with each neighbor within
    ``window_radius`` positions on either side, without crossing a boundary
    marker.  A neighbor identical to the target still counts, and a word
    appearing twice inside one window contributes two events.

    The stream is taken in bounded batches, each made one array of word ids,
    and counted in chunks of up to ``chunk_size`` positions.  The command
    line passes a corpus whose documents are tokenized one at a time
    straight into id arrays instead.
    """
    radius = config.window_radius
    index = _FirstSeenIds()
    tally = _NO_EVENTS
    unigrams = np.empty(0, dtype=np.int64)
    total_tokens = 0
    pieces = _token_pieces(tokens, index, config)
    for ids, segs, carried, _ in _id_chunks(pieces, radius, chunk_size):
        total_tokens += ids.size - carried
        grown = np.bincount(ids[carried:], minlength=len(index))
        grown[: unigrams.size] += unigrams
        unigrams = grown
        # pairs within the carried positions were counted with the chunk before
        tally = _tally(tally, _window_pairs(ids, ids, segs, carried, radius))

    words = list(index)
    keys, counts = tally
    return CooccurrenceCounts.from_ids(
        words,
        words,
        keys >> _KEY_BITS,
        keys & _KEY_MASK,
        counts,
        unigram_counts=dict(zip(words, unigrams.tolist())),
        total_tokens=total_tokens,
        config=config,
    )


def ingest_triples(
    lines: Iterable[str],
    allowed_relations: Optional[set[str]] = None,
    source: str = "<triples>",
) -> CooccurrenceCounts:
    """Build relation-tagged counts from ``head<TAB>relation<TAB>dependent`` records.

    Each record is indexed in both directions: the head gains a
    ``(relation, dependent)`` feature and the dependent gains an
    ``(inverse relation, head)`` feature, so either word's profile can be
    built from the same file.
    """
    pair_counts: Counter = Counter()
    unigram: Counter = Counter()
    for line_number, parts in line_records(lines, source, "head<TAB>relation<TAB>dependent"):
        head, relation, dependent = parts
        if not head or not relation or not dependent:
            raise ParseError(source, line_number, "empty field in triple")
        for field in (head, relation, dependent):
            if ":" in field:
                raise ParseError(source, line_number, f"field {field!r} contains ':'")
        if allowed_relations is not None and relation not in allowed_relations:
            raise UnknownRelationError(relation, source, line_number)
        pair_counts[(head, (relation, dependent))] += 1
        pair_counts[(dependent, (inverse_relation(relation), head))] += 1
        unigram[head] += 1
        unigram[dependent] += 1
    return CooccurrenceCounts.from_pairs(
        dict(pair_counts),
        unigram_counts=dict(unigram),
        total_tokens=sum(unigram.values()),
        config=None,
        feature_kind="relation",
    )


def merge_counts(parts: list[CooccurrenceCounts]) -> CooccurrenceCounts:
    """Additively merge shard counts produced with one configuration."""
    if not parts:
        raise ConfigurationError("nothing to merge")
    configs = [p.config for p in parts if p.config is not None]
    for cfg in configs[1:]:
        if cfg != configs[0]:
            raise ConfigurationError("cannot merge counts built with different configs")
    kinds = {p.feature_kind for p in parts}
    if len(kinds) != 1:
        raise ConfigurationError("cannot merge word-feature and relation-feature counts")

    targets, features = _FirstSeenIds(), _FirstSeenIds()
    rows, cols, data = [], [], []
    unigram: Counter = Counter()
    for part in parts:
        part_rows, part_cols, part_data = part.coo()
        rows.append(targets.ids(part.targets)[part_rows])
        cols.append(features.ids(part.features)[part_cols])
        data.append(part_data)
        unigram.update(part.unigram_counts)
    return CooccurrenceCounts.from_ids(
        list(targets),
        list(features),
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(data),
        unigram_counts=dict(unigram),
        total_tokens=sum(p.total_tokens for p in parts),
        config=configs[0] if configs else None,
        feature_kind=parts[0].feature_kind,
    )


def counts_equal(a: CooccurrenceCounts, b: CooccurrenceCounts) -> bool:
    """Content equality: the same cells over the same targets and rendered features."""
    return (
        a.targets == b.targets
        and np.array_equal(a.feature_keys, b.feature_keys)
        and a.total_tokens == b.total_tokens
        and a.unigram_counts == b.unigram_counts
        and np.array_equal(a._indptr, b._indptr)
        and np.array_equal(a._indices, b._indices)
        and np.array_equal(a._data, b._data)
    )


def config_fields(config: Optional[CorpusConfig]) -> dict:
    """Header fields recording the corpus settings that shape counting."""
    if config is None:
        return {}
    return {
        "window": config.window_radius,
        "boundaries": config.respect_boundaries.value,
        "lowercase": str(config.lowercase).lower(),
    }


def write_tagged_tsv(
    path, tag: str, fields: dict, body: Iterable[str], extra_header: list[str] = ()
) -> None:
    """Write ``extra_header`` lines, one ``#tag<TAB>key=value...`` line, then ``body``.

    Each piece of the body is one or more lines with their line ends.
    """
    with open(path, "w", encoding="utf-8") as out:
        for line in extra_header:
            out.write(line + "\n")
        out.write(f"#{tag}\t" + "\t".join(f"{k}={v}" for k, v in fields.items()) + "\n")
        out.writelines(body)


def _corpus_config(fields: Mapping[str, str]) -> Optional[CorpusConfig]:
    """The corpus settings that header ``fields`` record, or ``None``.

    A setting that is not one :func:`config_fields` could write ends in
    ``ValueError`` or :class:`ConfigurationError`.
    """
    if "window" not in fields:
        return None
    lowercase = fields.get("lowercase", "true")
    if lowercase not in ("true", "false"):
        raise ValueError(lowercase)
    return CorpusConfig(
        window_radius=int(fields["window"]),
        lowercase=lowercase == "true",
        respect_boundaries=Boundaries(fields.get("boundaries", "document")),
    )


def read_tagged_tsv(
    path,
    tag: str,
    columns: Mapping[str, Callable[[str], object]],
    converters: Mapping[str, Callable[[str], object]] = {},
    bad_value: str = "bad {} {!r}",
    on_note: Optional[Callable[[int, str], None]] = None,
) -> tuple[dict, Optional[CorpusConfig], Iterator[tuple[np.ndarray, list]]]:
    """Read a file written by :func:`write_tagged_tsv`.

    Returns the header's fields, the corpus settings they record (``None``
    if they record none) and the data lines after the header in blocks of
    (line numbers, one value list per entry of ``columns``).  Header fields
    named in ``converters`` are converted with the function given there, and
    a ``ValueError`` or :class:`ConfigurationError` from it ends in
    :class:`ParseError` at the header.
    Columns are converted with their type, a key of ``_DTYPES``: ``str``
    keeps the text, the others give a numpy array.

    A data line must have one tab-separated field per column; a value its
    column's type refuses ends in :class:`ParseError` with ``bad_value``,
    formatted with the column's name and the value.  The lines follow the
    rules of :func:`_runs`: a second ``#tag`` header is refused, and each run
    of other ``#`` lines goes to ``on_note`` as (number of its first line,
    its text).  The file is read once, in :func:`_file_pieces`, and each
    run checked at once (see :func:`_split_lines`); the error raised is the
    first bad line's.
    """
    runs = _runs(_file_pieces(path), str(path))
    header = re.compile(f"^#{re.escape(tag)}(?:\t|$)", re.MULTILINE)
    found = None
    for first, text, notes in runs:  # up to the header, or to the first data line
        if not notes or (found := header.search(text)):
            break
    if found is None:
        raise ValidationError(f"{path}: missing #{tag} header")
    header_line = first + text.count("\n", 0, found.start())
    line, _, rest = text[found.start() :].partition("\n")
    fields = dict(part.partition("=")[::2] for part in line.split("\t")[1:])
    for key, convert in converters.items():
        if key in fields:
            try:
                fields[key] = convert(fields[key])
            except (ValueError, ConfigurationError):
                raise ParseError(str(path), header_line, f"bad {key} {fields[key]!r}") from None
    try:
        config = _corpus_config(fields)
    except (ValueError, ConfigurationError):
        raise ParseError(str(path), header_line, "bad corpus settings") from None

    def blocks() -> Iterator[tuple[np.ndarray, list]]:
        # the notes after the header in its run, then the runs after that
        for first, text, notes in chain([(header_line + 1, rest, True)] if rest else [], runs):
            if not notes:
                yield _split_lines(path, text, first, columns, bad_value)
                continue
            again = header.search(text)
            cut = len(text) + 1 if again is None else again.start()  # the notes before it
            if cut and on_note is not None:
                on_note(first, text[: cut - 1])
            if again is not None:
                number = first + text.count("\n", 0, cut)
                raise ParseError(str(path), number, f"repeats the header of line {header_line}")

    return fields, config, blocks()


def _split_lines(
    path, text: str, first: int, columns: Mapping[str, Callable], bad_value: str, expect: str = ""
) -> tuple[np.ndarray, list]:
    """Line numbers and columns of the lines of ``text``, numbered from ``first``.

    The tabs and line ends are found in the UTF-8 bytes of ``text`` at once,
    and so are the values of an integer column whose fields are all 1 to 18
    ASCII digits.  If a line has the wrong field count, or a value is
    refused, the lines are checked again one at a time, as the column types
    read them, and the first bad one ends in :class:`ParseError` with
    ``expect`` ("expected" and the column names if empty) or ``bad_value``.
    """
    k = len(columns)
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    ends = np.append(np.flatnonzero((raw == 9) | (raw == 10)), raw.size)  # of each field
    breaks = raw[ends[:-1]] == 10
    # each line has k fields: a line end after every k-th field and nowhere else
    if ends.size % k == 0 and breaks[k - 1 :: k].all() and breaks.sum() == ends.size // k - 1:
        cells = text.replace("\n", "\t").split("\t")
        starts = np.append(0, ends[:-1] + 1)
        try:
            split = [
                _column(kind, cells[i::k], raw, starts[i::k], ends[i::k])
                for i, kind in enumerate(columns.values())
            ]
            return np.arange(first, first + ends.size // k), split
        except (ValueError, OverflowError):
            pass
    for number, line in enumerate(text.split("\n"), first):  # name the first bad line
        values = line.split("\t")
        if len(values) != k:
            raise ParseError(str(path), number, expect or "expected " + "<TAB>".join(columns))
        for name, kind, value in zip(columns, columns.values(), values):
            try:
                np.array(kind(value), dtype=_DTYPES[kind])
            except (ValueError, OverflowError):
                raise ParseError(str(path), number, bad_value.format(name, value)) from None
    raise AssertionError(f"{path}: no bad line among lines {first} on")


def _record_columns(text: str, shapes: Iterable[tuple[str, int]]) -> Optional[list[tuple]]:
    """Where the records of each shape lie in the lines of ``text``, and their fields as columns.

    A shape is a record's tag, its first field, and its field count.  Per
    shape, in order: the offsets of its lines among the lines of ``text``,
    and one list per field after the tag.  None if a line is of no shape.
    The tabs and line ends are found in the UTF-8 bytes of ``text`` at once,
    and so are the tags.
    """
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    ends = np.append(np.flatnonzero((raw == 9) | (raw == 10)), raw.size)  # of each field
    heads = np.append(0, np.flatnonzero(raw[ends[:-1]] == 10) + 1)  # each line's first field
    starts = np.append(0, ends[heads[1:] - 1] + 1)  # and its first byte
    widths = np.diff(np.append(heads, ends.size))
    cells = text.replace("\n", "\t").split("\t")
    found = []
    for tag, width in shapes:
        code = np.frombuffer(tag.encode("utf-8"), dtype=np.uint8)
        lines = np.flatnonzero((widths == width) & (ends[heads] - starts == code.size))
        lines = lines[(raw[starts[lines, None] + np.arange(code.size)] == code).all(axis=1)]
        at = heads[lines]
        if lines.size and lines[-1] - lines[0] == lines.size - 1:  # one stretch of lines
            fields = [cells[at[0] + i : at[-1] + width : width] for i in range(1, width)]
        else:
            fields = [list(map(cells.__getitem__, (at + i).tolist())) for i in range(1, width)]
        found.append((lines, fields))
    return found if sum(lines.size for lines, _ in found) == heads.size else None


def _column(kind: Callable, values: list[str], raw: np.ndarray, starts, ends):
    """``values``, the fields ``raw[starts:ends]``, converted with ``kind``."""
    if kind is str:
        return values
    widths = ends - starts
    if kind is not float and widths.min(initial=1) > 0 and widths.max(initial=1) <= 18:
        places = np.arange(widths.max(initial=1), 0, -1)[:, None]
        digits = raw[np.maximum(ends - places, 0)] - np.uint8(ord("0"))  # below "0" wraps above 9
        digits[places > widths] = 0  # bytes before a field read as leading zeros
        if (digits <= 9).all():
            return 10 ** (places[:, 0] - 1) @ digits
    return np.fromiter(map(kind, values), dtype=_DTYPES[kind], count=len(values))


def _sort_ranks(names: list, key: Optional[Callable] = None) -> tuple[np.ndarray, list]:
    """Each name's rank in sorted order (by ``key`` if given), and the names sorted.

    Names already strictly increasing keep their places, with no sort.
    """
    sort_keys = names if key is None else list(map(key, names))
    if all(map(operator.lt, sort_keys, islice(sort_keys, 1, None))):
        return np.arange(len(names), dtype=np.int64), names
    order = sorted(range(len(names)), key=sort_keys.__getitem__)
    ranks = np.empty(len(names), dtype=np.int64)
    ranks[order] = np.arange(len(names), dtype=np.int64)
    return ranks, [names[i] for i in order]


class _FirstSeenIds(dict):
    """Maps each key to an id; a new key gets the next one."""

    def __missing__(self, key: str) -> int:
        self[key] = n = len(self)
        return n

    def ids(self, keys: list[str]) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, keys), dtype=np.int64, count=len(keys))


def _collect_cells(blocks: Iterable[tuple[np.ndarray, list]], target: int, feature: int):
    """Cells of :func:`read_tagged_tsv` blocks whose third column holds the values.

    Returns (targets, features, target ids, feature ids, values, line
    numbers): targets and features sorted by their text, and ids into them.
    """
    targets, features = _FirstSeenIds(), _FirstSeenIds()
    parts: list[tuple] = [(np.empty(0, np.int64),) * 4]
    for numbers, columns in blocks:
        rows, cols = targets.ids(columns[target]), features.ids(columns[feature])
        parts.append((rows, cols, columns[2], numbers))
    rows, cols, values, lines = (np.concatenate(p) for p in zip(*parts))
    target_ranks, targets = _sort_ranks(list(targets))
    feature_ranks, features = _sort_ranks(list(features))
    return targets, features, target_ranks[rows], feature_ranks[cols], values, lines


def _build_counts(
    path, cells: tuple, parse: Optional[Callable[[str], Feature]] = None, **meta
) -> CooccurrenceCounts:
    """Counts from :func:`_collect_cells`.

    Values become int64 counts.  A cell given twice ends in
    :class:`ParseError` at its second line, and a :class:`ValidationError`
    of the constructor (counts past 2**53) names ``path``.  ``parse`` turns
    feature text into features; ``meta`` goes to the constructor.
    """
    targets, features, rows, cols, data, lines = cells
    keys = (rows << _KEY_BITS) | cols
    if not (keys[1:] > keys[:-1]).all():
        order = np.argsort(keys, kind="stable")
        repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
        if repeats.size:
            at = repeats.min()
            earlier = lines[np.flatnonzero(keys == keys[at])[0]]
            raise ParseError(str(path), int(lines[at]), f"repeats the cell of line {earlier}")
    if parse is not None:
        features = [parse(f) for f in features]
    data = data.astype(np.int64, copy=False)
    try:
        return CooccurrenceCounts.from_ids(targets, features, rows, cols, data, **meta)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _counts_fields(counts: CooccurrenceCounts) -> dict:
    return {
        "total_pairs": counts.total_pairs,
        "total_tokens": counts.total_tokens,
        "feature_kind": counts.feature_kind,
        **config_fields(counts.config),
    }


def save_counts(counts: CooccurrenceCounts, path, extra_header: list[str] = ()) -> None:
    """Write counts as a sorted TSV with a totals header and unigram lines."""
    unigrams = counts.unigram_counts
    body = chain(
        (f"#unigram\t{word}\t{unigrams[word]}\n" for word in sorted(unigrams)),
        _cell_lines(counts),
    )
    write_tagged_tsv(path, "counts", _counts_fields(counts), body, extra_header)


def _cell_lines(counts: CooccurrenceCounts) -> Iterator[str]:
    """``target<TAB>feature<TAB>count`` lines in row order, so sorted by target, then feature.

    Each piece holds up to ``_BLOCK_LINES`` lines.
    """
    rows, cols, data = counts.coo()
    targets = np.array([t + "\t" for t in counts.targets], dtype=object)
    features = np.array([render_feature(f) + "\t" for f in counts.features], dtype=object)
    for lo in range(0, data.size, _BLOCK_LINES):
        hi = min(lo + _BLOCK_LINES, data.size)
        pieces = [""] * (4 * (hi - lo))
        pieces[0::4] = targets[rows[lo:hi]].tolist()
        pieces[1::4] = features[cols[lo:hi]].tolist()
        pieces[2::4] = map(str, data[lo:hi].tolist())
        pieces[3::4] = ["\n"] * (hi - lo)
        yield "".join(pieces)


def _count(text: str) -> int:
    """A count's text as a non-negative integer; other text is a ``ValueError``."""
    n = int(text)
    if n < 0:
        raise ValueError(text)
    return n


def _integer(text: str) -> int:
    """A count's text as an integer of any size and sign."""
    return int(text)


def _feature_kind(text: str) -> str:
    if text not in ("word", "relation"):
        raise ValueError(text)
    return text


#: The numpy type of each column type's values; a unigram or word count may have any size.
_DTYPES = {str: object, int: np.int64, float: np.float64, _count: object, _integer: object}

_UNIGRAM_COLUMNS = {"#unigram": str, "word": str, "count": _count}


def load_counts(path) -> CooccurrenceCounts:
    """Read counts written by :func:`save_counts`.

    The cells must add up to the header's ``total_pairs``, so a file that was
    cut short is refused; a cell given twice is refused too, and so is a
    negative count or, with ``feature_kind=relation``, a feature that is not
    ``relation:word``, once every line has been read.
    """
    unigram: dict[str, int] = {}

    def note(first: int, text: str) -> None:
        if text.startswith("#unigram\t") and text.count("\n#unigram\t") == text.count("\n"):
            runs = [(first, text)]  # unigram lines only, read as columns
        else:
            lines = enumerate(text.split("\n"), first)
            runs = [(n, line) for n, line in lines if line.split("\t", 1)[0] == "#unigram"]
        for number, run in runs:
            _, (_, words, counts) = _split_lines(
                path, run, number, _UNIGRAM_COLUMNS, "bad {} {!r}", "malformed unigram line"
            )
            unigram.update(zip(words, counts.tolist()))

    fields, config, blocks = read_tagged_tsv(
        path,
        "counts",
        {"target": str, "feature": str, "count": int},
        {"total_tokens": _count, "feature_kind": _feature_kind},
        on_note=note,
    )
    cells = _collect_cells(blocks, target=0, feature=1)
    _, features, _, cols, data, lines = cells
    negative = np.flatnonzero(data < 0)
    if negative.size:
        at = negative[0]
        raise ParseError(str(path), int(lines[at]), f"negative count {data[at]}")
    feature_kind = fields.get("feature_kind", "word")
    if feature_kind == "relation":
        plain = np.array([":" not in f for f in features], dtype=bool)
        bad = np.flatnonzero(plain[cols])
        if bad.size:
            at = bad[0]
            feature = features[cols[at]]
            raise ParseError(str(path), int(lines[at]), f"feature {feature!r} is not relation:word")
    counts = _build_counts(
        path,
        cells,
        parse=parse_feature if feature_kind == "relation" else None,
        unigram_counts=unigram,
        total_tokens=fields.get("total_tokens", 0),
        config=config,
        feature_kind=feature_kind,
    )
    if "total_pairs" in fields and fields["total_pairs"] != str(counts.total_pairs):
        raise ValidationError(
            f"{path}: cells add up to {counts.total_pairs} pairs, "
            f"the header says total_pairs={fields['total_pairs']}"
        )
    return counts
