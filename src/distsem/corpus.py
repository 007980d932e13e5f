"""Corpus ingestion: tokenization, windowed co-occurrence counting, dependency triples.

Tokens are maximal runs of letters and digits; everything else is stripped.
Boundary markers (the module constant ``BOUNDARY``) are interleaved into token
streams between documents or sentences, and windows never cross them.

Counting is streaming: a batch of documents' tokens becomes one array of word
ids, the arrays are copied into bounded numpy chunks, and each window pair
of a chunk is tallied once, in bounded batches, as a sorted (smaller id,
larger id) key array that is mirrored into both cells at the end, so memory
scales with the observed vocabulary and pair inventory rather than corpus
length.  A flat token stream is taken in bounded batches the same way.  Counts
over disjoint document shards can be merged additively with :func:`merge_counts`.

Every input file is read once, in blocks, through :func:`_blocks`, which
hashes the bytes it hands on within :func:`_recording`, where each digest is
kept.
"""

from __future__ import annotations

import hashlib
import io
import operator
import os
import re
import stat
import tempfile
import zipfile
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, islice
from pathlib import Path
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

#: Pieces a tagged-TSV writer encodes, writes and hashes at a time.
_WRITE_PIECES = 16

#: Bytes :func:`_blocks` takes from a file at a time.
_BLOCK_BYTES = 1 << 15

#: The sha256 of each input file read to its end, by path, within :func:`_recording`; None outside.
_DIGESTS: ContextVar[Optional[dict]] = ContextVar("_DIGESTS", default=None)

#: The text of a count: ASCII digits, after a minus sign if negative.
_INTEGER_TEXT = re.compile(r"-?[0-9]+")


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


@contextmanager
def _recording() -> Iterator[dict]:
    """A record of the sha256 of each input file read to its end within it, by path (``str(path)``)."""
    token = _DIGESTS.set({})
    try:
        yield _DIGESTS.get()
    finally:
        _DIGESTS.reset(token)


def _blocks(path, digest=None) -> Iterator[bytes]:
    """The bytes of ``path`` in pieces of whole lines, of about ``_BLOCK_BYTES``: how every input is read.

    A piece ends at a ``\\n`` (the last one at the end of the file), so no
    character, and no ``\\r\\n``, is split between two pieces.  The bytes go
    into ``digest`` as they are read; with no ``digest``, into a new sha256
    only while a record of :func:`_recording` is open, so a read outside one
    hashes nothing.  At the end of the file the hex digest goes into that
    record, if any, under ``str(path)``.
    """
    record = _DIGESTS.get()
    digest = hashlib.sha256() if digest is None and record is not None else digest
    held = []
    with open(path, "rb") as handle:
        while block := handle.read(_BLOCK_BYTES):
            if digest is not None:
                digest.update(block)
            cut = block.rfind(b"\n") + 1
            held.append(block[:cut] if cut else block)
            if cut:
                yield b"".join(held)
                held = [block[cut:]]
    if record is not None:
        record[str(path)] = digest.hexdigest()
    if rest := b"".join(held):
        yield rest


def _digest_of(path) -> str:
    """The sha256 of the file ``path``, read to its end through :func:`_blocks`."""
    digest = hashlib.sha256()
    for _ in _blocks(path, digest):
        pass
    return digest.hexdigest()


def read_documents(path, one_doc_per_line: bool = False) -> list[str]:
    """Read a UTF-8 corpus file as a list of documents.

    With ``one_doc_per_line`` each line is a document; otherwise the whole
    file is one document.  Invalid bytes raise :class:`CorpusDecodeError`
    carrying the byte offset.
    """
    if one_doc_per_line:
        return list(_document_lines(path))
    text = "".join(_corpus_pieces(path))
    return [text] if text.strip() else []


def _document_lines(path) -> Iterator[str]:
    """The lines of a UTF-8 corpus file that hold more than whitespace, read a piece at a time.

    Lines end at ``\\n`` only.
    """
    for text in _corpus_pieces(path):
        yield from (line for line in text.split("\n") if line.strip())


def _corpus_pieces(path) -> Iterator[str]:
    """The pieces of a UTF-8 corpus file (:func:`_blocks`), decoded; invalid bytes raise
    :class:`CorpusDecodeError` carrying their byte offset in the file."""
    offset = 0
    for data in _blocks(path):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusDecodeError(str(path), offset + exc.start) from None
        offset += len(data)
        yield text


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
    """(line number, fields split on ``sep``) of each data line in ``lines``, read a line at a time.

    ``lines`` are pieces of text, each of whole lines, split at ``\\n`` only
    and numbered from 1; a byte that is not UTF-8 is refused (:func:`_utf8`).
    Blank lines (of only whitespace) and ``#manifest`` lines are skipped, and
    another ``#`` line goes to ``on_note`` as (line number, fields).  With
    ``expect``, the field names joined by ``<TAB>`` or ``sep``, a line with
    another field count ends in :class:`ParseError` ("expected ..." and the
    field names) from ``source``.
    """
    width = None if expect is None else len(expect.replace("<TAB>", "\t").split(sep))
    first = 1
    for text in lines:
        _utf8(text, source, first)
        rows = text.removesuffix("\n").split("\n")
        for number, line in enumerate(rows, first):
            if not line.strip():
                continue
            fields = line.split(sep)
            if line[0] == "#":
                if on_note is not None and line.partition("\t")[0] != "#manifest":
                    on_note(number, fields)
            elif width is not None and len(fields) != width:
                raise ParseError(source, number, "expected " + expect)
            else:
                yield number, fields
        first += len(rows)


def _file_pieces(path) -> Iterator[str]:
    """The text of a data file in pieces of whole lines (:func:`_blocks`).

    Bytes decode as a text-mode read decodes them: as UTF-8, with ``\\r\\n``
    and ``\\r`` made ``\\n``.  A byte that is not UTF-8 stays in the text as
    a lone surrogate, and a piece ends before the line holding the first one,
    so that line is refused (see :func:`_utf8`) after every line before it.
    """
    for data in _blocks(path):
        text = data.decode("utf-8", "surrogateescape").replace("\r\n", "\n").replace("\r", "\n")
        bad = None if text.isascii() else re.search("[\udc80-\udcff]", text)
        if bad and (cut := text.rfind("\n", 0, bad.start()) + 1):
            yield text[:cut]
            text = text[cut:]
        yield text


def _utf8(text: str, source, first: int) -> bytes:
    """``text``, lines from line ``first``, encoded to UTF-8.

    A line that holds a lone surrogate (a byte that is not UTF-8, see
    :func:`_file_pieces`) ends in :class:`ParseError` from ``source``.
    """
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ParseError(str(source), first + text.count("\n", 0, exc.start), "invalid UTF-8") from None


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
        self._target_totals = np.zeros(len(targets), dtype=np.int64)
        filled = np.flatnonzero(np.diff(indptr))  # rows with a cell; each sum is exact in int64
        if filled.size:
            self._target_totals[filled] = np.add.reduceat(data, indptr[filled])
        self._feature_totals = np.zeros(len(features), dtype=np.int64)
        np.add.at(self._feature_totals, indices, data)  # exact, with no per-cell temporary
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
        total = _exact_sum(data)
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
        indptr = _row_pointers(rows, row_ids.size)
        col_ids, cols = _renumber(keys & _KEY_MASK, len(features))
        del keys, rows  # the constructor's own arrays need the room
        return cls(
            [targets[i] for i in row_ids.tolist()],
            [features[i] for i in col_ids.tolist()],
            indptr,
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


def _exact_sum(data: np.ndarray) -> int:
    """The sum of non-negative int64 counts, added in two halves whose int64 sums cannot wrap."""
    return (int((data >> _KEY_BITS).sum()) << _KEY_BITS) + int((data & _KEY_MASK).sum())


def _row_pointers(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers of the cells of rows ``rows``, ids below ``n`` in any order."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return ptr


def _rows(ptr: np.ndarray, values: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows ``rows`` joined in that order, and each row's length."""
    starts = ptr[rows]
    lengths = ptr[rows + 1] - starts
    picks = (starts - lengths.cumsum() + lengths).repeat(lengths)
    picks += np.arange(picks.size)
    return values[picks], lengths


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


def _window_pairs(segs: np.ndarray, start: int, radius: int) -> Iterator[tuple]:
    """The positions 1 to ``radius`` apart in one segment, an offset at a time.

    Each offset gives (left, right, same): two slices whose positions lie
    that offset apart, and a mask of the aligned pairs within one segment.
    Only pairs whose later position is at or after ``start`` are given.
    """
    end = segs.size
    for offset in range(1, min(radius, end - 1) + 1):
        lo = max(start - offset, 0)
        if end - offset <= lo:
            continue
        left, right = slice(lo, end - offset), slice(lo + offset, end)
        yield left, right, segs[left] == segs[right]


#: Event keys held before they are folded into the tally, while the tally holds fewer cells.
_PENDING_EVENTS = 1 << 17


def _tally(events: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted cell keys and their counts, from arrays of event keys.

    Events wait until there are as many as ``_PENDING_EVENTS`` or as the
    tally has cells, whichever is more; then one sort folds them in.
    """
    tally = (np.empty(0, dtype=np.int64),) * 2
    pending, held = [], 0
    for batch in events:
        pending.append(batch)
        held += batch.size
        if held >= max(_PENDING_EVENTS, tally[0].size):
            tally = _fold(tally, pending)
            pending, held = [], 0
    return _fold(tally, pending)


def _fold(tally: tuple[np.ndarray, np.ndarray], pending: list) -> tuple[np.ndarray, np.ndarray]:
    """Add arrays of event keys to a tally of sorted cell keys and their counts."""
    if not pending:
        return tally
    uniq, counts = np.unique(np.concatenate(pending), return_counts=True)
    # two sorted runs, which mergesort merges in one pass
    return _sum_by_key(
        np.concatenate([tally[0], uniq]), np.concatenate([tally[1], counts]), kind="mergesort"
    )


def _mirror(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, column, count) arrays of both cells of each (smaller id, larger id) pair key.

    A word paired with itself has one cell, which gets both directions' count.
    """
    low, high = keys >> _KEY_BITS, keys & _KEY_MASK
    apart = low != high
    return (
        np.concatenate([low, high[apart]]),
        np.concatenate([high, low[apart]]),
        np.concatenate([np.where(apart, counts, 2 * counts), counts[apart]]),
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
    straight into id arrays instead.  Counts are symmetric, so each window
    pair is tallied once, under its (smaller id, larger id) key, and the
    tally is mirrored into both cells at the end.  Pending pair keys are
    folded into the tally once they are as many as its cells (or
    ``_PENDING_EVENTS``, if that is more), so memory follows the pair
    inventory, not the chunk size times the window.
    """
    radius = config.window_radius
    index = _FirstSeenIds()
    unigrams = np.empty(0, dtype=np.int64)
    total_tokens = 0

    def pair_keys() -> Iterator[np.ndarray]:
        nonlocal unigrams, total_tokens
        pieces = _token_pieces(tokens, index, config)
        for ids, segs, carried, _ in _id_chunks(pieces, radius, chunk_size):
            total_tokens += ids.size - carried
            grown = np.bincount(ids[carried:], minlength=len(index))
            grown[: unigrams.size] += unigrams
            unigrams = grown
            # pairs within the carried positions were counted with the chunk before
            for left, right, same in _window_pairs(segs, carried, radius):
                keys = np.minimum(ids[left], ids[right])
                keys <<= _KEY_BITS
                keys |= np.maximum(ids[left], ids[right])
                yield keys[same]

    rows, cols, counts = _mirror(*_tally(pair_keys()))
    words = list(index)
    return CooccurrenceCounts.from_ids(
        words,
        words,
        rows,
        cols,
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
        if dependent[0] == "#":  # its counts row would read back as a note
            raise ParseError(source, line_number, f"dependent {dependent!r} starts with '#'")
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
) -> str:
    """Write ``extra_header`` lines, one ``#tag<TAB>key=value...`` line, then ``body``.

    Each piece of the body is one or more lines with their line ends.
    Returns the sha256 of the bytes written, taken as they go out.  Pieces
    are encoded ``_WRITE_PIECES`` at a time, so a body of single lines costs
    no more to write and hash than a text write.
    """
    head = "".join(line + "\n" for line in extra_header)
    head += f"#{tag}\t" + "\t".join(f"{k}={v}" for k, v in fields.items()) + "\n"
    pieces = chain([head], body)
    digest = hashlib.sha256()
    with open(path, "wb") as out:
        while text := "".join(islice(pieces, _WRITE_PIECES)):
            data = text.encode("utf-8")
            out.write(data)
            digest.update(data)
    return digest.hexdigest()


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
    shapes: list[tuple],
    converters: Mapping[str, Callable[[str], object]] = {},
    bad_value: str = "bad {} {!r}",
) -> tuple[dict, Optional[CorpusConfig], Iterator[list[tuple]]]:
    """Read a file written by :func:`write_tagged_tsv`.

    Returns the header's fields, the corpus settings they record (``None``
    if they record none) and, for each piece of the file after the header,
    the records of ``shapes`` in it, as :func:`_split_records` splits them
    with ``bad_value``.  Header fields named in ``converters`` are converted
    with the function given there, and a ``ValueError`` or
    :class:`ConfigurationError` from it ends in :class:`ParseError` at the
    header.

    Only blank and ``#`` lines may come before the header: a data line there
    ends in :class:`ValidationError` (a missing header), and a line of a
    shape's tag in :class:`ParseError`.  A second ``#tag`` header is refused.
    The file is read once, in :func:`_file_pieces`; the error raised is the
    first bad line's.
    """
    header = re.compile(f"^#{re.escape(tag)}(?:\t.*)?$", re.MULTILINE)
    tags, missing = {shape[0] for shape in shapes}, f"{path}: missing #{tag} header"
    pieces, first = _file_pieces(path), 1
    for text in pieces:  # up to the header line, a line at a time
        found = header.search(text)
        head = text if found is None else text[: found.end()]
        for number, line in enumerate(head.split("\n"), first):
            _utf8(line, path, number)
            name = line.partition("\t")[0]
            if name in tags:
                raise ParseError(str(path), number, f"{name[1:]} line before the #{tag} header")
            if line.strip() and line[0] != "#":  # a data line
                raise ValidationError(missing)
        if found is not None:
            break
        first += text.count("\n")
    else:
        raise ValidationError(missing)
    header_line, rest = first + head.count("\n"), text[found.end() + 1 :]
    fields = dict(part.partition("=")[::2] for part in found.group().split("\t")[1:])
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

    def blocks() -> Iterator[list[tuple]]:
        first = header_line + 1
        for text in chain([rest], pieces):
            again = f"#{tag}" in text and header.search(text)
            body = text[: again.start()] if again else text  # the lines before a second header
            found, first = _split_records(path, first, body, shapes, bad_value)
            yield found
            if again:
                raise ParseError(str(path), first, f"repeats the header of line {header_line}")

    return fields, config, blocks()


def _split_records(
    path, first: int, text: str, shapes: list[tuple], bad_value="bad {} {!r}", check=None
) -> tuple[list[tuple], int]:
    """Line numbers and columns of each of ``shapes``' records in ``text``, and the next line's number.

    ``text`` holds whole lines from line ``first``, split at ``\\n`` only.  A
    shape is a record's tag (its first field; None, for a first untagged
    shape, and then the other tags start with ``#``), a (name, column type)
    pair per field after it, and what a line of that tag and another field
    count is refused as.  Blank lines and ``#`` lines of no shape's tag are
    skipped.  ``text`` is encoded once (:func:`_utf8`); its tabs, line ends,
    tags, each line's field count and integer columns of 1 to 18 ASCII
    digits a field are read from the bytes at once, the same way whatever
    the shapes.  If a line fits no shape or a type refuses a value, a walk a
    line at a time gives ``check`` (line number, fields) of each line that
    passes and refuses the first bad one with its shape's message (the first
    shape's if none), formatted with the line, or ``bad_value``, formatted
    with the column's name and the value.
    """
    data = _utf8(text, path, first)
    whole = data.endswith(b"\n")
    raw = np.frombuffer(data if whole else data + b"\n", dtype=np.uint8)  # every line ends in \n
    ends = np.flatnonzero((raw == 9) | (raw == 10))  # of each field
    starts, breaks = np.append(0, ends[:-1] + 1), raw[ends] == 10
    untagged = shapes[0][0] is None
    heads = np.append(0, np.flatnonzero(breaks[:-1]) + 1)  # each line's first field
    firsts, widths = starts[heads], np.diff(heads, append=ends.size)
    lead, kinds = raw[firsts], np.full(heads.size, -1)  # each line's shape, -1 for none
    for i, (tag, _, _) in enumerate(shapes[untagged:], untagged):  # lines whose first field is a tag
        code = np.frombuffer(tag.encode("utf-8"), dtype=np.uint8)
        lines = np.flatnonzero((lead == code[0]) & (ends[heads] - firsts == code.size))
        kinds[lines[(raw[firsts[lines, None] + np.arange(code.size)] == code).all(1)]] = i
    loose = (kinds < 0) & (lead != 35)  # lines of no tag that are not notes
    spaced = loose & ((lead <= 32) | (lead > 127))  # of them, those that may be blank
    if spaced.any():
        spaced &= ~np.logical_or.reduceat((raw > 32) & (raw < 127), firsts)
        for i in np.flatnonzero(spaced).tolist():
            loose[i] = bool(data[firsts[i] : ends[heads[i] + widths[i] - 1]].decode().strip())
    kinds[loose] = 0 if untagged else len(shapes)  # an untagged record, or a line of no shape
    chosen = [
        np.flatnonzero((kinds == i) & (widths == len(columns) + (tag is not None)))
        for i, (tag, columns, _) in enumerate(shapes)
    ]
    if sum(lines.size for lines in chosen) == (kinds >= 0).sum():  # every line fits its shape
        cells, found = text.replace("\n", "\t").split("\t"), []
        try:
            for (tag, columns, _), lines in zip(shapes, chosen):
                width, at = len(columns) + (tag is not None), heads[lines] + (tag is not None)
                stretch = lines.size and lines[-1] - lines[0] == lines.size - 1  # one stretch of lines
                picks = [slice(at[0] + j, at[-1] + j + 1, width) if stretch else at + j
                         for j in range(len(columns))]
                found.append((first + lines, [_column(kind, cells, p, raw, starts, ends)
                                              for (_, kind), p in zip(columns, picks)]))
            return found, first + heads.size - (not whole)
        except (ValueError, OverflowError):
            pass
    tagged = {shape[0]: shape for shape in shapes}
    for number, line in enumerate(text.split("\n"), first):  # name the first bad line
        fields = line.split("\t")
        shape = tagged.get(fields[0], tagged.get(None))
        if (shape is None or shape[0] is None) and (line[:1] == "#" or not line.strip()):
            continue  # a note or a blank line
        tag, columns, expect = shape or shapes[0]
        if shape is None or len(fields) != len(columns) + (tag is not None):
            raise ParseError(str(path), number, expect.format(line))
        for (name, kind), value in zip(columns, fields[len(fields) - len(columns) :]):
            try:
                np.array(kind(value), dtype=_DTYPES.get(kind, object))
            except (ValueError, OverflowError):
                raise ParseError(str(path), number, bad_value.format(name, value)) from None
        if check:
            check(number, fields)
    raise AssertionError(f"{path}: no bad line among lines {first} on")


def _column(kind: Callable, cells: list[str], pick, raw: np.ndarray, starts, ends):
    """The fields ``cells[pick]``, bytes ``starts[pick]`` to ``ends[pick]`` of ``raw``, as ``kind``."""
    values = cells[pick] if isinstance(pick, slice) else list(map(cells.__getitem__, pick.tolist()))
    if kind is str or kind is _name and (ends[pick] - starts[pick]).min(initial=1) > 0:
        return values  # text, and names none of which is empty
    starts, ends = starts[pick], ends[pick]
    widths = ends - starts
    if kind is not float and widths.size and widths.min() > 0 and widths.max() <= 18:
        places = np.arange(widths.max(initial=1), 0, -1)[:, None]
        digits = raw[np.maximum(ends - places, 0)] - np.uint8(ord("0"))  # below "0" wraps above 9
        digits[places > widths] = 0  # bytes before a field read as leading zeros
        if (digits <= 9).all():
            return 10 ** (places[:, 0] - 1) @ digits
    return np.fromiter(map(kind, values), dtype=_DTYPES.get(kind, object), count=len(values))


def _sort_ranks(names: list, key: Optional[Callable] = None) -> tuple[np.ndarray, list]:
    """Each name's rank in sorted order (by ``key`` if given), and the names sorted.

    Names already strictly increasing keep their places, with no sort.
    """
    sort_keys = names if key is None else list(map(key, names))
    if _increasing(sort_keys):
        return np.arange(len(names), dtype=np.int64), names
    order = sorted(range(len(names)), key=sort_keys.__getitem__)
    ranks = np.empty(len(names), dtype=np.int64)
    ranks[order] = np.arange(len(names), dtype=np.int64)
    return ranks, [names[i] for i in order]


def _increasing(keys: list) -> bool:
    return all(map(operator.lt, keys, islice(keys, 1, None)))


class _FirstSeenIds(dict):
    """Maps each key to an id; a new key gets the next one."""

    def __missing__(self, key: str) -> int:
        self[key] = n = len(self)
        return n

    def ids(self, keys: list[str]) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, keys), dtype=np.int64, count=len(keys))


def _collect_cells(blocks: Iterable[list[tuple]], target: int, feature: int) -> tuple[tuple, list]:
    """Cells of the first shape of :func:`read_tagged_tsv` blocks, whose third column holds the values.

    Returns (targets, features, target ids, feature ids, values, line
    numbers), names sorted and ids into them, and each other shape's (line
    numbers, columns) joined over the blocks.  Names become ids a block at a time.
    """
    targets, features = _FirstSeenIds(), _FirstSeenIds()
    parts, others = [(np.empty(0, np.int64),) * 4], []
    for (numbers, columns), *rest in blocks:
        rows, cols = targets.ids(columns[target]), features.ids(columns[feature])
        parts.append((rows, cols, columns[2], numbers))
        others.append(rest)
    rows, cols, values, lines = (np.concatenate(p) for p in zip(*parts))
    target_ranks, targets = _sort_ranks(list(targets))
    feature_ranks, features = _sort_ranks(list(features))
    records = [(np.concatenate(numbers), [np.concatenate(c) if isinstance(c[0], np.ndarray)
                                          else list(chain.from_iterable(c)) for c in zip(*columns)])
               for numbers, columns in (zip(*shape) for shape in zip(*others))]
    return (targets, features, target_ranks[rows], feature_ranks[cols], values, lines), records


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
    if not (keys[1:] > keys[:-1]).all() and not np.diff(np.sort(keys)).all():  # a key twice
        _refuse_repeat(path, lines.tolist(), keys.tolist(), "cell")
    if parse is not None:
        features = [parse(f) for f in features]
    data = data.astype(np.int64, copy=False)
    try:
        return CooccurrenceCounts.from_ids(targets, features, rows, cols, data, **meta)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _refuse_repeat(path, numbers: Iterable[int], keys: Iterable, what: str) -> None:
    """Raise :class:`ParseError` at the first line of ``numbers`` whose key comes a second time."""
    seen: dict = {}
    for number, key in zip(numbers, keys):
        if seen.setdefault(key, number) != number:
            raise ParseError(str(path), number, f"repeats the {what} of line {seen[key]}")


def _counts_fields(counts: CooccurrenceCounts) -> dict:
    return {
        "total_pairs": counts.total_pairs,
        "total_tokens": counts.total_tokens,
        "feature_kind": counts.feature_kind,
        **config_fields(counts.config),
    }


#: The format of a binary sidecar; a sidecar of another is ignored.
_SIDECAR_VERSION = 1

#: The text members of a counts sidecar; names are joined by ``\\n``.
_TEXTS = ("fields", "targets", "features", "unigram_words")


def save_counts(counts: CooccurrenceCounts, path, extra_header: list[str] = ()) -> None:
    """Write counts as a sorted TSV with a totals header and unigram lines, and its binary sidecar.

    A name the TSV would not read back as written is refused first
    (:class:`ValidationError`): an empty one, one holding a tab, ``\\n`` or
    ``\\r``, a target starting with ``#``, with ``feature_kind=relation`` a
    feature that is not ``relation:word``, and two features that render
    alike.  The sidecar (:func:`_write_sidecar`) holds the header fields, the
    names, the unigram table and the CSR arrays (each in its narrowest
    integer type), which :func:`load_counts` reads in place of the TSV.
    Counts not as :meth:`CooccurrenceCounts.from_ids` leaves them (every
    loader and counter does) get none, as the TSV would not read back as
    they are, and nor do counts with a unigram count past int64, which only
    the TSV holds; a sidecar already beside ``path`` is then removed.
    """
    rendered = list(map(render_feature, counts.features))
    words = sorted(counts.unigram_counts)
    names = [
        _joined_names(path, "target", counts.targets, starts_line=True),
        _joined_names(path, "feature", rendered,
                      refuse=(lambda name: ":" not in name) if counts.feature_kind == "relation" else None),
        _joined_names(path, "unigram word", words),
    ]
    if len(set(rendered)) < len(rendered):  # relation features such as ('a:b', 'c') and ('a', 'b:c')
        twice = next(name for name, n in Counter(rendered).items() if n > 1)
        raise ValidationError(f"{path}: the feature {twice!r} would not read back as written "
                              "(two features render as it)")
    fields = _counts_fields(counts)
    unigrams = (f"#unigram\t{w}\t{counts.unigram_counts[w]}\n" for w in words)
    cells = _cell_lines(counts.targets, rendered, *counts.coo(), "\n")
    digest = write_tagged_tsv(path, "counts", fields, chain(unigrams, cells), extra_header)
    arrays = {"indptr": counts._indptr, "indices": counts._indices, "data": counts._data}
    try:
        unigram_counts = np.array([counts.unigram_counts[w] for w in words], dtype=np.int64)
    except OverflowError:  # a count past int64, which only the TSV holds
        unigram_counts = None
    members = None
    if unigram_counts is not None and _csr_problem(counts.targets, rendered, **arrays) is None:
        arrays = {key: a.astype(np.min_scalar_type(a.max(initial=0))) for key, a in arrays.items()}
        texts = ["\t".join(f"{k}={v}" for k, v in fields.items()), *names]
        members = {"unigrams": unigram_counts, **arrays, **dict(zip(_TEXTS, texts))}
    _write_sidecar(path, digest, members)


def _joined_names(
    path, what: str, names: list[str], starts_line: bool = False, refuse: Optional[Callable] = None
) -> str:
    """``names`` joined by ``\\n``.

    A name that is empty, holds ``\\t\\n\\r``, starts with ``#`` where it
    ``starts_line`` (the line would read as a note) or meets ``refuse`` is a
    :class:`ValidationError`.
    """
    text = "\n".join(names)
    if names and ("\t" in text or "\r" in text or "\n\n" in f"\n{text}\n" or text.count("\n") >= len(names)
                  or starts_line and "\n#" in f"\n{text}" or refuse and any(map(refuse, names))):
        name = next(n for n in names if not n or {"\t", "\n", "\r"} & set(n) or starts_line and n[0] == "#"
                    or refuse and refuse(n))
        raise ValidationError(f"{path}: the {what} {name!r} would not read back as written")
    return text


def _sidecar(path) -> Optional[Path]:
    """The sidecar of ``path``; None if ``path`` is not a regular file (a symlink is not)."""
    try:
        regular = stat.S_ISREG(os.lstat(path).st_mode)
    except OSError:
        return None
    return Path(f"{path}.npz") if regular else None


def _write_sidecar(path, digest: str, members: Optional[dict]) -> None:
    """Write ``<path>.npz`` beside the file ``path`` just written, if that is a regular file.

    The sidecar is an uncompressed numpy zip of the format version, the
    sha256 ``digest`` of the bytes written to ``path`` and ``members``:
    arrays, and text held as its UTF-8 bytes.  It is written through a
    temporary file and takes the permissions of ``path``.  With ``members``
    None a sidecar already there is removed, as it records bytes no longer
    at ``path`` and each load would hash the file for it before parsing it.
    """
    sidecar = _sidecar(path)
    if sidecar is not None and members is None:
        sidecar.unlink(missing_ok=True)
    elif sidecar is not None:
        arrays = {key: np.frombuffer(value.encode("utf-8"), np.uint8) if isinstance(value, str) else value
                  for key, value in {"sha256": digest, **members}.items()}
        _write_atomically(sidecar, lambda out: np.savez(out, version=_SIDECAR_VERSION, **arrays), like=path)


def _write_atomically(path: Path, write: Callable, like) -> None:
    """Call ``write`` with a binary file that becomes ``path``; a write cut short leaves none.

    The file takes the permissions of the file ``like``, so whoever reads
    one reads both.
    """
    fd, temp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        os.fchmod(fd, stat.S_IMODE(os.stat(like).st_mode))
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(temp, path)
    finally:
        Path(temp).unlink(missing_ok=True)


def _load_verified(path, what: str, build: Callable, parse: Callable):
    """What the file ``path`` holds, from its sidecar where that is valid, else ``parse(path)``.

    A regular file's sidecar is read if it is of this format version and
    records the sha256 of the file's bytes; one of another version or digest
    (a stale one), or that cannot be opened, is ignored.  ``build`` reads its
    members (:func:`_read_sidecar`) and returns what they hold, or a string
    naming why that is not what ``parse`` would give.  A sidecar cut short,
    with a flipped bit (each member read has its CRC-32 checked) or that
    ``build`` refuses or fails on ends in :class:`ValidationError` naming it.
    Only a file whose sidecar exists is hashed before it is parsed, so a file
    is read once unless its sidecar is ignored.
    """
    sidecar = _sidecar(path)
    if sidecar is not None and sidecar.exists():
        loaded = _read_sidecar(sidecar, _digest_of(path), what, build)
        if loaded is not None:
            return loaded
    return parse(path)


def _read_sidecar(sidecar: Path, digest: str, what: str, build: Callable):
    """``build(member)``, ``member(name)`` reading one member whole (so its CRC-32 is checked), of a
    sidecar recording ``digest``; None if there is none this user can open, or it is stale."""
    try:
        handle = open(sidecar, "rb")
    except OSError:
        return None
    try:
        with handle, zipfile.ZipFile(handle) as held:

            def member(name: str) -> np.ndarray:
                return np.lib.format.read_array(io.BytesIO(held.read(name + ".npy")), allow_pickle=False)

            if member("version").tolist() != _SIDECAR_VERSION:
                return None
            if bytes(member("sha256")) != digest.encode():
                return None  # stale: the file was written again or edited since
            loaded = build(member)
    except Exception as exc:  # a fault of any kind in the zip, its arrays or its text: never read it
        loaded = f"{type(exc).__name__}: {exc}"
    if isinstance(loaded, str):
        raise ValidationError(f"{sidecar}: damaged {what} sidecar ({loaded})")
    return loaded


def _csr_problem(targets: list, features: list, indptr, indices, data) -> Optional[str]:
    """What keeps CSR arrays and names from being as :meth:`CooccurrenceCounts.from_ids` leaves them.

    ``features`` are rendered.  None if nothing does; each check is O(cells + names).
    """
    if any(a.dtype != np.int64 or a.ndim != 1 for a in (indptr, indices, data)):
        return "arrays that are not int64 vectors"
    if (indptr.size != len(targets) + 1 or indptr[0] != 0 or indptr[-1] != data.size
            or indices.size != data.size or (np.diff(indptr) <= 0).any()):
        return "indptr does not run from 0 to the number of cells, or a row has no cell"
    if data.size and (indices.min() < 0 or indices.max() >= len(features)):
        return "a feature index out of range"
    steps = np.diff(indices)
    steps[indptr[1:-1] - 1] = 1  # from a row's last cell to the next row's first
    if (steps <= 0).any() or not np.bincount(indices, minlength=len(features)).all():
        return "cells not strictly increasing within a row, or a feature without cells"
    if (data <= 0).any() or _exact_sum(data) > 2**53:
        return "a count that is not positive, or counts past 2**53"
    if not (_increasing(targets) and _increasing(features)):
        return "names not strictly sorted"
    return None


def _cell_lines(firsts: list[str], seconds: list[str], rows, cols, data, end: str) -> Iterator[str]:
    """``first<TAB>second<TAB>count`` lines, one a cell, in the order the cells are given.

    ``rows`` index the names ``firsts`` and ``cols`` the names ``seconds``;
    each line ends in ``end``.  Each piece holds up to ``_BLOCK_LINES`` lines.
    """
    firsts = np.array([name + "\t" for name in firsts], dtype=object)
    seconds = np.array([name + "\t" for name in seconds], dtype=object)
    for lo in range(0, data.size, _BLOCK_LINES):
        hi = min(lo + _BLOCK_LINES, data.size)
        pieces = [""] * (4 * (hi - lo))
        pieces[0::4] = firsts[rows[lo:hi]].tolist()
        pieces[1::4] = seconds[cols[lo:hi]].tolist()
        pieces[2::4] = map(str, data[lo:hi].tolist())
        pieces[3::4] = [end] * (hi - lo)
        yield "".join(pieces)


def _count(text: str) -> int:
    """A count's text as a non-negative integer; other text is a ``ValueError``."""
    n = _integer(text)
    if n < 0:
        raise ValueError(text)
    return n


def _integer(text: str) -> int:
    """A count's text, ASCII ``-?[0-9]+``, as an integer of any size; other text is a ``ValueError``."""
    if _INTEGER_TEXT.fullmatch(text) is None:
        raise ValueError(text)
    return int(text)


def _cell_count(text: str) -> int:
    """A cell's count, read as :func:`_integer` reads it, into an int64 column."""
    return _integer(text)


def _name(text: str) -> str:
    """A name's text; an empty one is a ``ValueError``."""
    if not text:
        raise ValueError(text)
    return text


def _feature_kind(text: str) -> str:
    if text not in ("word", "relation"):
        raise ValueError(text)
    return text


#: The numpy type of a column type's values; others, unigram and word counts too, are objects.
_DTYPES = {_cell_count: np.int64, float: np.float64}

#: The lines of a counts file after its header: cells and unigram lines.
_COUNTS = [
    (None, (("target", str), ("feature", str), ("count", _cell_count)),
     "expected target<TAB>feature<TAB>count"),
    ("#unigram", (("word", str), ("count", _count)), "malformed unigram line"),
]


def load_counts(path) -> CooccurrenceCounts:
    """Read counts written by :func:`save_counts`, from its sidecar where that is valid.

    The sidecar is read as :func:`_load_verified` says, and refused if it does
    not hold counts as :func:`save_counts` writes them (see :func:`_csr_problem`);
    otherwise the TSV is parsed (:func:`_parse_counts`).
    """
    return _load_verified(path, "counts", _counts_from_sidecar, _parse_counts)


def _counts_from_sidecar(member: Callable) -> Union[CooccurrenceCounts, str]:
    """The counts a sidecar's members (``member(name)``) hold, or what keeps them from being counts."""
    indptr, indices, data = (  # each stored in its narrowest integer type
        a.astype(np.int64, copy=False) if a.dtype.kind in "iu" else a
        for a in map(member, ("indptr", "indices", "data"))
    )
    fields, *names = (bytes(member(key)).decode("utf-8") for key in _TEXTS)
    targets, features, words = (text.split("\n") if text else [] for text in names)
    fields = dict(part.partition("=")[::2] for part in fields.split("\t"))
    meta = {"total_tokens": _count(fields["total_tokens"]), "config": _corpus_config(fields),
            "feature_kind": _feature_kind(fields["feature_kind"])}
    unigrams = member("unigrams")
    problem = _csr_problem(targets, features, indptr, indices, data)
    if problem is None and (unigrams.dtype != np.int64 or unigrams.shape != (len(words),)
                            or (unigrams < 0).any() or not _increasing(words)):
        problem = "a unigram table that does not match its words"
    if problem is None and (fields.get("total_pairs") != str(data.sum())  # exact: _csr_problem bounds it
                            or meta["feature_kind"] == "relation" and not all(":" in f for f in features)):
        problem = "cells that do not add up to total_pairs, or a relation feature that is not relation:word"
    if problem is not None:
        return problem
    if meta["feature_kind"] == "relation":
        features = list(map(parse_feature, features))
    unigram_counts = dict(zip(words, unigrams.tolist()))
    return CooccurrenceCounts(targets, features, indptr, indices, data, unigram_counts, **meta)


def _parse_counts(path) -> CooccurrenceCounts:
    """Parse a counts TSV written by :func:`save_counts`.

    A ``#unigram`` line before the header is refused at its line.  After the
    first bad line, cell or ``#unigram`` line, a unigram word given twice, a
    negative count, with ``feature_kind=relation`` a feature that is not
    ``relation:word``, and a cell given twice are refused in that order,
    each at its (second) line, once every line has been read.  The cells must
    add up to the header's ``total_pairs``, so a file cut short is refused.
    """
    fields, config, blocks = read_tagged_tsv(
        path, "counts", _COUNTS, {"total_tokens": _count, "feature_kind": _feature_kind}
    )
    cells, [(unigram_lines, (unigram_words, unigram_counts))] = _collect_cells(blocks, target=0, feature=1)
    unigram = dict(zip(unigram_words, unigram_counts.tolist()))
    if len(unigram) < len(unigram_words):
        _refuse_repeat(path, unigram_lines.tolist(), unigram_words, "unigram")
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
