"""Data-transparency k-gram index with overlap statistics and search.

Words are whitespace tokens, case-sensitive, punctuation retained, so
numbers computed here are only comparable to other tools under the same
convention.  After building, the index is immutable and safe for
concurrent queries.

An index file holds the indexed documents themselves, so a reader can check
what was in the training data.  It is JSON-lines: the header
``{"format": "ctrlkit-ngram-2", "k": k, "documents": n}``, then one line
``[id, category, provenance, url, text]`` per document in id order.  The
k-gram table is not stored: building and loading both derive it from the
texts in ``NGramIndex``'s constructor, as sorted arrays.

A word's id is its rank among the indexed words in ``str`` order.  Each
k-gram is packed as k big-endian ``uint32`` ids into one key of 4k bytes,
so keys compare in the order of the word tuples.  One stable sort of every
k-gram occurrence, laid out in document-id order, gives the distinct keys,
each one's tf (its run length) and its postings (the run's documents, the
lowest first).  ``tf`` and ``overlap`` find keys by binary search, and
``search`` tests the (distinct, k) id array for the query's ids at every
offset, so no query builds a Python tuple per indexed k-gram.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .corpus import Document
from .fileio import atomic_open, parsing, read_lines

DEFAULT_K = 13


class NGramIndexError(ValueError):
    pass


def kgrams(words: list[str], k: int) -> list[tuple[str, ...]]:
    """The contiguous k-word runs of ``words`` in order; empty when there
    are fewer than k words."""
    return [tuple(words[i:i + k]) for i in range(len(words) - k + 1)]


@dataclass(frozen=True)
class DocMeta:
    category: str
    provenance: str
    url: str | None


@dataclass(frozen=True)
class SearchHit:
    ngram: tuple[str, ...]
    tf: int
    category: str
    provenance: str
    url: str | None


@dataclass(frozen=True)
class OverlapResult:
    k: int
    threshold: int
    overlap_pct: float          # share of k-grams present with tf >= threshold
    short_text_pct: float       # share of texts shorter than k tokens
    n_grams: int                # k-gram occurrences counted in the denominator
    n_texts: int


class NGramIndex:
    """The word k-grams of ``(id, meta, text)`` documents with distinct ids,
    as sorted arrays (see the module docstring)."""

    def __init__(self, k: int, docs: Iterable[tuple[int, DocMeta, str]]):
        if type(k) is not int or k < 1:
            raise NGramIndexError(f"k must be a positive integer, got {k!r}")
        self.k = k
        self.doc_meta: dict[int, DocMeta] = {}
        self.texts: dict[int, str] = {}
        for doc_id, meta, text in docs:
            if doc_id in self.texts:
                raise NGramIndexError(f"document id {doc_id} is listed twice")
            self.doc_meta[doc_id] = meta
            self.texts[doc_id] = text
        self._doc_ids = sorted(self.texts)
        words = [self.texts[doc_id].split() for doc_id in self._doc_ids]
        self._words = sorted(set(chain.from_iterable(words)))
        self._word_id = {w: i for i, w in enumerate(self._words)}
        keys, doc = _kgram_keys(words, self._word_id.__getitem__, k)
        # Stable, so each run of equal keys lists its documents in id order.
        order = np.argsort(keys, kind="stable")
        keys, doc = keys[order], doc[order]
        new_key = np.ones(len(keys), bool)
        new_key[1:] = keys[1:] != keys[:-1]
        new_posting = new_key.copy()
        new_posting[1:] |= doc[1:] != doc[:-1]
        starts = np.flatnonzero(new_key)
        self._keys = keys[starts]
        self._tf = np.diff(starts, append=len(keys))
        # Postings in CSR form: the k-gram at row r is in the documents
        # _doc_ids[p] for p in _postings[_bounds[r]:_bounds[r + 1]].
        self._postings = doc[new_posting]
        self._bounds = np.append(np.cumsum(new_posting)[starts] - 1, len(self._postings))

    def __len__(self) -> int:
        return len(self._keys)

    def tf(self, ngram: tuple[str, ...]) -> int:
        ids = [self._word_id.get(w) for w in ngram]
        if len(ids) != self.k or None in ids:
            return 0
        return int(self._tfs(_pack(np.array([ids], ">u4")))[0])

    def _tfs(self, keys: np.ndarray) -> np.ndarray:
        """The tf of each packed key (0 for a key not indexed)."""
        if not len(self._keys):
            return np.zeros(len(keys), np.int64)
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return np.where(self._keys[pos] == keys, self._tf[pos], 0)

    def _grams(self) -> np.ndarray:
        """The distinct k-grams as (len(self), k) word ids, in key order."""
        return self._keys.view(">u4").reshape(-1, self.k)

    @cached_property
    def entries(self) -> dict[tuple[str, ...], tuple[int, tuple[int, ...]]]:
        """Each k-gram's tf and the sorted ids of the documents holding it.

        Built from the arrays on first read.  No verb reads it: it stays
        because perfbench's search oracle and its traced k-gram counter do.
        """
        words = np.array(self._words, dtype=object)
        # Column by column, so no Python int is made per word of a k-gram.
        grams = zip(*(words[col].tolist() for col in self._grams().T))
        docs = [self._doc_ids[p] for p in self._postings.tolist()]
        bounds = self._bounds.tolist()
        return {
            gram: (tf, tuple(docs[a:b]))
            for gram, tf, a, b in zip(grams, self._tf.tolist(), bounds, bounds[1:])
        }


def _pack(grams: np.ndarray) -> np.ndarray:
    """(n, k) word ids as n big-endian keys of 4k bytes, which compare as
    the id tuples do.  A key may end in NUL bytes, which ``bytes`` scalars
    drop: keep keys in arrays of their width."""
    return np.ascontiguousarray(grams, ">u4").view(f"S{4 * grams.shape[1]}").ravel()


def _kgram_keys(
    texts: list[list[str]], word_id: Callable[[str], int], k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The packed key of every k-gram of the word lists ``texts``, in order,
    and the index in ``texts`` of the list each comes from."""
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    flat = np.fromiter(map(word_id, chain.from_iterable(texts)), np.int64,
                       int(lengths.sum())).astype(">u4")
    text = np.repeat(np.arange(len(texts)), lengths)
    starts = np.flatnonzero(np.arange(len(flat)) + k <= np.cumsum(lengths)[text])
    return _pack(flat[starts[:, None] + np.arange(k)]), text[starts]


def build_index(docs: list[Document], k: int = DEFAULT_K) -> NGramIndex:
    """Index word k-grams of every document; deterministic over input order."""
    return NGramIndex(k, (
        (doc.id, DocMeta(doc.category.name, doc.provenance, doc.source_url), doc.text)
        for doc in docs
    ))


def overlap(
    eval_texts: list[str],
    idx: NGramIndex,
    threshold: int = 1,
    unique: bool = False,
) -> OverlapResult:
    """Share of the evaluation k-grams found in the index with tf >= threshold.

    Texts shorter than k tokens are excluded from the ratio and reported via
    ``short_text_pct``.  By default k-grams are counted as occurrences
    (multiset); ``unique=True`` counts distinct k-gram types instead.
    """
    return overlaps(eval_texts, idx, [threshold], unique)[0]


def overlaps(
    eval_texts: list[str],
    idx: NGramIndex,
    thresholds: list[int],
    unique: bool = False,
) -> list[OverlapResult]:
    """``overlap`` at each of ``thresholds``, in order: the texts are split,
    keyed and looked up in the index once, and each threshold counts the
    hits of the one tf array."""
    for threshold in thresholds:
        if threshold < 1:
            raise NGramIndexError(f"threshold must be >= 1, got {threshold}")
    k = idx.k
    texts = [text.split() for text in eval_texts]
    long_texts = [words for words in texts if len(words) >= k]
    n_short = len(texts) - len(long_texts)
    # A word the index lacks gets an id of its own past the vocabulary, so
    # it matches nothing and distinct k-grams keep distinct keys.
    unknown: dict[str, int] = {}

    def word_id(word: str) -> int:
        i = idx._word_id.get(word)
        return unknown.setdefault(word, len(idx._words) + len(unknown)) if i is None else i

    keys, _ = _kgram_keys(long_texts, word_id, k)
    if unique:
        keys = np.unique(keys)
    tfs = idx._tfs(keys)
    short_pct = 100.0 * n_short / len(eval_texts) if eval_texts else 0.0
    results = []
    for threshold in thresholds:
        hits = int(np.count_nonzero(tfs >= threshold))
        results.append(OverlapResult(
            k=k,
            threshold=threshold,
            overlap_pct=100.0 * hits / len(keys) if len(keys) else 0.0,
            short_text_pct=short_pct,
            n_grams=len(keys),
            n_texts=len(eval_texts),
        ))
    return results


def search(idx: NGramIndex, query: str) -> list[SearchHit]:
    """Indexed k-grams containing the query words as a contiguous run.

    Each hit carries the metadata of its lowest-id posting plus the total
    term frequency.  Results are sorted by k-gram for stability across
    rebuilds of the same corpus.
    """
    words = query.split()
    m = len(words)
    if not 1 <= m <= idx.k:
        raise NGramIndexError(
            f"query has {m} words; this index finds runs of 1 to {idx.k} words")
    ids = [idx._word_id.get(w) for w in words]
    if None in ids:
        return []
    grams = idx._grams()
    # Every (k-gram, offset) whose first word matches, narrowed word by word.
    rows, offsets = np.nonzero(grams[:, :idx.k - m + 1] == ids[0])
    for j in range(1, m):
        keep = grams[rows, offsets + j] == ids[j]
        rows, offsets = rows[keep], offsets[keep]
    rows = np.unique(rows)  # key order, which is k-gram order
    first = idx._postings[idx._bounds[rows]].tolist()
    hits = []
    for gram, tf, doc in zip(grams[rows].tolist(), idx._tf[rows].tolist(), first):
        meta = idx.doc_meta[idx._doc_ids[doc]]
        hits.append(SearchHit(ngram=tuple(idx._words[i] for i in gram), tf=tf,
                              category=meta.category, provenance=meta.provenance,
                              url=meta.url))
    return hits


FORMAT = "ctrlkit-ngram-2"
# The types of a document line [id, category, provenance, url, text].
_DOC_LINE_TYPES = ([int, str, str, str, str], [int, str, str, type(None), str])


def save_index(path, idx: NGramIndex) -> None:
    """The header, then one line per document in id order (see the module
    docstring).  The write is atomic (``fileio.atomic_open``)."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        header = {"format": FORMAT, "k": idx.k, "documents": len(idx.texts)}
        fh.write(json.dumps(header) + "\n")
        for doc_id in sorted(idx.texts):
            m = idx.doc_meta[doc_id]
            line = [doc_id, m.category, m.provenance, m.url, idx.texts[doc_id]]
            fh.write(json.dumps(line, ensure_ascii=False) + "\n")


def load_index(path) -> NGramIndex:
    """Read a ``save_index`` file; malformed input raises NGramIndexError."""
    lines = read_lines(path, NGramIndexError)
    with parsing(path, NGramIndexError, "index"):
        header = json.loads(lines.readline())
        if header.get("format") != FORMAT:
            raise NGramIndexError(
                f"{path} has index format {header.get('format')!r}, not "
                f"{FORMAT!r}; rebuild it from its corpus with index-build")
        k, n_docs = header["k"], header["documents"]
        docs = []
        for lineno, line in enumerate(lines, start=2):
            row = json.loads(line)
            if type(row) is not list or list(map(type, row)) not in _DOC_LINE_TYPES:
                raise NGramIndexError(
                    f"{path}:{lineno}: not a [id, category, provenance, url, text] line")
            doc_id, category, provenance, url, text = row
            docs.append((doc_id, DocMeta(category, provenance, url), text))
    if type(n_docs) is not int or n_docs != len(docs):
        raise NGramIndexError(
            f"{path} lists {len(docs)} documents, its header says {n_docs!r}")
    return NGramIndex(k, docs)
