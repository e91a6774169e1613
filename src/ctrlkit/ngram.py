"""Data-transparency k-gram index with overlap statistics and search.

Words are whitespace tokens, case-sensitive, punctuation retained, so
numbers computed here are only comparable to other tools under the same
convention.  After building, the index is immutable and safe for
concurrent queries.

An index file holds the indexed documents themselves, so a reader can check
what was in the training data.  It is JSON-lines: the header
``{"format": "ctrlkit-ngram-2", "k": k, "documents": n}``, then one line
``[id, category, provenance, url, text]`` per document in id order.  The
k-gram table (``NGramIndex.entries``) is not stored: building and loading
both derive it from the texts in ``NGramIndex``'s constructor.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass

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
    """The word k-grams of ``(id, meta, text)`` documents with distinct ids:
    ``entries`` maps each k-gram to its tf and the sorted ids containing it."""

    def __init__(self, k: int, docs: Iterable[tuple[int, DocMeta, str]]):
        if type(k) is not int or k < 1:
            raise NGramIndexError(f"k must be a positive integer, got {k!r}")
        self.k = k
        self.doc_meta: dict[int, DocMeta] = {}
        self.texts: dict[int, str] = {}
        counts: Counter = Counter()
        postings: dict[tuple[str, ...], list[int]] = defaultdict(list)
        for doc_id, meta, text in docs:
            if doc_id in self.texts:
                raise NGramIndexError(f"document id {doc_id} is listed twice")
            self.doc_meta[doc_id] = meta
            self.texts[doc_id] = text
            grams = kgrams(text.split(), k)
            counts.update(grams)
            for ng in dict.fromkeys(grams):
                postings[ng].append(doc_id)
        self.entries = {
            ng: (tf, tuple(sorted(postings[ng]))) for ng, tf in counts.items()
        }

    def __len__(self) -> int:
        return len(self.entries)

    def tf(self, ngram: tuple[str, ...]) -> int:
        entry = self.entries.get(ngram)
        return entry[0] if entry else 0


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
    if threshold < 1:
        raise NGramIndexError(f"threshold must be >= 1, got {threshold}")
    k = idx.k
    grams: list[tuple[str, ...]] = []
    n_short = 0
    for text in eval_texts:
        text_grams = kgrams(text.split(), k)
        if not text_grams:
            n_short += 1
            continue
        grams.extend(text_grams)
    if unique:
        grams = list(dict.fromkeys(grams))
    hits = sum(1 for ng in grams if idx.tf(ng) >= threshold)
    pct = 100.0 * hits / len(grams) if grams else 0.0
    short_pct = 100.0 * n_short / len(eval_texts) if eval_texts else 0.0
    return OverlapResult(
        k=k,
        threshold=threshold,
        overlap_pct=pct,
        short_text_pct=short_pct,
        n_grams=len(grams),
        n_texts=len(eval_texts),
    )


def search(idx: NGramIndex, query: str) -> list[SearchHit]:
    """Indexed k-grams containing the query words as a contiguous run.

    Each hit carries the metadata of its lowest-id posting plus the total
    term frequency.  Results are sorted by k-gram for stability across
    rebuilds of the same corpus.
    """
    words = tuple(query.split())
    m = len(words)
    if not 1 <= m <= idx.k:
        raise NGramIndexError(
            f"query has {m} words; this index finds runs of 1 to {idx.k} words")
    hits = []
    for ng, (tf, postings) in idx.entries.items():
        if any(ng[i:i + m] == words for i in range(len(ng) - m + 1)):
            meta = idx.doc_meta[postings[0]]
            hits.append(
                SearchHit(ngram=ng, tf=tf, category=meta.category,
                          provenance=meta.provenance, url=meta.url)
            )
    hits.sort(key=lambda h: h.ngram)
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
