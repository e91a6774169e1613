"""Data-transparency k-gram index with overlap statistics and search.

Words are whitespace tokens, case-sensitive, punctuation retained, so
numbers computed here are only comparable to other tools under the same
convention.  After building, the index is immutable and safe for
concurrent queries.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass

from .corpus import Document
from .fileio import atomic_open

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
    def __init__(
        self,
        k: int,
        entries: dict[tuple[str, ...], tuple[int, tuple[int, ...]]],
        doc_meta: dict[int, DocMeta],
    ):
        self.k = k
        self.entries = entries
        self.doc_meta = doc_meta

    def __len__(self) -> int:
        return len(self.entries)

    def tf(self, ngram: tuple[str, ...]) -> int:
        entry = self.entries.get(ngram)
        return entry[0] if entry else 0


def build_index(docs: list[Document], k: int = DEFAULT_K) -> NGramIndex:
    """Index word k-grams of every document; deterministic over input order."""
    if k < 1:
        raise NGramIndexError(f"k must be >= 1, got {k}")
    counts: Counter = Counter()
    postings: dict[tuple[str, ...], set[int]] = defaultdict(set)
    doc_meta: dict[int, DocMeta] = {}
    for doc in docs:
        doc_meta[doc.id] = DocMeta(
            category=doc.category.name,
            provenance=doc.provenance,
            url=doc.source_url,
        )
        for ng in kgrams(doc.text.split(), k):
            counts[ng] += 1
            postings[ng].add(doc.id)
    entries = {
        ng: (counts[ng], tuple(sorted(postings[ng]))) for ng in counts
    }
    return NGramIndex(k=k, entries=entries, doc_meta=doc_meta)


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
    if not words:
        raise NGramIndexError("query must contain at least one word")
    m = len(words)
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


def save_index(path, idx: NGramIndex) -> None:
    """JSON-lines: a header line, then one line per k-gram entry.  The
    write is atomic (``fileio.atomic_open``)."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        header = {
            "format": "ctrlkit-ngram-1",
            "k": idx.k,
            "docs": {
                str(i): [m.category, m.provenance, m.url]
                for i, m in sorted(idx.doc_meta.items())
            },
        }
        fh.write(json.dumps(header, sort_keys=True, ensure_ascii=False) + "\n")
        for ng in sorted(idx.entries):
            tf, postings = idx.entries[ng]
            fh.write(
                json.dumps([list(ng), tf, list(postings)], ensure_ascii=False) + "\n"
            )


def load_index(path) -> NGramIndex:
    """Read a ``save_index`` file; malformed input raises NGramIndexError."""
    with open(path, encoding="utf-8") as fh:
        try:
            header = json.loads(fh.readline())
            if header.get("format") != "ctrlkit-ngram-1":
                raise NGramIndexError("unsupported index file format")
            doc_meta = {
                int(i): DocMeta(category=m[0], provenance=m[1], url=m[2])
                for i, m in header["docs"].items()
            }
            k = header["k"]
            if not isinstance(k, int) or k < 1:
                raise NGramIndexError(f"index k must be a positive integer, got {k!r}")
            word_types, doc_ids = (str,) * k, set(doc_meta)
            entries = {}
            for line in fh:
                ng, tf, postings = json.loads(line)
                if type(ng) is not list or tuple(map(type, ng)) != word_types:
                    raise NGramIndexError(f"index entry {ng!r} is not {k} words")
                if type(tf) is not int or tf < 1:
                    raise NGramIndexError(
                        f"index entry {ng!r} has tf {tf!r}, not a positive integer")
                if not postings or not doc_ids.issuperset(postings):
                    raise NGramIndexError(
                        f"index entry {ng!r} has postings {postings!r}, "
                        "not a non-empty list of the header's docs")
                key = tuple(ng)
                if key in entries:
                    raise NGramIndexError(f"index entry {ng!r} is listed twice")
                entries[key] = (tf, tuple(postings))
        except NGramIndexError:
            raise
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise NGramIndexError(f"malformed index file {path}: {exc!r}") from None
    return NGramIndex(k=k, entries=entries, doc_meta=doc_meta)
