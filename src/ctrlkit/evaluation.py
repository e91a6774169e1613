"""Automatic generation metrics and the hyper-parameter grid search.

Covers sliding-window perplexity, sampling-loop detection, the ECC outcome
of a generation, self-BLEU-4, and a grid search that pairs the nucleus
threshold and the temperature with the repetition penalty.  A category's
cells decode in one ``generate_batch`` call, each sample seeded from its
cell key, so no cell depends on its batch; the report is ordered
lexicographically by cell key.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import model as M
from .ngram import DEFAULT_K, NGramIndex, kgrams, overlap
from .sampler import (
    STOP_ECC,
    GenerationResult,
    SamplingParams,
    generate_batch,
)
from .tokenizer import Vocab, decode, encode


class EvaluationError(ValueError):
    pass


class TextTooShort(EvaluationError):
    """The text encodes to fewer than 2 tokens, leaving nothing to predict."""


@dataclass(frozen=True)
class PerplexityResult:
    value: float
    window: int
    token_count: int  # predicted positions entering the average


def check_window(w: int, context: int) -> None:
    """Raise EvaluationError unless 2 <= w <= context."""
    if not 2 <= w <= context:
        raise EvaluationError(f"window must be in [2, {context}], got {w}")


def sliding_perplexity(ckpt: M.Checkpoint, v: Vocab, text: str, w: int) -> PerplexityResult:
    """exp of the mean NLL with every token conditioned on a w-token window.

    Position i conditions on the previous min(i, w-1) tokens.  One
    ``sequence_logprob`` call scores the first window.  Each later position
    i is the last of its own window ids[i-w+1:i+1]; these windows are
    stacked into (chunk, w) batches, each one pass that reads only the
    windows' last column.  A chunk holds max(1, context // (w-1)) windows,
    so it runs at most ``context`` positions, no more than one full-context
    forward.
    """
    context = ckpt.config.context
    check_window(w, context)
    ids = np.asarray(encode(v, text), dtype=np.int64)
    if len(ids) < 2:
        raise TextTooShort("text must encode to at least 2 tokens")

    total = M.sequence_logprob(ckpt, ids[:w])
    chunk = max(1, context // (w - 1))
    for lo in range(w, len(ids), chunk):
        windows = sliding_window_view(ids[lo - w + 1:lo + chunk], w)
        total += M.sequence_logprob(ckpt, windows, start=w - 1)

    count = len(ids) - 1
    value = math.exp(-total / count)
    return PerplexityResult(value=value, window=w, token_count=count)


@dataclass(frozen=True)
class Loop:
    start: int
    phrase: tuple[int, ...]
    repeats: int

    @property
    def token_span(self) -> int:
        return len(self.phrase) * self.repeats


@dataclass(frozen=True)
class LoopReport:
    loops: tuple[Loop, ...]
    numeral_excluded_count: int


def _is_primitive(phrase: tuple[int, ...]) -> bool:
    n = len(phrase)
    for q in range(1, n):
        if n % q == 0 and phrase == phrase[:q] * (n // q):
            return False
    return True


def _is_numeral(v: Vocab, token_id: int) -> bool:
    return decode(v, [token_id]).isdecimal()


LOOP_MAX_PHRASE = 5


def detect_loops(ids, v: Vocab) -> LoopReport:
    """Maximal contiguous repetitions of a primitive phrase of at most
    ``LOOP_MAX_PHRASE`` tokens.

    A run whose tokens all decode to numerals is excluded from the loops and
    tallied in ``numeral_excluded_count`` instead.
    """
    seq = tuple(ids)
    n = len(seq)
    loops: list[Loop] = []
    excluded = 0
    for length in range(1, LOOP_MAX_PHRASE + 1):
        j = 0
        limit = n - length
        while j < limit:
            if seq[j] != seq[j + length]:
                j += 1
                continue
            start = j
            while j < limit and seq[j] == seq[j + length]:
                j += 1
            # Periodic segment [start, j + length) with period `length`.
            repeats = (j - start) // length + 1
            if repeats >= 2:
                phrase = seq[start:start + length]
                if _is_primitive(phrase):
                    if all(_is_numeral(v, t) for t in phrase):
                        excluded += 1
                    else:
                        loops.append(Loop(start=start, phrase=phrase, repeats=repeats))
            j += 1
    loops.sort(key=lambda l: (l.start, len(l.phrase)))
    return LoopReport(loops=tuple(loops), numeral_excluded_count=excluded)


OUTCOME_CORRECT = "correct"
OUTCOME_WRONG = "wrong"
OUTCOME_NONE = "none"


@dataclass(frozen=True)
class EccOutcome:
    kind: str  # correct | wrong | none
    category: str | None = None  # reached category unless kind == none


def ecc_outcome(gr: GenerationResult, occ: str, v: Vocab) -> EccOutcome:
    """Classify where a generation stopped relative to its opening code."""
    if occ not in v.control_ids:
        raise EvaluationError(f"category {occ!r} has no control codes in the vocab")
    if gr.stop_reason != STOP_ECC:
        return EccOutcome(OUTCOME_NONE)
    reached = v.category_of_ecc_id(gr.ecc_id)
    return EccOutcome(OUTCOME_CORRECT if reached == occ else OUTCOME_WRONG, reached)


def bleu4(candidate: str, references: list[str]) -> float:
    """BLEU-4 with uniform weights, brevity penalty, and add-one smoothing
    applied to any order whose clipped count is zero."""
    if not references:
        raise EvaluationError("BLEU needs at least one reference")
    cand = candidate.split()
    refs = [r.split() for r in references]
    if not cand:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        cand_counts = Counter(kgrams(cand, n))
        total = sum(cand_counts.values())
        ref_counts = [Counter(kgrams(r, n)) for r in refs]
        clipped = sum(
            min(cnt, max(rc.get(ng, 0) for rc in ref_counts))
            for ng, cnt in cand_counts.items()
        )
        if clipped == 0:
            p_n = 1.0 / (total + 1)
        else:
            p_n = clipped / total
        log_sum += 0.25 * math.log(p_n)
    c = len(cand)
    r = min((abs(len(r_) - c), len(r_)) for r_ in refs)[1]
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum)


def self_bleu4(texts: list[str]) -> list[float]:
    """Each text scored against the rest of its cohort; low means diverse."""
    if len(texts) < 2:
        raise EvaluationError("self-BLEU needs at least 2 texts")
    return [
        bleu4(text, texts[:i] + texts[i + 1:]) for i, text in enumerate(texts)
    ]


@dataclass(frozen=True)
class GridSpec:
    """Grid values paired as (p, r) at T=1 and (T, r) at p=1."""

    p_values: tuple[float, ...] = (0.7, 0.8, 0.9, 1.0)
    t_values: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)
    r_values: tuple[float, ...] = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0)

    def __post_init__(self):
        if not self.cells():
            raise EvaluationError(
                "grid has no cells: give r values and p or T values")

    def cells(self) -> list[tuple[float, float, float]]:
        seen: dict[tuple[float, float, float], None] = {}
        for p in self.p_values:
            for r in self.r_values:
                seen.setdefault((1.0, p, r))
        for t in self.t_values:
            for r in self.r_values:
                seen.setdefault((t, 1.0, r))
        return sorted(seen)


@dataclass(frozen=True)
class CellRecord:
    """One generated text, as ``generate`` writes it and a grid cell dumps it.

    ``token_ids`` are the raw generated ids (ECC included); sampled ids are
    not necessarily a canonical encoding of ``text``, so aggregates must be
    recomputed from the ids, never from re-encoded text.  ``params`` holds
    the ``T``, ``p``, ``r``, ``max_new_tokens`` and ``seed`` it was sampled
    with and the ``preset`` named, or null.
    """

    prompt: str
    text: str
    stop_reason: str
    outcome: str
    reached: str | None
    token_ids: tuple[int, ...]
    params: dict

    @classmethod
    def of(cls, v: Vocab, prompt: str, occ: str, sp: SamplingParams,
           gr: GenerationResult, preset: str | None) -> "CellRecord":
        """The record of ``gr``, sampled with ``sp`` (named ``preset``, if
        any) after ``occ`` + ``prompt``."""
        out = ecc_outcome(gr, occ, v)
        params = {"T": sp.temperature, "p": sp.nucleus_p, "r": sp.repetition_penalty,
                  "max_new_tokens": sp.max_new_tokens, "seed": sp.rng_seed,
                  "preset": preset}
        return cls(prompt, decode(v, gr.body), gr.stop_reason, out.kind, out.category,
                   gr.generated_ids, params)

    @property
    def n_tokens(self) -> int:
        return len(self.token_ids)

    def to_json(self) -> str:
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)},
                          sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "CellRecord":
        """The record of a ``to_json`` line; EvaluationError for a line that
        is not a JSON object of exactly the record's keys with integer ids."""
        try:
            data = json.loads(line)
        except ValueError as exc:
            raise EvaluationError(f"a generated-text record is not JSON: {exc}") from None
        names = {f.name for f in fields(cls)}
        if not (isinstance(data, dict) and data.keys() == names
                and isinstance(data["token_ids"], list)
                and all(type(i) is int for i in data["token_ids"])):
            raise EvaluationError(f"a generated-text record is an object of the keys "
                                  f"{', '.join(sorted(names))}, not {line.strip()[:80]!r}")
        return cls(**{**data, "token_ids": tuple(data["token_ids"])})


@dataclass(frozen=True)
class CellReport:
    category: str
    temperature: float
    nucleus_p: float
    repetition_penalty: float
    ecc_correct: int
    ecc_wrong: int
    ecc_none: int
    mean_loop_len: float
    mean_tokens: float
    median_selfbleu4: float | None
    median_overlap13: float | None
    records: tuple[CellRecord, ...] = field(repr=False, default=())

    @property
    def key(self):
        return (self.category, self.temperature, self.nucleus_p,
                self.repetition_penalty)


@dataclass(frozen=True)
class GridReport:
    cells: tuple[CellReport, ...]

    @property
    def confusion(self) -> Counter:
        """Texts per (opening category, reached category or "none")."""
        return Counter(
            (cell.category, rec.reached or OUTCOME_NONE)
            for cell in self.cells for rec in cell.records
        )

    CSV_HEADER = (
        "category,T,p,r,ecc_correct,ecc_wrong,ecc_none,"
        "mean_loop_len,mean_tokens,median_selfbleu4,median_overlap13"
    )

    def to_csv(self) -> str:
        def fmt(x):
            return "" if x is None else f"{x:.6f}"

        lines = [self.CSV_HEADER]
        for c in self.cells:
            lines.append(
                f"{c.category},{','.join(cell_label(*c.key[1:]))},{c.ecc_correct},"
                f"{c.ecc_wrong},{c.ecc_none},{fmt(c.mean_loop_len)},{fmt(c.mean_tokens)},"
                f"{fmt(c.median_selfbleu4)},{fmt(c.median_overlap13)}"
            )
        return "\n".join(lines) + "\n"


def cell_label(t: float, p: float, r: float) -> tuple[str, str, str]:
    """T, p and r as a cell's ``report.csv`` row and dump name write them."""
    return f"{t:.2f}", f"{p:.2f}", f"{r:.2f}"


def cell_seed(base_seed: int, category: str, t: float, p: float, r: float,
              sample: int) -> int:
    key = f"{base_seed}:{category}:{t:.4f}:{p:.4f}:{r:.4f}:{sample}"
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def summarize_cell(
    v: Vocab,
    category: str,
    params: tuple[float, float, float],
    records: list[CellRecord],
    idx: NGramIndex | None = None,
) -> CellReport:
    """Aggregate one cell; usable both live and on re-loaded dump records."""
    t, p, r = params
    outcomes = Counter(rec.outcome for rec in records)
    loop_spans: list[int] = []
    for rec in records:
        report = detect_loops(rec.token_ids, v)
        loop_spans.extend(l.token_span for l in report.loops)
    texts = [rec.text for rec in records]
    overlaps = None
    if idx is not None:
        overlaps = statistics.median(
            overlap([text], idx).overlap_pct for text in texts
        )
    return CellReport(
        category=category,
        temperature=t,
        nucleus_p=p,
        repetition_penalty=r,
        ecc_correct=outcomes.get(OUTCOME_CORRECT, 0),
        ecc_wrong=outcomes.get(OUTCOME_WRONG, 0),
        ecc_none=outcomes.get(OUTCOME_NONE, 0),
        mean_loop_len=(sum(loop_spans) / len(loop_spans)) if loop_spans else 0.0,
        mean_tokens=sum(rec.n_tokens for rec in records) / len(records),
        median_selfbleu4=(
            statistics.median(self_bleu4(texts)) if len(texts) >= 2 else None
        ),
        median_overlap13=overlaps,
        records=tuple(records),
    )


def check_grid(categories: list[str], grid: GridSpec, texts_per_cell: int,
               max_new_tokens: int) -> None:
    """Raise for a grid that cannot run, before any model is read: no
    category or one listed twice, no text per cell, a cell whose sampling
    parameters ``SamplingParams`` rejects, or two cells with one label."""
    if not categories:
        raise EvaluationError("grid search needs at least one category")
    if len(set(categories)) < len(categories):
        raise EvaluationError(f"categories {','.join(categories)} name one more than once")
    if texts_per_cell < 1:
        raise EvaluationError(f"texts_per_cell must be at least 1, got {texts_per_cell}")
    for t, p, r in grid.cells():
        SamplingParams(temperature=t, nucleus_p=p, repetition_penalty=r,
                       max_new_tokens=max_new_tokens)
    labels = [cell_label(*cell) for cell in grid.cells()]
    if len(set(labels)) < len(labels):
        raise EvaluationError("two grid cells share the label T{}_p{}_r{}".format(
            *max(labels, key=labels.count)))


def grid_search(
    ckpt: M.Checkpoint,
    v: Vocab,
    categories: list[str],
    grid: GridSpec = GridSpec(),
    texts_per_cell: int = 10,
    max_new_tokens: int = 64,
    idx: NGramIndex | None = None,
    base_seed: int = 0,
) -> GridReport:
    """Generate from the bare OCC for every (category, params) cell.

    Each sample draws its rng stream from (base_seed, cell key, sample), so
    results are independent of the execution order.  ``idx``, which fills
    the report's ``median_overlap13`` column, must index 13-grams.
    """
    check_grid(categories, grid, texts_per_cell, max_new_tokens)
    for cat in categories:
        if cat not in v.control_ids:
            raise EvaluationError(f"category {cat!r} has no control codes")
    if idx is not None and idx.k != DEFAULT_K:
        raise EvaluationError(f"grid overlap needs a {DEFAULT_K}-gram index, not {idx.k}-grams")
    cells = []
    for category in sorted(categories):
        sps = [SamplingParams(temperature=t, nucleus_p=p, repetition_penalty=r,
                              max_new_tokens=max_new_tokens,
                              rng_seed=cell_seed(base_seed, category, t, p, r, sample))
               for t, p, r in grid.cells() for sample in range(texts_per_cell)]
        records = [CellRecord.of(v, "", category, sp, gr, None) for sp, gr in
                   zip(sps, generate_batch(ckpt, [v.occ_id(category)], sps, v.ecc_ids))]
        cells += [summarize_cell(v, category, params,
                                 records[c * texts_per_cell:(c + 1) * texts_per_cell], idx)
                  for c, params in enumerate(grid.cells())]
    return GridReport(cells=tuple(cells))
