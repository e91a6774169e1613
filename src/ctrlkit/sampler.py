"""Autoregressive decoding: temperature, nucleus, and repetition penalty.

Each step picks its token by one rule.  At temperature 0 it takes the
argmax of the repetition-penalized logits; otherwise it samples from the
distribution after repetition penalty, temperature, softmax and nucleus
truncation, in that order.  Free generation stops at any registered ending
control code; greedy task decoding stops only at the task's own ECC and
blocks it at the first step.

There is one decoding loop, ``generate_batch``: it decodes continuations
of one prompt as rows in lockstep, each with its own sampling parameters and
rng stream, through one K/V cache allocated for all of them.  The first pass
prefills the prompt in every row; each later step is one model pass over the
last ``context`` ids of every live row, one penalty and one argmax over all
their logits, and one ``nucleus_distribution`` over the sampled rows, which
cuts each row's sorted probabilities at one floor and runs the tie mask only
on rows where more probabilities reach the floor than the nucleus keeps.
Each sampled row then draws from its own rng through ``choose``:
``Generator.choice``'s own arithmetic (the row's cumulative sum over its
last value, searched for one ``rng.random()``) without its validation
passes, one row's cdf at a time.  The sampled rows' indices, temperatures,
p and rngs are built when the batch starts and again only when rows leave,
and stop ids are read from a boolean table over the vocabulary.  A row that
reaches a stop id or its budget leaves the batch and the cache
(``KVCache.keep``).  Positions are absolute sinusoids, so once the window
fills every row slides on the same step and the pass re-prefills the
windows; that is exact, and no slower than a full forward.  A single
continuation is a batch of one, and rows past ``BATCH_BYTES`` of K/V cache
and logits go to the next batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import model as M
from .tokenizer import Vocab, encode


class SamplingError(ValueError):
    pass


@dataclass(frozen=True)
class SamplingParams:
    """temperature=0 selects the deterministic greedy path, the only one
    that takes ``block_first_ecc``."""

    temperature: float = 1.0
    nucleus_p: float = 1.0
    repetition_penalty: float = 1.0
    max_new_tokens: int = 64
    rng_seed: int = 0
    block_first_ecc: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.temperature <= 1.0:
            raise SamplingError(f"temperature must be in [0, 1], got {self.temperature}")
        if not 0.0 < self.nucleus_p <= 1.0:
            raise SamplingError(f"nucleus_p must be in (0, 1], got {self.nucleus_p}")
        if not 1.0 <= self.repetition_penalty <= 2.0:
            raise SamplingError(
                f"repetition_penalty must be in [1, 2], got {self.repetition_penalty}"
            )
        if self.max_new_tokens < 0:
            raise SamplingError("max_new_tokens must be nonnegative")
        if self.rng_seed < 0:
            raise SamplingError(f"rng_seed must be non-negative, got {self.rng_seed}")
        if self.block_first_ecc is not None and self.temperature != 0.0:
            raise SamplingError("block_first_ecc needs temperature 0 (greedy decoding)")


# Hyper-parameter combinations that performed well across categories, plus
# the default settings used when comparing against GPT-3 generations.
PRESETS: dict[str, SamplingParams] = {
    "M1": SamplingParams(repetition_penalty=1.6, nucleus_p=0.8),
    "M2": SamplingParams(repetition_penalty=1.4, nucleus_p=0.9),
    "M3": SamplingParams(repetition_penalty=1.0, nucleus_p=0.9),
    "GPT3": SamplingParams(temperature=0.7, nucleus_p=1.0,
                           repetition_penalty=1.0, max_new_tokens=256),
}


def preset(name: str, **overrides) -> SamplingParams:
    try:
        base = PRESETS[name]
    except KeyError:
        raise SamplingError(
            f"unknown preset {name!r}; choose from {', '.join(PRESETS)}"
        ) from None
    return replace(base, **overrides)


STOP_ECC = "ecc_reached"
STOP_MAX = "max_length"

# Bytes of per-row arrays one decoding batch may hold: each row's K/V cache
# and 40 bytes per vocab id for its share of a step's (rows, vocab) arrays,
# which peak near 37 (traced at 20 000 ids: 38.7 at one row, 37.1 a row
# from 2 to 32).  ``generate_batch`` splits larger batches.
BATCH_BYTES = 2**25


@dataclass(frozen=True)
class GenerationResult:
    generated_ids: tuple[int, ...]
    stop_reason: str  # STOP_ECC | STOP_MAX

    @property
    def ecc_id(self) -> int | None:
        """The ECC that stopped decoding, or None at the budget."""
        return self.generated_ids[-1] if self.stop_reason == STOP_ECC else None

    @property
    def body(self) -> tuple[int, ...]:
        """The generated ids without the ECC that stopped decoding; a stop
        id can only be the last token."""
        if self.stop_reason == STOP_ECC:
            return self.generated_ids[:-1]
        return self.generated_ids


def apply_repetition_penalty(logits: np.ndarray, context_ids, r) -> np.ndarray:
    """Divide positive logits of context tokens by r, multiply negative ones.

    ``logits`` is a vector or (rows, vocab) with one r or one per row, and
    ``context_ids`` an int array of its rank, such as the decoder's (rows, t)
    id buffer, or for a vector any collection of ids; repeats count once.
    Multiplying (not dividing) negatives keeps the penalty a penalty for
    tokens the model already disfavors; at r = 1 both are exact.  Decoding
    starts here, so this is where non-finite logits and context ids outside
    the vocabulary are rejected.
    """
    if not np.isfinite(logits).all():
        raise SamplingError("logits must be finite")
    out = np.atleast_2d(logits).astype(np.float64)
    idx = np.atleast_2d(context_ids if isinstance(context_ids, np.ndarray)
                        else np.fromiter(context_ids, dtype=np.int64))
    if idx.size and not 0 <= idx.min() <= idx.max() < out.shape[-1]:
        raise SamplingError(f"context ids must be in 0..{out.shape[-1] - 1}")
    at = np.arange(len(out))[:, None], idx
    vals, r = out[at], np.asarray(r, dtype=np.float64)[..., None]
    out[at] = np.where(vals > 0, vals / r, vals * r)
    return out.reshape(logits.shape)


def nucleus_distribution(
    scores: np.ndarray, temperature: np.ndarray, nucleus_p: np.ndarray
) -> np.ndarray:
    """Probabilities of penalized (rows, vocab) ``scores`` after each row's
    temperature -> softmax -> nucleus, in one new array.

    A nucleus row keeps the smallest prefix of its probabilities, sorted
    down with ties by id, whose sum reaches p, top token always included,
    and is renormalized; a row at p = 1 is the plain softmax.  A temperature
    not above 0, a p outside (0, 1], or a row whose top score overflows at
    its temperature raises SamplingError.
    """
    # Python floats divide as numpy does, without its warnings.
    for top, t, p in zip(scores.max(-1).tolist(), temperature.tolist(), nucleus_p.tolist()):
        if not t > 0.0:
            raise SamplingError(f"temperature must be positive, got {t}")
        if not 0.0 < p <= 1.0:
            raise SamplingError(f"nucleus_p must be in (0, 1], got {p}")
        if math.isinf(top / t):
            raise SamplingError("temperature too small: a row's top scaled logit overflows")
    probs = M.softmax(scores / temperature[:, None])
    cut = np.flatnonzero(nucleus_p < 1.0)
    head = probs if cut.size == len(probs) else probs[cut]
    desc = np.sort(head, -1)[:, ::-1]
    # Rank k stays iff k = 0 or the running sum before it is below p; that
    # sum never decreases, so a row keeps its ranks up to `last`: every
    # probability above the floor there, then the ties at it in id order.
    rows = np.arange(cut.size)[:, None]
    last = (desc[:, :-1].cumsum(-1) < nucleus_p[cut, None]).sum(-1, keepdims=True)
    floor = desc[rows, last]
    keep = head >= floor
    # A row whose rank last + 1 also ties at the floor keeps only its first
    # ties in id order.  Index last + 1 - V reads that rank, or rank 0 on a
    # row that keeps every rank, where a false alarm costs only time.
    ties = np.flatnonzero(desc[rows, last + 1 - desc.shape[1]] == floor)
    if ties.size:
        tie = head[ties] == floor[ties]
        above = (desc[ties] > floor[ties]).sum(-1, keepdims=True)
        keep[ties] &= ~tie | (tie.cumsum(-1) <= last[ties] + 1 - above)
    head *= keep  # probabilities are finite and >= 0, so this zeroes exactly
    head /= head.sum(-1, keepdims=True)
    if head is not probs:
        probs[cut] = head
    return probs


def choose(probs: np.ndarray, rngs) -> list[int]:
    """One id per row of (rows, vocab) ``probs``, each drawn by its own rng
    with ``Generator.choice(vocab, p=row)``'s arithmetic: the same ids, and
    each rng left in the same state, through one row's cdf at a time.  A row
    whose sum is not 1 within choice's tolerance raises SamplingError."""
    atol = math.sqrt(np.finfo(np.float64).eps)
    cdf = np.empty(probs.shape[-1])
    ids = []
    for row, rng in zip(probs, rngs):
        row.cumsum(out=cdf)
        if not abs(cdf[-1] - 1.0) <= atol:
            raise SamplingError("a row's probabilities do not sum to 1")
        cdf /= cdf[-1]
        ids.append(int(cdf.searchsorted(rng.random(), side="right")))
    return ids


def adjust_distribution(
    logits: np.ndarray, context_ids, sp: SamplingParams
) -> np.ndarray:
    """Probability vector after penalty -> temperature -> softmax -> nucleus:
    one row of ``nucleus_distribution``.

    The output sums to 1 and is supported only on the nucleus set; the top
    token is always kept.  temperature=0 is served by the greedy path, not
    here.
    """
    if sp.temperature == 0.0:
        raise SamplingError("temperature 0 is greedy decoding; use the greedy path")
    scores = apply_repetition_penalty(logits, context_ids, sp.repetition_penalty)
    return nucleus_distribution(
        scores[None], np.array([sp.temperature]), np.array([sp.nucleus_p]))[0]


def generate(
    ckpt: M.Checkpoint,
    v: Vocab,
    prompt: str,
    occ: str,
    sp: SamplingParams,
) -> GenerationResult:
    """Sample a continuation of OCC + prompt until an ECC or the budget.

    The context window slides once filled; the repetition set covers every
    id seen so far, prompt included.  Any registered ECC stops decoding.
    """
    if occ not in v.control_ids:
        raise SamplingError(f"category {occ!r} has no control codes in the vocab")
    prompt_ids = [v.occ_id(occ)] + encode(v, prompt)
    return generate_ids(ckpt, prompt_ids, sp, stop_ids=v.ecc_ids)


def generate_ids(
    ckpt: M.Checkpoint,
    prompt_ids: list[int],
    sp: SamplingParams,
    stop_ids: frozenset[int],
) -> GenerationResult:
    """Decode a continuation of ``prompt_ids`` until an id in ``stop_ids``
    or the budget; ``sp.block_first_ecc`` cannot be the first token."""
    return generate_batch(ckpt, prompt_ids, [sp], stop_ids)[0]


def generate_batch(
    ckpt: M.Checkpoint,
    prompt_ids: list[int],
    sps: list[SamplingParams],
    stop_ids: frozenset[int],
) -> list[GenerationResult]:
    """Decode one continuation of ``prompt_ids`` per entry of ``sps``, each
    until an id in ``stop_ids`` or its own budget, as rows in lockstep.  Row
    i draws from ``default_rng(sps[i].rng_seed)`` and cannot start with
    ``sps[i].block_first_ecc``, so its result equals decoding it alone, and
    rows beyond ``BATCH_BYTES`` go to the next batch."""
    cfg, p = ckpt.config, len(prompt_ids)
    if not 0 < p <= cfg.context:
        raise SamplingError(f"a prompt takes 1 to {cfg.context} tokens (the context), got {p}")
    columns = min(cfg.context, p + max((sp.max_new_tokens for sp in sps), default=0))
    rows = max(1, BATCH_BYTES // (40 * cfg.vocab_size + ckpt.dtype.itemsize * columns
                                  * 2 * cfg.layers * cfg.model_dim))
    if len(sps) > rows:
        return [gr for part in np.array_split(np.arange(len(sps)), -(-len(sps) // rows))
                for gr in generate_batch(ckpt, prompt_ids, [sps[i] for i in part], stop_ids)]
    results = [GenerationResult((), STOP_MAX)] * len(sps)
    live = np.flatnonzero([sp.max_new_tokens > 0 for sp in sps])  # sps index of each row
    temperature, nucleus_p, penalty, budget = (  # one entry per row
        np.array([getattr(sps[i], name) for i in live])
        for name in ("temperature", "nucleus_p", "repetition_penalty", "max_new_tokens"))
    rngs = [np.random.default_rng(sp.rng_seed) for sp in sps]
    blocked = tuple(zip(*[(row, sps[i].block_first_ecc) for row, i in enumerate(live)
                          if sps[i].block_first_ecc is not None]))  # (rows, ids)
    is_stop = np.zeros(cfg.vocab_size, bool)
    is_stop[[i for i in stop_ids if 0 <= i < cfg.vocab_size]] = True
    buf = np.empty((len(live), p + int(budget.max(initial=0))), np.int64)
    buf[:, :p] = prompt_ids
    kv = M.kv_cache(ckpt, len(live), columns)
    t, left = p, True
    while live.size:  # the first pass prefills the prompt in every row
        if left:  # the batch starts, or rows left it: index its sampled rows anew
            draw = np.flatnonzero(temperature > 0.0)
            pick = slice(None) if draw.size == live.size else draw
            draw_t, draw_p = temperature[draw], nucleus_p[draw]
            draw_rngs = [rngs[i] for i in live[draw].tolist()]
        logits = M.forward(ckpt, buf[:, max(0, t - cfg.context):t], kv)
        scores = apply_repetition_penalty(logits, buf[:, :t], penalty)
        if t == p and blocked:
            scores[blocked] = -np.inf
        buf[:, t] = scores.argmax(-1)
        if draw.size:
            buf[pick, t] = choose(nucleus_distribution(scores[pick], draw_t, draw_p), draw_rngs)
        t += 1
        ecc = is_stop[buf[:, t - 1]]
        done = ecc | (t - p == budget)
        left = done.any()
        if left:
            for row in np.flatnonzero(done).tolist():
                results[live[row]] = GenerationResult(tuple(buf[row, p:t].tolist()),
                                                      STOP_ECC if ecc[row] else STOP_MAX)
            keep = np.flatnonzero(~done)
            live, buf, temperature, nucleus_p, penalty, budget = (
                a[keep] for a in (live, buf, temperature, nucleus_p, penalty, budget))
            kv.keep(keep)
    return results
