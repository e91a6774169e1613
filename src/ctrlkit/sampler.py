"""Autoregressive decoding: temperature, nucleus, and repetition penalty.

Each step picks its token by one rule.  At temperature 0 it takes the
argmax of the repetition-penalized logits; otherwise it samples from the
distribution after repetition penalty, temperature, softmax and nucleus
truncation, in that order.  Free generation stops at any registered ending
control code; greedy task decoding stops only at the task's own ECC and
blocks it at the first step.

There is one decoding loop, ``generate_batch``: it decodes several
continuations of one prompt as rows that advance in lockstep, each with its
own sampling parameters and rng stream, through one K/V cache allocated for
all of them.  The first pass prefills the prompt in every row.  Each step
then makes one model pass over the last ``context`` ids of every live row,
which computes one new column per row until the window fills, and picks
each row's token from its own logits; a row that reaches a stop id or its
budget leaves the batch and the cache (``KVCache.keep``).
Positions are absolute sinusoids, so once the window fills every row slides
on the same step and the pass re-prefills the windows; that is exact, and no
slower than a full forward.  A single continuation is a batch of one.
"""

from __future__ import annotations

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


def apply_repetition_penalty(
    logits: np.ndarray, context_ids, r: float
) -> np.ndarray:
    """Divide positive logits of context tokens by r, multiply negative ones.

    ``context_ids`` is an int array, such as a slice of the decoder's id
    buffer, or any collection of ids; repeats count once.  Multiplying (not
    dividing) negatives keeps the penalty a penalty for tokens the model
    already disfavors.  Both decoding paths start here, so this is where
    non-finite logits are rejected.
    """
    if not np.all(np.isfinite(logits)):
        raise SamplingError("logits must be finite")
    out = logits.astype(np.float64, copy=True)
    if r == 1.0 or len(context_ids) == 0:
        return out
    idx = (context_ids if isinstance(context_ids, np.ndarray)
           else np.fromiter(context_ids, dtype=np.int64))
    vals = out[idx]
    out[idx] = np.where(vals > 0, vals / r, vals * r)
    return out


def adjust_distribution(
    logits: np.ndarray, context_ids, sp: SamplingParams
) -> np.ndarray:
    """Probability vector after penalty -> temperature -> softmax -> nucleus.

    The output sums to 1 and is supported only on the nucleus set; the top
    token is always kept.  temperature=0 is served by the greedy path, not
    here.
    """
    if sp.temperature == 0.0:
        raise SamplingError("temperature 0 is greedy decoding; use the greedy path")
    scores = apply_repetition_penalty(logits, context_ids, sp.repetition_penalty)
    scores /= sp.temperature
    probs = M.softmax(scores)
    if sp.nucleus_p >= 1.0:
        return probs
    order = np.argsort(-probs, kind="stable")
    cum = np.cumsum(probs[order])
    cutoff = int(np.searchsorted(cum, sp.nucleus_p)) + 1  # smallest prefix >= p
    keep = order[:cutoff]
    nucleus = np.zeros_like(probs)
    nucleus[keep] = probs[keep]
    nucleus /= nucleus.sum()
    return nucleus


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
    ``sps[i].block_first_ecc``, so its result equals decoding it alone."""
    n = ckpt.config.context
    p = len(prompt_ids)
    if p > n:
        raise SamplingError(f"prompt of {p} tokens exceeds the context window {n}")
    results = [GenerationResult((), STOP_MAX)] * len(sps)
    live = [i for i, sp in enumerate(sps) if sp.max_new_tokens > 0]  # sps index of each row
    if not live:
        return results
    rngs = [np.random.default_rng(sp.rng_seed) for sp in sps]
    buf = np.empty((len(live), p + max(sps[i].max_new_tokens for i in live)), np.int64)
    buf[:, :p] = prompt_ids
    kv = M.kv_cache(ckpt, len(live))
    t = p
    while True:  # the first pass prefills the prompt in every row
        logits = M.forward(ckpt, buf[:, max(0, t - n):t], kv)
        for row, i in enumerate(live):
            sp, context = sps[i], buf[row, :t]
            if sp.temperature == 0.0:
                scores = apply_repetition_penalty(logits[row], context, sp.repetition_penalty)
                if t == p and sp.block_first_ecc is not None:
                    scores[sp.block_first_ecc] = -np.inf
                buf[row, t] = np.argmax(scores)
            else:
                probs = adjust_distribution(logits[row], context, sp)
                buf[row, t] = rngs[i].choice(len(probs), p=probs)
        t += 1
        keep = []
        for row, i in enumerate(live):
            if int(buf[row, t - 1]) in stop_ids:
                results[i] = GenerationResult(tuple(buf[row, p:t].tolist()), STOP_ECC)
            elif t - p == sps[i].max_new_tokens:
                results[i] = GenerationResult(tuple(buf[row, p:t].tolist()), STOP_MAX)
            else:
                keep.append(row)
        if not keep:
            return results
        if len(keep) < len(live):
            live = [live[row] for row in keep]
            buf = buf[keep]
            kv.keep(keep)
