"""Autoregressive decoding: temperature, nucleus, and repetition penalty.

Each step picks its token by one rule.  At temperature 0 it takes the
argmax of the repetition-penalized logits; otherwise it samples from the
distribution after repetition penalty, temperature, softmax and nucleus
truncation, in that order.  Free generation stops at any registered ending
control code; greedy task decoding stops only at the task's own ECC and
blocks it at the first step.

Each step passes the last ``context`` tokens to the model with one K/V
cache, which reuses the prefix it holds: one new column per step until the
window fills.  Positions are absolute sinusoids, so a slide moves every
position and the step re-prefills the window; that is exact, and no slower
than a full forward.
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

    Multiplying (not dividing) negatives keeps the penalty a penalty for
    tokens the model already disfavors.  Both decoding paths start here, so
    this is where non-finite logits are rejected.
    """
    if not np.all(np.isfinite(logits)):
        raise SamplingError("logits must be finite")
    out = logits.astype(np.float64, copy=True)
    if r == 1.0 or not context_ids:
        return out
    idx = np.fromiter(set(context_ids), dtype=np.int64)
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
    n = ckpt.config.context
    if len(prompt_ids) > n:
        raise SamplingError(
            f"prompt of {len(prompt_ids)} tokens exceeds the context window {n}"
        )
    rng = np.random.default_rng(sp.rng_seed)
    kv = M.kv_cache(ckpt)
    context = list(prompt_ids)
    generated: list[int] = []
    stop_reason = STOP_MAX
    for step in range(sp.max_new_tokens):
        logits = M.forward(ckpt, context[-n:], kv)[-1]
        if sp.temperature == 0.0:
            scores = apply_repetition_penalty(logits, context, sp.repetition_penalty)
            if step == 0 and sp.block_first_ecc is not None:
                scores[sp.block_first_ecc] = -np.inf
            nxt = int(np.argmax(scores))
        else:
            probs = adjust_distribution(logits, context, sp)
            nxt = int(rng.choice(len(probs), p=probs))
        context.append(nxt)
        generated.append(nxt)
        if nxt in stop_ids:
            stop_reason = STOP_ECC
            break
    return GenerationResult(tuple(generated), stop_reason)
