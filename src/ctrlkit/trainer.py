"""Language-model training on OCC + text + ECC sequences.

Documents are framed with their category's opening and ending control codes
and chunked into fixed windows that never cross document boundaries.  The
optimizer is AdamW with decoupled weight decay and global-norm gradient
clipping at the published settings (the module constants below); a run
varies only in its ``TrainingConfig``.  Given a seed, training is fully
deterministic.

``train`` updates its checkpoint in place and hands each finished epoch to
an ``on_epoch`` callback, so memory does not grow with the number of
epochs and a caller can save every epoch as it ends.  At its start it
rebinds the checkpoint's trainable arrays to views of one flat buffer
(``model.flat_views``), so a caller reads ``ckpt.weights`` after ``train``,
not before: an array taken from it earlier is not the one trained.  Next
to it, the run allocates one flat gradient buffer, which every step's
``batch_loss(..., out=)`` zeroes, fills and returns as views, and ``AdamW``
holds ``m`` and ``v`` flat and updates the whole model in a few array
operations per block of ``ADAM_BLOCK`` elements.  The run also keeps one
``model.HeadWork``, which holds the LM head's logits rows and float64
blocks from step to step and goes when ``train`` returns.  A run therefore
holds four float32 copies of the model (the weights, the gradients, ``m``
and ``v``), plus the head workspace, plus one float64 scratch of the
largest tensor while the clip norm sums the squares, and one batch's
activations while a step computes.

Each step packs its own windows into shared rows (``_pack``): a row holds
several short windows end to end, each with its own positions and
attention.  The step's targets, their count and the shuffle are the ones
of one row per window, so packing changes only the order in which the loss
and gradients are summed, while a step computes about its real tokens
instead of its padding.  ``mean_epoch_loss`` packs its batches the same
way.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import model as M
from .corpus import Document
from .tokenizer import Vocab, encode

# Prime seed used for reproducible fine-tuning runs.
DEFAULT_SEED = 87_178_291_199
# Published AdamW settings: moment decay rates, denominator epsilon,
# decoupled weight decay, and the global gradient-norm clip.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01
GRAD_CLIP_NORM = 1.0
# Windows per forward pass of mean_epoch_loss; only the summation order
# depends on it.
EVAL_BATCH_SIZE = 16
# Elements per block of the AdamW update.  Its two float32 scratch blocks of
# 256 KiB stay in L2, so a block's dozen passes do not stream the model
# through memory: at 836 k parameters on a 2-vCPU Xeon (medians of five
# runs), one unblocked pass per operation over the flat buffer took 7.7 ms a
# step, the per-tensor update 6.7 ms and this blocked one 4.8 ms.
ADAM_BLOCK = 2 ** 16


class TrainingError(RuntimeError):
    pass


class TrainingDiverged(TrainingError):
    """A step's loss, or with a finite loss its gradient norm ``norm``, is
    not finite."""

    def __init__(self, step: int, loss: float, norm: float | None = None):
        what = f"loss {loss}" if norm is None else f"gradient norm {norm} (loss {loss})"
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step
        self.loss = loss
        self.norm = norm


@dataclass(frozen=True)
class TrainingConfig:
    batch_size: int = 4
    lr: float = 5e-5
    epochs: int = 1
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if value < 1:
                raise TrainingError(f"{name} must be at least 1, got {value}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise TrainingError(f"lr must be finite and positive, got {self.lr}")
        if self.seed < 0:
            raise TrainingError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class Window:
    """One fixed-length training window; pad positions carry mask=False."""

    ids: np.ndarray
    mask: np.ndarray

    @property
    def real_length(self) -> int:
        return int(self.mask.sum())


def pack_sequence(doc: Document, v: Vocab, n: int) -> list[Window]:
    """OCC + encode(text) + ECC, chunked into windows of length <= n.

    The last window is padded with pad_id; padded positions are excluded
    from the loss.  Windows never cross document boundaries.
    """
    if doc.category.name not in v.control_ids:
        raise TrainingError(
            f"category {doc.category.name!r} has no control codes in the vocab"
        )
    occ, ecc = v.control_ids[doc.category.name]
    seq = [occ] + encode(v, doc.text) + [ecc]
    return pack_ids(seq, v, n)


def pack_ids(seq: list[int], v: Vocab, n: int) -> list[Window]:
    """Chunk an id sequence into padded windows of length n."""
    if v.pad_id is None:
        raise TrainingError("vocabulary has no pad token")
    windows = []
    for start in range(0, len(seq), n):
        chunk = seq[start:start + n]
        ids = np.full(n, v.pad_id, dtype=np.int64)
        mask = np.zeros(n, dtype=bool)
        ids[: len(chunk)] = chunk
        mask[: len(chunk)] = True
        windows.append(Window(ids=ids, mask=mask))
    return windows


def lm_loss(ckpt: M.Checkpoint, window: Window) -> float:
    """Mean negative log-likelihood of next tokens over unmasked positions."""
    loss, _ = M.batch_loss(ckpt, window.ids, window.mask, compute_grads=False)
    return loss


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so the global norm is <= max_norm, and
    return the norm before clipping.

    Each tensor's squares are summed in float64 and the sums are added in
    tensor order.  Consecutive tensors are copied into one float64 scratch,
    the size of the largest tensor plus one, each after a 0.0, as many as
    fit; the group is squared in place and one ``np.add.reduceat`` sums
    every tensor from its 0.0 on.  A segment's sum is its first element
    plus the pairwise sum of the rest, so 0.0 plus the tensor's pairwise
    sum: the bits of the tensor's own ``.sum()``.  The scratch goes before
    the gradients are scaled."""
    total = np.sqrt(_sum_of_squares(list(grads.values())))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def _sum_of_squares(tensors: list[np.ndarray]) -> float:
    """The float64 sum of squares of ``clip_global_norm``."""
    scratch = np.empty(1 + max((g.size for g in tensors), default=0))
    total, i = 0.0, 0
    while i < len(tensors):  # one group of consecutive tensors
        starts, end = [], 0
        while i < len(tensors) and end + 1 + tensors[i].size <= scratch.size:
            g = tensors[i]
            starts.append(end)
            scratch[end] = 0.0
            end += 1 + g.size
            scratch[end - g.size:end] = g.ravel()
            i += 1
        squares = np.square(scratch[:end], out=scratch[:end])
        for s in np.add.reduceat(squares, starts).tolist():
            total += s
    return total


class AdamW:
    """AdamW with decoupled weight decay, matching the usual formulation:
    p *= (1 - lr*wd); p -= lr * mhat / (sqrt(vhat) + eps).

    It updates one flat parameter buffer from one flat gradient buffer in
    place, ``ADAM_BLOCK`` elements at a time through two block-sized scratch
    arrays, and holds ``m`` and ``v`` flat.  Each element goes through the
    operations of the per-tensor formula in their order, so its bits do not
    depend on the blocking."""

    def __init__(self, params: np.ndarray, tc: TrainingConfig):
        self.lr = tc.lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = np.empty((2, min(params.size, ADAM_BLOCK)), dtype=params.dtype)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        lr = self.lr
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for start in range(0, params.size, ADAM_BLOCK):
            block = slice(start, start + ADAM_BLOCK)
            p, g, m, v = params[block], grads[block], self.m[block], self.v[block]
            a, b = self._scratch[:, :len(p)]
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=a)
            a *= g
            v += a
            p *= 1.0 - lr * WEIGHT_DECAY
            np.divide(v, bc2, out=a)  # a = sqrt(v/bc2) + eps
            np.sqrt(a, out=a)
            a += ADAM_EPS
            np.divide(m, bc1, out=b)  # b = lr*(m/bc1) / a
            b *= lr
            b /= a
            p -= b


def _pack(batch: list[Window]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (row, time) ids, mask and positions of a step's windows, packed
    into shared rows by first-fit decreasing.

    Each window contributes its prefix up to its last set mask column
    (masked columns before it are kept) and lies whole in one row, with
    positions counting from 0, so an OCC...ECC frame is never split.  No row
    is wider than the windows' length n, and rows are cut after their
    longest fill.  A window's first column is unmasked in its row, so
    ``batch_loss``, which predicts column i+1 from column i, never reads
    across a window boundary.  A row's tail after its last window is filler
    (id 0, mask unset, that window's positions continued) which no real
    column attends to.

    The targets and their count are those of the windows stacked one per
    row, so ``batch_loss`` gives the same loss and gradients, summed in a
    different order.
    """
    n = max(len(w.ids) for w in batch)
    lengths = []
    for w in batch:
        used = np.flatnonzero(w.mask)
        lengths.append(int(used[-1]) + 1 if used.size else 0)
    rows: list[list[int]] = []
    room: list[int] = []
    for i in sorted(range(len(batch)), key=lambda i: -lengths[i]):
        if lengths[i] == 0:
            break
        r = next((r for r, free in enumerate(room) if free >= lengths[i]), len(rows))
        if r == len(rows):
            rows.append([])
            room.append(n)
        rows[r].append(i)
        room[r] -= lengths[i]

    width = n - min(room, default=n)
    ids = np.zeros((len(rows), width), dtype=np.int64)
    mask = np.zeros((len(rows), width), dtype=bool)
    positions = np.zeros((len(rows), width), dtype=np.int64)
    for r, members in enumerate(rows):
        col = 0
        for i in members:
            end = col + lengths[i]
            ids[r, col:end] = batch[i].ids[:lengths[i]]
            mask[r, col + 1:end] = batch[i].mask[1:lengths[i]]
            positions[r, col:] = np.arange(width - col)  # the next window overwrites
            col = end
    return ids, mask, positions


def windows_from_docs(docs: list[Document], v: Vocab, n: int) -> list[Window]:
    windows: list[Window] = []
    for doc in docs:
        windows.extend(pack_sequence(doc, v, n))
    return windows


def train(
    ckpt: M.Checkpoint,
    docs: list[Document],
    v: Vocab,
    tc: TrainingConfig,
    windows: list[Window] | None = None,
    on_epoch: Callable[[int, M.Checkpoint], None] | None = None,
) -> None:
    """Train ``ckpt`` in place, calling ``on_epoch(epoch, ckpt)`` after epochs 1, 2, ...

    Deterministic given tc.seed: the only randomness is the per-epoch
    shuffle.  A batch with no target, such as the one-token tail window that
    ``pack_ids`` makes when a sequence is one longer than a multiple of the
    context, is skipped: it makes no update and counts as no step.
    A non-finite loss, or gradient norm, aborts with the offending step
    before its update.  The trainable arrays of ``ckpt.weights`` are rebound
    to views of one flat buffer before the first step.
    """
    if windows is None:
        if not docs:
            raise TrainingError("no documents to train on")
        windows = windows_from_docs(docs, v, ckpt.config.context)
    if not windows:
        raise TrainingError("no training windows")

    # Copy each tensor into its view of the flat buffer and rebind it there,
    # so no old tensor outlives its copy.
    flat = np.empty(M.param_count(ckpt.config), dtype=ckpt.dtype)
    for name, view in M.flat_views(ckpt.config, flat).items():
        view[...] = ckpt.weights[name]
        ckpt.weights[name] = view
    grad_flat = np.empty_like(flat)
    work = M.HeadWork()
    opt = AdamW(flat, tc)
    rng = np.random.default_rng(tc.seed)
    for epoch in range(1, tc.epochs + 1):
        order = rng.permutation(len(windows))
        for start in range(0, len(order), tc.batch_size):
            batch = [windows[i] for i in order[start:start + tc.batch_size]]
            ids, mask, positions = _pack(batch)
            if not mask[:, 1:].any():
                continue
            loss, grads = M.batch_loss(ckpt, ids, mask, positions=positions, out=grad_flat,
                                       work=work)
            if not np.isfinite(loss):
                raise TrainingDiverged(ckpt.step, loss)
            norm = clip_global_norm(grads, GRAD_CLIP_NORM)
            if not np.isfinite(norm):  # before the update writes it into the weights
                raise TrainingDiverged(ckpt.step, loss, norm)
            opt.step(flat, grad_flat)
            ckpt.step += 1
        if on_epoch is not None:
            on_epoch(epoch, ckpt)


def mean_epoch_loss(ckpt: M.Checkpoint, windows: list[Window]) -> float:
    """Dataset mean NLL, weighting every target position equally.  Windows
    with no target add nothing; if no window has one, it raises
    TrainingError."""
    total, count = 0.0, 0
    for start in range(0, len(windows), EVAL_BATCH_SIZE):
        ids, mask, positions = _pack(windows[start:start + EVAL_BATCH_SIZE])
        n_targets = int(mask[:, 1:].sum())
        if n_targets == 0:
            continue
        loss, _ = M.batch_loss(ckpt, ids, mask, compute_grads=False, positions=positions)
        total += loss * n_targets
        count += n_targets
    if count == 0:
        raise TrainingError("no window has a target position")
    return total / count
