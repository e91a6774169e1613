"""Decoder-only transformer with tied embeddings, in plain numpy.

Architecture: token embedding scaled by sqrt(d) plus sinusoidal positional
encodings, pre-norm blocks (self-attention then CTRL's ReLU feed-forward
FF(X) = max(0, XU)V, both with residual connections), a final layer norm,
and an output projection tied to the token embedding.  Attention logits are
scaled by 1/sqrt(d/H).  The backward passes the feed-forward gradient where
``act > 0``, so at exactly 0 it takes the ReLU's left derivative, 0.

Forward and backward passes are written out explicitly; the backward pass is
validated against central finite differences in the test suite.
``_forward_batch`` runs the blocks and returns the residual stream of the
last n columns of every row; when n is less than the row's length, the
last block runs its query, attention and feed-forward on those columns
alone (``forward``, ``sequence_logprob``, cached decoding).  ``_head``, the
one output layer, turns residual rows into logits, or into target scores
through the one ``log_softmax`` and, for ``batch_loss``, gradients; it
reads the tied projection as ``tok_emb.T``.  Past the logits, which are
one array, it works on ``HEAD_BLOCK`` float64 elements of rows at a time,
so that a pass at a large vocabulary holds two float64 blocks (the
log-probabilities and the ``exp`` temporary), not float64 copies of every
row's logits.  When it scores targets, the logits and both blocks come
from a ``HeadWork``, which ``batch_loss`` takes from its caller (a
training run keeps one for all its steps, so a step allocates none of
them) or makes for the one call; logits returned to a caller are always
a new array.  ``batch_loss`` is the one place that knows its targets: it
reads every column, gathers the target positions for the head, and
scatters the head's gradient back to full width for ``_backward_batch``,
which reads the activations each block recorded.  It takes per-position
ids that pack several windows into one row, each attending only within
itself (``trainer._pack`` builds them), so the whole pass, not only the
head, costs about the real tokens, not the padding.  A K/V cache records
its tokens, and a pass reuses the prefix it shares with them.  A decoding step is one column per row, so a pass's fixed numpy cost
counts: the sinusoidal table is computed once per (model_dim, dtype) and
sliced, the causal mask is built only when a pass has later keys (more
than one column), and layer norm and softmax reduce through the ufuncs.
Each weight product (``wq``, ``wk``, ``wv``, ``wo``, ``w1``, ``w2`` and the
tied head) is one 2-D product over every (row, column), because numpy runs
a stacked (rows, t, d) product as one small product per row.  Its bias,
and then the residual, are added in place on the fresh product, and the
attention softmax normalises its fresh scores in place.

``batch_loss`` returns its gradients as the ``flat_views`` of one zeroed
buffer: a new one, or ``out``, a buffer that a training run keeps for all
its steps and that it zeroes first, so that a step allocates no whole-model
gradient buffer.  Each weight-gradient product is written straight into
its view (``_wgrad``), the head's ``tok_emb`` product first, so no
weight-sized product is made and then added.  ``load_checkpoint`` reads
the file's tensors into one buffer as well, and returns its
``flat_views``.

Weights are float32 for training and evaluation and float64 for gradient
checks, and a pass computes in its checkpoint's dtype: float32 weights give
float32 activations, logits, K/V and gradients from the embedding to the
logits and back.  Scalar constants are Python floats, which numpy 2
promotion casts to the array's dtype.  Only ``log_softmax`` (in
``_head``'s block buffers), the scores and the loss value are float64.
``log_softmax`` copies its logits into its float64 output first, so each
of its operations takes operands of one dtype, and ``_head`` divides each
block's loss gradient by the target count in float64 and then copies it
into that block's logits rows, in the checkpoint's dtype, before the
backward pass.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from types import MappingProxyType

import numpy as np

from .fileio import atomic_open, parsing

LN_EPS = 1e-5
INIT_STD = 0.02
# Float64 elements per block of the LM head's log-softmax and loss gradient,
# one row at least.  Swept over 2^12..2^18 on a 2-vCPU Xeon (batch_loss and
# sequence_logprob, medians of 3 to 9 calls): 2^15, a 256 KiB block, was the
# fastest at vocab 312 (batch_loss 5.5 ms against 6.6 ms unblocked, 560
# rows) and took no page faults there or at vocab 20 000, where 2^12 and
# 2^16 and up took them.  Above 2^15 ids a block is one row.
HEAD_BLOCK = 2 ** 15

# The output projection is ``tok_emb.T``, as checkpoint headers record.
ALIASES = {"lm_head": "tok_emb"}


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    layers: int
    heads: int
    model_dim: int
    inner_dim: int
    context: int
    vocab_size: int

    def __post_init__(self):
        for name in ("layers", "heads", "model_dim", "inner_dim", "context", "vocab_size"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be positive")
        if self.model_dim % self.heads != 0:
            raise ModelError(
                f"model_dim {self.model_dim} not divisible by heads {self.heads}"
            )
        if self.context < 2:
            raise ModelError("context must be at least 2")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads


def full_scale_config(vocab_size: int = 256_076) -> ModelConfig:
    """Published preset: 48 layers, 16 heads, d=640, f=4096, n=256.

    The default vocab covers 256000 BPE tokens plus 74 control and 2
    special ids for the bundled 37-category table.
    """
    return ModelConfig(
        layers=48, heads=16, model_dim=640, inner_dim=4096, context=256,
        vocab_size=vocab_size,
    )


def toy_config(vocab_size: int = 50) -> ModelConfig:
    """Small configuration used throughout the tests."""
    return ModelConfig(
        layers=2, heads=2, model_dim=8, inner_dim=16, context=16,
        vocab_size=vocab_size,
    )


@functools.cache
def param_shapes(config: ModelConfig) -> MappingProxyType[str, tuple[int, ...]]:
    """Named trainable tensors, tied embedding listed once.  Built once per
    config and shared, so the mapping is read-only."""
    d, f = config.model_dim, config.inner_dim
    shapes: dict[str, tuple[int, ...]] = {"tok_emb": (config.vocab_size, d)}
    for i in range(config.layers):
        p = f"h{i}."
        shapes[p + "ln1.g"] = (d,)
        shapes[p + "ln1.b"] = (d,)
        for w in ("wq", "wk", "wv", "wo"):
            shapes[p + "attn." + w] = (d, d)
        for b in ("bq", "bk", "bv", "bo"):
            shapes[p + "attn." + b] = (d,)
        shapes[p + "ln2.g"] = (d,)
        shapes[p + "ln2.b"] = (d,)
        shapes[p + "ffn.w1"] = (d, f)
        shapes[p + "ffn.b1"] = (f,)
        shapes[p + "ffn.w2"] = (f, d)
        shapes[p + "ffn.b2"] = (d,)
    shapes["lnf.g"] = (d,)
    shapes["lnf.b"] = (d,)
    return MappingProxyType(shapes)


def param_count(config: ModelConfig) -> int:
    """Exact number of trainable scalars, counting the tied embedding once."""
    return sum(math.prod(s) for s in param_shapes(config).values())


def flat_views(config: ModelConfig, flat: np.ndarray) -> dict[str, np.ndarray]:
    """The trainable tensors as views of ``flat``, a 1-D array of
    ``param_count(config)`` elements: end to end in ``param_shapes`` order,
    the order of the checkpoint file.  When ``flat`` owns its memory, each
    view's ``base`` is ``flat``."""
    views, start = {}, 0
    for name, shape in param_shapes(config).items():
        end = start + math.prod(shape)
        views[name] = flat[start:end].reshape(shape)
        start = end
    return views


@dataclass
class Checkpoint:
    """Config, weights (the ``param_shapes`` tensors) and training position."""

    config: ModelConfig
    weights: dict[str, np.ndarray]
    step: int = 0
    seed: int = 0

    @property
    def dtype(self):
        return self.weights["tok_emb"].dtype


def init_model(config: ModelConfig, seed: int, dtype=np.float32) -> Checkpoint:
    """Deterministic initialization: normal(0, 0.02) matrices, zero biases,
    unit layer-norm gains."""
    rng = np.random.default_rng(seed)
    weights: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".g"):
            weights[name] = np.ones(shape, dtype=dtype)
        elif len(shape) == 1:
            weights[name] = np.zeros(shape, dtype=dtype)
        else:
            weights[name] = rng.normal(0.0, INIT_STD, size=shape).astype(dtype)
    return Checkpoint(config=config, weights=weights, step=0, seed=seed)


_PE_TABLES: dict[tuple[int, np.dtype], np.ndarray] = {}  # (model_dim, dtype) -> table


def positional_encoding(context: int, model_dim: int, dtype=np.float64,
                        start: int = 0) -> np.ndarray:
    """Sinusoidal encodings of positions start..start+context-1, a read-only
    view of one table per (model_dim, dtype).  The table holds the first
    power of two of positions that covers them, and is rebuilt at the next
    power of two when a call reaches past it; each entry is computed as if
    for that position alone."""
    end = start + context
    key = (model_dim, np.dtype(dtype))
    table = _PE_TABLES.get(key)
    if table is None or len(table) < end:
        n = 1 << (end - 1).bit_length()
        pos = np.arange(n, dtype=np.float64)[:, None]
        dim = np.arange(0, model_dim, 2, dtype=np.float64)[None, :]
        angle = pos / np.power(10000.0, dim / model_dim)
        pe = np.zeros((n, model_dim), dtype=np.float64)
        pe[:, 0::2] = np.sin(angle)
        pe[:, 1::2] = np.cos(angle)
        table = _PE_TABLES[key] = pe.astype(dtype)
        table.flags.writeable = False
    return table[start:end]


def softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Probabilities over the last axis, computed in the input's dtype in
    one new array, or in ``out`` (which may be ``x`` itself)."""
    e = np.subtract(x, np.maximum.reduce(x, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def log_softmax(x, out: np.ndarray | None = None,
                tmp: np.ndarray | None = None) -> np.ndarray:
    """Float64 log-probabilities over the last axis: ``x - max`` minus the
    log of its summed exponentials, finite for any finite logits.  They are
    written into a new array, or into ``out``, a float64 array of x's
    shape; the exponentials go into ``tmp``, a float64 array of that shape,
    or into a new one.  ``x`` is copied into ``out`` first, so every step
    after the copy runs in float64 alone."""
    x = np.asarray(x)
    if out is None:
        out = np.empty(x.shape, dtype=np.float64)
    np.copyto(out, x)
    out -= np.maximum.reduce(out, axis=-1, keepdims=True)
    tmp = np.exp(out, out=tmp)
    lse = np.add.reduce(tmp, axis=-1, keepdims=True)
    out -= np.log(lse, out=lse)
    return out


def _layer_norm(x, g, b):
    """g * xhat + b over the last axis, and (xhat, std) for the backward.
    Means are ``np.add.reduce`` over the axis divided by its length, the
    values ``ndarray.mean`` gives without its Python wrapper."""
    n = x.shape[-1]
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    std = np.add.reduce(np.square(xhat), axis=-1, keepdims=True) / n
    std += LN_EPS
    np.sqrt(std, out=std)
    xhat /= std
    y = g * xhat
    y += b
    return y, (xhat, std)


def _layer_norm_backward(dy, g, cache):
    xhat, std = cache
    n = dy.shape[-1]
    axes = tuple(range(dy.ndim - 1))
    dg = np.add.reduce(dy * xhat, axis=axes)
    db = np.add.reduce(dy, axis=axes)
    dx = dy * g  # dxhat, then dx in place
    m1 = np.add.reduce(dx, axis=-1, keepdims=True) / n
    m2 = np.add.reduce(dx * xhat, axis=-1, keepdims=True) / n
    dx -= m1
    dx -= xhat * m2
    dx /= std
    return dx, dg, db


def _linear(x, w, b=None):
    """x @ w (+ b) over the last axis of x, as one 2-D product over every
    leading index, the bias added in place on the fresh product."""
    y = x.reshape(-1, x.shape[-1]) @ w
    if b is not None:
        y += b
    return y.reshape(x.shape[:-1] + y.shape[-1:])


def _split_heads(x, heads):
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * hd)


@dataclass
class KVCache:
    """Per-layer (keys, values), each (rows, heads, columns, head_dim), of
    the token rows ``ids``, shaped (rows, t): row b holds the keys and values
    of ids[b] at positions 0..t-1.  Rows only leave, through ``keep``."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    ids: np.ndarray

    def keep(self, rows) -> None:
        """Keep only the listed row indices, strictly increasing, in place:
        each kept row moves down with a copy of its t held columns, and the
        layers become views of their first len(rows) rows."""
        rows, n = np.asarray(rows, dtype=np.int64), len(self.ids)
        if rows.ndim != 1 or np.any(np.diff(rows, prepend=-1) < 1) or np.any(rows >= n):
            raise ModelError(f"rows to keep must increase within 0..{n - 1}")
        t = self.ids.shape[1]
        for b in np.flatnonzero(rows != np.arange(len(rows))).tolist():  # the rows that move
            for a in (a for pair in self.layers for a in pair):
                a[b, :, :t] = a[rows[b], :, :t]
        self.layers = [(k[:len(rows)], v[:len(rows)]) for k, v in self.layers]
        self.ids = self.ids[rows]


def kv_cache(ckpt: Checkpoint, rows: int = 1, columns: int | None = None) -> KVCache:
    """Empty K/V cache of ``rows`` sequences (0 or more) for ``ckpt``,
    allocated once: per layer a (keys, values) pair, each (rows, heads,
    columns, head_dim) in the checkpoint's dtype, holding no tokens yet.
    ``columns``, the longest sequence a pass may give it, is 1..context, and
    None means the context."""
    cfg = ckpt.config
    if rows < 0:
        raise ModelError(f"a K/V cache takes 0 or more rows, got {rows}")
    columns = cfg.context if columns is None else columns
    if not 1 <= columns <= cfg.context:
        raise ModelError(f"a K/V cache takes 1..{cfg.context} columns (the context), "
                         f"got {columns}")
    shape = (rows, cfg.heads, columns, cfg.head_dim)
    return KVCache([(np.empty(shape, ckpt.dtype), np.empty(shape, ckpt.dtype))
                    for _ in range(cfg.layers)], np.empty((rows, 0), np.int64))


def _forward_batch(ckpt: Checkpoint, ids: np.ndarray, rows: int, kv=None,
                   positions=None, records=None) -> np.ndarray:
    """The residual stream of the last ``rows`` columns of every row of a
    (batch, time) id array, shaped (batch, rows, model_dim), for ``_head``.

    When ``rows`` is less than the time axis, the last block computes keys
    and values for every column, but the query, attention, ``wo`` and the
    feed-forward only for the last ``rows`` columns.

    A K/V cache ``kv`` takes as many id rows as it holds, each the whole
    sequence of its row.  The rows advance in lockstep: the pass reuses the
    keys and values of the shortest prefix any row of ``kv.ids`` shares with
    its id row, up to time - rows tokens so that every column read is
    computed, runs the rest, and leaves ``kv.ids`` the id rows.

    ``positions``, a (batch, time) array like ``ids``, lays several windows
    end to end in one row: a window starts where ``positions`` is 0 and
    counts up from there.  Each column takes its positional encoding from
    ``positions``, and attends only to earlier columns of its own window.

    ``records``, a list, receives one dict per block of the activations
    that ``_backward_batch`` reads.  A recording pass reads every column
    (``rows`` is the time axis), so each record covers the whole block.
    """
    cfg, W = ckpt.config, ckpt.weights
    t = ids.shape[1]
    if not 1 <= t <= cfg.context:
        raise ModelError(f"sequence length {t} outside the context window 1..{cfg.context}")
    start = 0
    if kv is not None:
        if ids.shape[0] != len(kv.ids):
            raise ModelError(f"{ids.shape[0]} id rows for a K/V cache of {len(kv.ids)} rows")
        if t > kv.layers[0][0].shape[2]:
            raise ModelError(f"{t} ids for a K/V cache of {kv.layers[0][0].shape[2]} columns")
        held = kv.ids[:, :t - rows]
        differ = np.flatnonzero((held != ids[:, :held.shape[1]]).any(axis=0))
        start = int(differ[0]) if differ.size else held.shape[1]
        kv.ids = kv.ids[:, :start]  # a pass that raises leaves a valid cache
        seq, ids = ids.copy(), ids[:, start:]
        t = ids.shape[1]
    # Reused columns were checked when they were computed.
    if (ids < 0).any() or (ids >= cfg.vocab_size).any():
        raise ModelError("token id outside the vocabulary range")
    pe = positional_encoding(t, cfg.model_dim, dtype=ckpt.dtype, start=start)
    hidden = None  # a one-column pass has no later key and no other window
    if t > 1:
        hidden = np.triu(np.ones((t, start + t), dtype=bool), k=start + 1)  # later keys
        if positions is not None:
            window = np.cumsum(positions == 0, axis=1)
            hidden = (hidden | (window[:, :, None] != window[:, None, :]))[:, None]
    if positions is not None:
        pe = pe[positions]
    x = math.sqrt(cfg.model_dim) * W["tok_emb"][ids] + pe

    att_scale = 1.0 / math.sqrt(cfg.head_dim)
    for i in range(cfg.layers):
        p = f"h{i}."
        h, ln1_cache = _layer_norm(x, W[p + "ln1.g"], W[p + "ln1.b"])
        k = _split_heads(_linear(h, W[p + "attn.wk"], W[p + "attn.bk"]), cfg.heads)
        v = _split_heads(_linear(h, W[p + "attn.wv"], W[p + "attn.bv"]), cfg.heads)
        if rows < t and i == cfg.layers - 1:
            # Keys and values cover every column; the rest only the read ones.
            x, h = x[:, -rows:], h[:, -rows:]
            if hidden is not None:
                hidden = hidden[..., -rows:, :]
        q = _split_heads(_linear(h, W[p + "attn.wq"], W[p + "attn.bq"]), cfg.heads)
        if kv is not None:
            k_all, v_all = kv.layers[i]
            k_all[:, :, start:start + t] = k
            v_all[:, :, start:start + t] = v
            k, v = k_all[:, :, :start + t], v_all[:, :, :start + t]
        scores = q @ k.swapaxes(-1, -2)
        scores *= att_scale
        if hidden is not None:
            np.copyto(scores, -np.inf, where=hidden)
        attn = softmax(scores, out=scores)
        ctx = _merge_heads(attn @ v)
        x_attn = _linear(ctx, W[p + "attn.wo"], W[p + "attn.bo"])
        x_attn += x  # residual

        h2, ln2_cache = _layer_norm(x_attn, W[p + "ln2.g"], W[p + "ln2.b"])
        act = _linear(h2, W[p + "ffn.w1"], W[p + "ffn.b1"])
        np.maximum(act, 0.0, out=act)
        x = _linear(act, W[p + "ffn.w2"], W[p + "ffn.b2"])
        x += x_attn  # residual

        if records is not None:
            records.append(dict(h=h, ln1=ln1_cache, q=q, k=k, v=v, attn=attn, ctx=ctx,
                                h2=h2, ln2=ln2_cache, act=act))
    if kv is not None:
        kv.ids = seq
    return x


class HeadWork:
    """The working buffers of ``_head`` when it scores targets: the logits
    rows, in the checkpoint's dtype, and two float64 blocks, the
    log-probabilities and ``log_softmax``'s ``exp`` temporary.  Each buffer
    grows to the largest request it has served and is reused after, so a
    caller that keeps one across calls, as a training run does, allocates
    them once rather than at every step.  ``_head`` returns nothing that
    lives in it."""

    def __init__(self):
        self._logits = np.empty(0, dtype=np.float32)
        self._blocks = np.empty(0, dtype=np.float64)

    def logits(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised array of ``shape`` and ``dtype``, contiguous."""
        size = math.prod(shape)
        if self._logits.size < size or self._logits.dtype != dtype:
            self._logits = None  # the old buffer goes before the new one comes
            self._logits = np.empty(size, dtype=dtype)
        return self._logits[:size].reshape(shape)

    def blocks(self, rows: int, columns: int) -> tuple[np.ndarray, np.ndarray]:
        """Two uninitialised, contiguous float64 arrays of (rows, columns)."""
        size = rows * columns
        if self._blocks.size < 2 * size:
            self._blocks = None
            self._blocks = np.empty(2 * size, dtype=np.float64)
        return (self._blocks[:size].reshape(rows, columns),
                self._blocks[size:2 * size].reshape(rows, columns))


def _head(ckpt: Checkpoint, x: np.ndarray, targets=None, grads=None,
          work: HeadWork | None = None):
    """The final layer norm and the product with ``tok_emb.T`` on residual
    rows ``x``: the logits, or with ``targets`` (one id per row) each row's
    float64 log-probability of its target.  Given ``grads`` as well, it
    writes the head's gradients of the rows' mean negative log-probability
    into ``grads`` and returns (log-probabilities, the gradient of ``x``).

    Logits it returns are a new array.  With targets, the logits are one
    array of ``work``, a ``HeadWork`` (a new one when None), and
    ``log_softmax``, the target gather and the loss gradient run on
    ``HEAD_BLOCK`` float64 elements of rows at a time (one row at least),
    in ``work``'s two blocks; each block's gradient replaces its logits
    rows.  ``grads`` must be zeroed: the ``tok_emb`` gradient is written,
    not added, so the head writes it before the embedding's scatter in
    ``_backward_batch`` adds to it, and ``lnf.g`` and ``lnf.b`` are
    added."""
    W = ckpt.weights
    hf, lnf_cache = _layer_norm(x, W["lnf.g"], W["lnf.b"])
    if targets is None:
        return _linear(hf, W["tok_emb"].T)
    work = HeadWork() if work is None else work
    vocab = W["tok_emb"].shape[0]
    logits = work.logits(x.shape[:-1] + (vocab,), ckpt.dtype)
    rows = logits.reshape(-1, vocab)  # a view: a block writes its rows
    np.matmul(hf.reshape(len(rows), -1), W["tok_emb"].T, out=rows)
    ids = targets.reshape(-1)
    step = max(1, HEAD_BLOCK // vocab)
    block, tmp = work.blocks(min(step, len(ids)), vocab)
    logp = np.empty(len(ids), dtype=np.float64)
    for start in range(0, len(ids), step):
        part = slice(start, start + step)
        n = len(ids[part])
        logz = log_softmax(rows[part], out=block[:n], tmp=tmp[:n])
        at = (np.arange(n), ids[part])
        logp[part] = logz[at]
        if grads is not None:  # the loss gradient, in place of the block's logits
            np.exp(logz, out=logz)
            logz[at] -= 1.0
            logz /= ids.size
            np.copyto(rows[part], logz, casting="same_kind")
    logp = logp.reshape(targets.shape)
    if grads is None:
        return logp
    _wgrad(logits, hf, out=grads["tok_emb"])
    dx, dg, db = _layer_norm_backward(_linear(logits, W["tok_emb"]), W["lnf.g"], lnf_cache)
    grads["lnf.g"] += dg
    grads["lnf.b"] += db
    return logp, dx


def _wgrad(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Write the weight gradient sum_rows a[row]^T b[row] over every leading
    axis into ``out``, a view of a zeroed gradient buffer, as one BLAS
    matmul, and add 0.0 in place: a product of exactly -0.0 then stores
    +0.0, the bits that adding the product to the zeroed buffer gives."""
    np.matmul(a.reshape(-1, a.shape[-1]).T, b.reshape(-1, b.shape[-1]), out=out)
    out += 0.0


def _scatter_add(out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """out[ids[i]] += rows[i] for every i, repeated ids included.

    A stable sort groups equal ids; each group's rows are summed in the
    rows' dtype and added to ``out`` once.
    """
    ids = ids.reshape(-1)
    rows = rows.reshape(len(ids), -1)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    out[sorted_ids[starts]] += np.add.reduceat(rows[order], starts, axis=0)


def _backward_batch(ckpt: Checkpoint, ids: np.ndarray, records: list[dict],
                    dx: np.ndarray, grads: dict[str, np.ndarray]) -> None:
    """Fill ``grads`` with the blocks' and the embedding's gradients, given
    the ``records`` of a pass over ``ids`` and the gradient ``dx`` of its
    residual stream at every column.  Each block's weight gradients are
    written into their zeroed views (``_wgrad``), its biases' and layer
    norms' added; the embedding's scatter comes last and adds to the
    ``tok_emb`` gradient that ``_head`` wrote before.  ``dx`` is overwritten
    with each block's input gradient in turn, so a caller's array is the
    only one of its size the backward keeps."""
    cfg, W = ckpt.config, ckpt.weights
    att_scale = 1.0 / math.sqrt(cfg.head_dim)

    for i in reversed(range(cfg.layers)):
        p = f"h{i}."
        c = records[i]

        # Feed-forward residual branch.
        dff = dx
        _wgrad(c["act"], dff, out=grads[p + "ffn.w2"])
        grads[p + "ffn.b2"] += dff.sum(axis=(0, 1))
        dact = dff @ W[p + "ffn.w2"].T
        dz1 = dact * (c["act"] > 0)
        _wgrad(c["h2"], dz1, out=grads[p + "ffn.w1"])
        grads[p + "ffn.b1"] += dz1.sum(axis=(0, 1))
        dh2 = dz1 @ W[p + "ffn.w1"].T
        dx_attn, dg, db = _layer_norm_backward(dh2, W[p + "ln2.g"], c["ln2"])
        grads[p + "ln2.g"] += dg
        grads[p + "ln2.b"] += db
        dx_attn = dx_attn + dx  # residual

        # Attention residual branch.
        da_out = dx_attn
        _wgrad(c["ctx"], da_out, out=grads[p + "attn.wo"])
        grads[p + "attn.bo"] += da_out.sum(axis=(0, 1))
        dctx = _split_heads(da_out @ W[p + "attn.wo"].T, cfg.heads)
        dattn = dctx @ c["v"].swapaxes(-1, -2)
        dv = c["attn"].swapaxes(-1, -2) @ dctx
        # Softmax backward; masked columns have attn=0 so their grad is 0.
        dattn -= (dattn * c["attn"]).sum(axis=-1, keepdims=True)
        dscores = np.multiply(c["attn"], dattn, out=dattn)
        dq = (dscores @ c["k"]) * att_scale
        dk = (dscores.swapaxes(-1, -2) @ c["q"]) * att_scale

        dh = np.zeros_like(c["h"])
        for name, dproj in (("wq", dq), ("wk", dk), ("wv", dv)):
            dproj = _merge_heads(dproj)
            _wgrad(c["h"], dproj, out=grads[p + "attn." + name])
            grads[p + "attn.b" + name[1]] += dproj.sum(axis=(0, 1))
            dh += dproj @ W[p + "attn." + name].T
        dx_ln1, dg, db = _layer_norm_backward(dh, W[p + "ln1.g"], c["ln1"])
        grads[p + "ln1.g"] += dg
        grads[p + "ln1.b"] += db
        np.add(dx_attn, dx_ln1, out=dx)

    # Embedding lookup: x0 = sqrt(d) * E[ids] + PE.
    _scatter_add(grads["tok_emb"], ids, math.sqrt(cfg.model_dim) * dx)


def forward(ckpt: Checkpoint, ids, kv=None) -> np.ndarray:
    """Logits for one sequence, shape (len(ids), vocab_size), from ``_head``.

    Without a cache it is pure and read-only: repeated calls on the same
    checkpoint agree bitwise.  Row i depends only on ids[0..i].

    With a K/V cache, ``ids`` is one sequence or a (rows, time) stack of as
    many sequences as the cache holds rows, and only each sequence's last
    logits are returned, shape (rows, vocab_size).  The pass reuses the keys
    and values of the prefix the cache shares with the sequences and leaves
    the cache holding them (see ``_forward_batch``).
    """
    arr = np.asarray(ids, dtype=np.int64)
    if arr.size == 0:
        raise ModelError("forward expects at least one token")
    if kv is None:
        if arr.ndim != 1:
            raise ModelError("forward expects a flat id sequence")
        return _head(ckpt, _forward_batch(ckpt, arr[None, :], len(arr)))[0]
    if arr.ndim not in (1, 2):
        raise ModelError("forward expects one sequence or a (rows, time) stack")
    return _head(ckpt, _forward_batch(ckpt, np.atleast_2d(arr), 1, kv=kv))[:, -1]


def sequence_logprob(ckpt: Checkpoint, ids, start: int = 1, kv=None) -> float:
    """Sum of log p(ids[j] | ids[:j]) over positions j >= start.

    ``ids`` is one sequence, or a (batch, time) array of sequences whose
    sums are added.  One pass over ids[..., :-1] reads the columns from
    start-1 on, which ``_head`` scores, and its last block computes only
    those (see ``_forward_batch``).  A K/V cache takes as many sequences as
    it holds rows: the pass reuses the keys and values of the prefix the
    cache shares with ids[..., :-1], up to start-1 tokens, and leaves it
    holding ids[..., :-1], so sequences scored in turn share their prefixes.
    """
    arr = np.asarray(ids, dtype=np.int64)
    n = arr.shape[-1]
    if not 1 <= start < n:
        raise ModelError(f"start must be in [1, {n - 1}], got {start}")
    arr = arr.reshape(-1, n)
    # The pass reads ids[..., :-1] and checks them; the last ids are only targets.
    if (arr[:, -1] < 0).any() or (arr[:, -1] >= ckpt.config.vocab_size).any():
        raise ModelError("token id outside the vocabulary range")
    x = _forward_batch(ckpt, arr[:, :-1], n - start, kv=kv)
    return float(_head(ckpt, x, arr[:, start:]).sum())


def batch_loss(
    ckpt: Checkpoint,
    ids: np.ndarray,
    mask: np.ndarray,
    compute_grads: bool = True,
    positions: np.ndarray | None = None,
    out: np.ndarray | None = None,
    work: HeadWork | None = None,
):
    """Mean next-token NLL over unmasked target positions, which ``_head``
    scores and, with ``compute_grads``, differentiates.

    ``ids`` and ``mask`` are (batch, time), or both one row, and any other
    mask shape raises ModelError; position i+1 is a prediction target iff
    mask[i+1] is set.  ``positions``, shaped like ``ids``, packs
    several windows into a row (see ``_forward_batch``); a window's first
    column must then be unmasked, so that no target is predicted across a
    window boundary.  Returns (loss, grads) with grads=None when
    ``compute_grads`` is false.

    The gradients are the ``flat_views`` of a new zeroed buffer, or of
    ``out``, a 1-D array of ``param_count`` elements in the checkpoint's
    dtype, such as a buffer kept across steps, which is zeroed first:
    nothing of an earlier call carries over.  ``work``, a ``HeadWork``
    kept across calls, holds the head's logits and float64 blocks; without
    one the head makes its own, which it frees before the backward pass.
    Either way the loss and gradients are the same.
    """
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if ids.ndim == 1:
        ids, mask = ids[None, :], mask[None, :]
    if mask.shape != ids.shape:
        raise ModelError(f"mask of shape {mask.shape} for ids of shape {ids.shape}")
    size = param_count(ckpt.config)
    if out is not None and (getattr(out, "shape", None), getattr(out, "dtype", None)) != (
            (size,), ckpt.dtype):
        raise ModelError(f"out must be a 1-D array of {size} elements in the "
                         "checkpoint's dtype")
    target_mask = mask[:, 1:]
    n_targets = int(target_mask.sum())
    if n_targets == 0:
        raise ModelError("no unmasked target positions in the batch")
    if positions is not None:
        positions = np.asarray(positions, dtype=np.int64)
        if (positions.size != ids.size or np.any(positions < 0)
                or np.any(positions >= ids.shape[1])):
            raise ModelError("positions must match the ids and lie in 0..time-1")
        positions = positions.reshape(ids.shape)
        if np.any(target_mask & (positions[:, 1:] == 0)):
            raise ModelError("a window's first column cannot be a target")

    read = np.nonzero(target_mask)
    records = [] if compute_grads else None
    # The full-width residual is freed as soon as its target rows are read.
    x = _forward_batch(ckpt, ids, ids.shape[1], positions=positions, records=records)[read]
    targets = ids[read[0], read[1] + 1]
    if not compute_grads:
        return -float(_head(ckpt, x, targets, work=work).mean()), None
    if out is None:
        out = np.zeros(size, dtype=ckpt.dtype)
    else:
        out.fill(0)
    grads = flat_views(ckpt.config, out)
    logp, dx_read = _head(ckpt, x, targets, grads, work)
    # Columns that are no target get no gradient from the head.
    dx = np.zeros(ids.shape + (ckpt.config.model_dim,), dtype=dx_read.dtype)
    dx[read] = dx_read
    _backward_batch(ckpt, ids, records, dx, grads)
    return -float(logp.mean()), grads


CKPT_MAGIC = "ctrlkit-ckpt-2"


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Versioned binary format: JSON header, then little-endian float32
    tensors in manifest order, written one by one.  Aliased tensors are
    stored once.  A tensor of another dtype or shape than the format and
    the config give raises ModelError before the file is opened.  The write
    is atomic (``fileio.atomic_open``)."""
    shapes = param_shapes(ckpt.config)
    for n, shape in shapes.items():
        w = ckpt.weights[n]
        if w.dtype != np.float32:
            raise ModelError(f"checkpoint format stores float32 tensors; {n} has dtype {w.dtype}")
        if w.shape != shape:
            raise ModelError(f"{n} has shape {w.shape}, and its config gives {shape}")
    header = {
        "config": asdict(ckpt.config),
        "step": ckpt.step,
        "seed": ckpt.seed,
        "tensors": [[n, list(s)] for n, s in shapes.items()],
        "aliases": ALIASES,
    }
    with atomic_open(path, "wb") as fh:
        fh.write((CKPT_MAGIC + "\n").encode("ascii"))
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for n in shapes:
            fh.write(np.ascontiguousarray(ckpt.weights[n], dtype="<f4"))


def load_checkpoint(path) -> Checkpoint:
    """Read a ``save_checkpoint`` file; malformed input raises ModelError.
    Its tensors are read with one ``readinto`` into one buffer, and the
    weights are that buffer's ``flat_views``."""
    with open(path, "rb") as fh, parsing(path, ModelError, "checkpoint"):
        return _parse_checkpoint(fh)


def _parse_checkpoint(fh) -> Checkpoint:
    magic = fh.readline().decode("ascii").strip()
    if magic == "ctrlkit-ckpt-1":
        raise ModelError("a ctrlkit-ckpt-1 checkpoint was trained for a GELU "
                         "feed-forward, and the model now uses ReLU; retrain it")
    if magic != CKPT_MAGIC:
        raise ModelError(f"unsupported checkpoint format {magic!r}")
    header = json.loads(fh.readline().decode("utf-8"))
    config = ModelConfig(**header["config"])
    step, seed = header["step"], header["seed"]
    if any(type(n) is not int for n in (step, seed, *asdict(config).values())):
        raise ModelError("checkpoint header numbers must be integers")
    if header["tensors"] != [[n, list(s)] for n, s in param_shapes(config).items()]:
        raise ModelError("checkpoint tensor list does not match its config")
    flat = np.empty(param_count(config), dtype="<f4")
    if fh.readinto(flat) != flat.nbytes:
        raise ModelError(f"checkpoint truncated: its tensors take {flat.nbytes} bytes")
    if fh.read(1):
        raise ModelError("checkpoint has trailing bytes after its tensors")
    return Checkpoint(config=config, weights=flat_views(config, flat), step=step, seed=seed)
