"""Spans around the ctrlkit layer boundaries, recorded from outside the package.

A traced verb call opens one root span (layer ``cli``).  While tracing is
installed, every function named in ``WRAPS`` is replaced by a wrapper on the
attribute its caller looks up at call time, so the program itself is not
edited.  Modules that bind a function by name at import need their own
binding replaced: ``evaluation`` imports ``generate`` and ``overlap``,
``tasks`` imports ``greedy_answer``, and four modules import ``encode``.

Spans stay in memory and are written out when the run ends.  Each span is a
list ``[name, start_ns, end_ns, parent, call_id, counts]``; ``parent`` is
the index of the enclosing span or -1 for a root.  The benchmark runs every
verb on one thread, so spans nest strictly and a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
from contextlib import contextmanager

from inputs import shared_prefix
from ctrlkit import (
    corpus,
    evaluation,
    model,
    ngram,
    sampler,
    tasks,
    tokenizer,
    trainer,
)

LAYERS = ("cli", "corpus", "tokenizer", "model", "trainer", "sampler",
          "evaluation", "tasks", "ngram")


_signature = functools.cache(inspect.signature)


def _arguments(fn, args, kwargs) -> dict:
    return _signature(fn).bind(*args, **kwargs).arguments


def _merges(fn, args, kwargs, result):
    return {"merges": len(result.merges)}


def _tokens(fn, args, kwargs, result):
    return {"tokens": len(result)}


def _batch_loss(fn, args, kwargs, result):
    a = _arguments(fn, args, kwargs)
    ids, mask = a["ids"], a["mask"]
    real = int(mask[..., 1:].sum())
    return {"positions": int(ids.size), "outputs": real}


def _rows(fn, args, kwargs, result):
    return {"rows": len(_arguments(fn, args, kwargs)["ids"])}


def _file_bytes(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_arguments(fn, args, kwargs)["path"])}


def _generation(fn, args, kwargs, result):
    return {"outputs": len(result.generated_ids),
            "ecc_stop": int(result.stop_reason == sampler.STOP_ECC)}


def _perplexity(fn, args, kwargs, result):
    return {"outputs": result.token_count}


def _selection(fn, args, kwargs, result):
    """Scored continuation tokens, and how much of each candidate's prompt
    it shares with the other candidates of its group."""
    a = _arguments(fn, args, kwargs)
    v, spec, dps = a["v"], a["spec"], a["datapoints"]
    budget = a.get("budget", tasks.PromptBudget())
    cont = len(tokenizer.encode(v, " " + spec.labels[0]))
    groups: dict = {}
    for dp in dps:
        groups.setdefault(dp[spec.group_field], []).append(
            tasks.build_prompt(dp, spec, v, budget))
    shared, total = shared_prefix(list(groups.values()))
    return {"outputs": cont * len(dps), "shared_prefix": shared,
            "prompt_tokens": total}


def _index_ngrams(fn, args, kwargs, result):
    return {"ngrams": sum(tf for tf, _ in result.entries.values())}


def _overlap(fn, args, kwargs, result):
    return {"ngrams": result.n_grams}


def _hits(fn, args, kwargs, result):
    return {"hits": len(result)}


# (owner, attribute, span name, counter).  The owner is the module or class
# whose attribute the caller reads; the span name is "<layer>.<function>".
WRAPS = [
    (corpus, "load_corpus", "corpus.load_corpus", None),
    (tokenizer, "train_bpe", "tokenizer.train_bpe", _merges),
    (tokenizer, "load_vocab", "tokenizer.load_vocab", None),
    (tokenizer, "save_vocab", "tokenizer.save_vocab", None),
    (trainer, "encode", "tokenizer.encode", _tokens),
    (sampler, "encode", "tokenizer.encode", _tokens),
    (evaluation, "encode", "tokenizer.encode", _tokens),
    (tasks, "encode", "tokenizer.encode", _tokens),
    (model, "batch_loss", "model.batch_loss", _batch_loss),
    (model, "forward", "model.forward", _rows),
    (model, "save_checkpoint", "model.save_checkpoint", _file_bytes),
    (model, "load_checkpoint", "model.load_checkpoint", None),
    (trainer, "train", "trainer.train", None),
    (trainer.AdamW, "step", "trainer.adamw", None),
    (trainer, "clip_global_norm", "trainer.clip_global_norm", None),
    (model.Checkpoint, "copy", "trainer.checkpoint_copy", None),
    (sampler, "generate_ids", "sampler.generate_ids", _generation),
    (sampler, "adjust_distribution", "sampler.adjust_distribution", None),
    (tasks, "greedy_answer", "sampler.greedy_answer", _generation),
    (evaluation, "grid_search", "evaluation.grid_search", None),
    (evaluation, "_run_cell", "evaluation.grid_search.cell", None),
    (evaluation, "summarize_cell", "evaluation.summarize_cell", None),
    (evaluation, "sliding_perplexity", "evaluation.sliding_perplexity", _perplexity),
    (tasks, "build_prompt", "tasks.build_prompt", _tokens),
    (tasks, "answer_selection_accuracy", "tasks.answer_selection_accuracy", _selection),
    (tasks, "finetune", "tasks.finetune", None),
    (ngram, "build_index", "ngram.build_index", _index_ngrams),
    (ngram, "save_index", "ngram.save_index", _file_bytes),
    (ngram, "load_index", "ngram.load_index", None),
    (ngram, "overlap", "ngram.overlap", _overlap),
    (evaluation, "overlap", "ngram.overlap", _overlap),
    (ngram, "search", "ngram.search", _hits),
]

SPAN_NAMES = sorted({name for _, _, name, _ in WRAPS})


class Tracer:
    """Collects spans for the traced verb calls of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: list[tuple[int, int]] = []  # (root span, wall ns)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._active = False

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                # Counting calls other ctrlkit functions; keep them untraced.
                self._active = False
                try:
                    span[5] = counter(fn, args, kwargs, result)
                finally:
                    self._active = True
            return result

        return wrapper

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter_ns(), 0, parent, len(self.calls), None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def installed(self):
        """Replace every wrapped attribute; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, counter in WRAPS:
                fn = owner.__dict__.get(attr)
                if fn is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    @contextmanager
    def call(self, verb: str):
        """Root span of one verb call; also records the call's wall time
        measured just outside the span."""
        t0 = time.perf_counter_ns()
        root = len(self.spans)
        span = self._open("cli." + verb)
        self._active = True
        try:
            yield
        finally:
            self._active = False
            self._close(span)
            self.calls.append((root, time.perf_counter_ns() - t0))

    def self_times(self) -> list[int]:
        """Self time of every span, in ns."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def call_gaps(self) -> list[int]:
        """Per verb call, wall time minus the sum of its spans' self times;
        nonnegative, and only the cost of opening and closing the root."""
        own = self.self_times()
        total = [0] * len(self.calls)
        for s, t in zip(self.spans, own):
            total[s[4]] += t
        return [wall - total[i] for i, (_, wall) in enumerate(self.calls)]

    def dump(self) -> dict:
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "call", "counts"],
            "spans": self.spans,
            "calls": [{"root": r, "wall_ns": w} for r, w in self.calls],
            "not_wrapped": sorted(set(self.missing)),
        }


def _p(values: list[float], q: int) -> float:
    """q-th percentile by the inclusive method; the value itself for one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as {name: (value, unit, samples)}.

    Totals are per traced round; ``samples`` is the number of spans the
    value rests on.  A metric whose spans never ran is left out.
    """
    own = tracer.self_times()
    dur: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, dict[str, float]] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_n = {layer: 0 for layer in LAYERS}
    for span, t in zip(tracer.spans, own):
        name = span[0]
        dur.setdefault(name, []).append((span[2] - span[1]) / 1e9)
        self_s[name] = self_s.get(name, 0.0) + t / 1e9
        for key, value in (span[5] or {}).items():
            c = counts.setdefault(name, {})
            c[key] = c.get(key, 0) + value
        layer = name.split(".", 1)[0]
        layer_self[layer] += t / 1e9
        layer_n[layer] += 1

    out: dict[str, tuple[float, str, int]] = {}

    def n(name):
        return len(dur.get(name, ()))

    def total(name):
        return sum(dur[name])

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    def put(metric, value, unit, samples):
        if samples:
            out[metric] = (value, unit, samples)

    for layer in LAYERS:
        put(f"{layer}.self_s", layer_self[layer] / rounds, "s", layer_n[layer])

    if n("corpus.load_corpus"):
        put("corpus.load_corpus.s", total("corpus.load_corpus") / rounds, "s",
            n("corpus.load_corpus"))
    if n("tokenizer.train_bpe"):
        merges = count("tokenizer.train_bpe", "merges")
        put("tokenizer.train_bpe.merges", merges / rounds, "count", n("tokenizer.train_bpe"))
        put("tokenizer.train_bpe.ms_per_merge", 1e3 * total("tokenizer.train_bpe") / merges,
            "ms", n("tokenizer.train_bpe"))
    if n("tokenizer.encode"):
        put("tokenizer.encode.s", total("tokenizer.encode") / rounds, "s", n("tokenizer.encode"))
        put("tokenizer.encode.tokens", count("tokenizer.encode", "tokens") / rounds, "count",
            n("tokenizer.encode"))

    if n("model.batch_loss"):
        ms = [1e3 * d for d in dur["model.batch_loss"]]
        k = len(ms)
        put("model.batch_loss.calls", k / rounds, "count", k)
        put("model.batch_loss.ms.p50", _p(ms, 50), "ms", k)
        put("model.batch_loss.ms.p90", _p(ms, 90), "ms", k)
        positions = count("model.batch_loss", "positions")
        put("model.batch_loss.positions", positions / rounds, "count", k)
        put("model.batch_loss.real_share",
            count("model.batch_loss", "outputs") / positions, "ratio", k)
    forward_outputs = sum(
        count(name, "outputs")
        for name in ("sampler.generate_ids", "sampler.greedy_answer",
                     "evaluation.sliding_perplexity", "tasks.answer_selection_accuracy"))
    if n("model.forward"):
        k = n("model.forward")
        rows = count("model.forward", "rows")
        put("model.forward.calls", k / rounds, "count", k)
        put("model.forward.s", total("model.forward") / rounds, "s", k)
        put("model.forward.rows", rows / rounds, "count", k)
        if forward_outputs:
            put("model.forward.rows_per_output", rows / forward_outputs, "rows/token", k)
    # Logit rows computed for each token the model trained on, generated or
    # scored: padding and full-window recomputation both raise it.
    all_rows = count("model.forward", "rows") + count("model.batch_loss", "positions")
    all_outputs = forward_outputs + count("model.batch_loss", "outputs")
    if all_outputs:
        put("model.rows_per_output", all_rows / all_outputs, "rows/token",
            n("model.forward") + n("model.batch_loss"))
    for name in ("model.save_checkpoint", "model.load_checkpoint"):
        if n(name):
            put(name + ".s", total(name) / rounds, "s", n(name))
    if n("model.save_checkpoint"):
        put("model.save_checkpoint.bytes", count("model.save_checkpoint", "bytes") / rounds,
            "bytes", n("model.save_checkpoint"))

    if n("trainer.adamw"):
        steps = n("trainer.adamw")
        put("trainer.steps", steps / rounds, "count", steps)
        put("trainer.adamw.ms_per_step", 1e3 * total("trainer.adamw") / steps, "ms", steps)
        put("trainer.clip_global_norm.ms_per_step",
            1e3 * total("trainer.clip_global_norm") / steps, "ms", n("trainer.clip_global_norm"))
    if n("trainer.checkpoint_copy"):
        put("trainer.checkpoint_copy.s", total("trainer.checkpoint_copy") / rounds, "s",
            n("trainer.checkpoint_copy"))

    if n("sampler.generate_ids"):
        k = n("sampler.generate_ids")
        put("sampler.generate_ids.calls", k / rounds, "count", k)
        put("sampler.generate_ids.tokens", count("sampler.generate_ids", "outputs") / rounds,
            "count", k)
        put("sampler.generate_ids.self_s", self_s["sampler.generate_ids"] / rounds, "s", k)
        put("sampler.stop.ecc_share", count("sampler.generate_ids", "ecc_stop") / k, "ratio", k)
    if n("sampler.adjust_distribution"):
        k = n("sampler.adjust_distribution")
        put("sampler.adjust_distribution.us_per_call",
            1e6 * total("sampler.adjust_distribution") / k, "us", k)
    if n("sampler.greedy_answer"):
        k = n("sampler.greedy_answer")
        put("sampler.greedy_answer.tokens", count("sampler.greedy_answer", "outputs") / rounds,
            "count", k)
        put("sampler.greedy_answer.s", total("sampler.greedy_answer") / rounds, "s", k)

    if n("evaluation.grid_search.cell"):
        cells = dur["evaluation.grid_search.cell"]
        put("evaluation.grid_search.cell_s.p50", _p(cells, 50), "s", len(cells))
        put("evaluation.grid_search.cell_s.p90", _p(cells, 90), "s", len(cells))
    if n("evaluation.summarize_cell"):
        put("evaluation.summarize_cell.s", total("evaluation.summarize_cell") / rounds, "s",
            n("evaluation.summarize_cell"))
    if n("evaluation.sliding_perplexity"):
        k = n("evaluation.sliding_perplexity")
        put("evaluation.sliding_perplexity.s", total("evaluation.sliding_perplexity") / rounds,
            "s", k)
        put("evaluation.sliding_perplexity.tokens",
            count("evaluation.sliding_perplexity", "outputs") / rounds, "count", k)

    if n("tasks.build_prompt"):
        k = n("tasks.build_prompt")
        put("tasks.build_prompt.s", total("tasks.build_prompt") / rounds, "s", k)
        lengths = [s[5]["tokens"] for s in tracer.spans if s[0] == "tasks.build_prompt"]
        put("tasks.prompt_tokens.p50", statistics.median(lengths), "count", k)
    if n("tasks.answer_selection_accuracy"):
        k = n("tasks.answer_selection_accuracy")
        put("tasks.answer_selection_accuracy.s",
            total("tasks.answer_selection_accuracy") / rounds, "s", k)
        put("tasks.shared_prefix_share",
            count("tasks.answer_selection_accuracy", "shared_prefix")
            / count("tasks.answer_selection_accuracy", "prompt_tokens"), "ratio", k)
    if n("tasks.finetune"):
        put("tasks.finetune.s", total("tasks.finetune") / rounds, "s", n("tasks.finetune"))

    if n("ngram.build_index"):
        k = n("ngram.build_index")
        put("ngram.build_index.s", total("ngram.build_index") / rounds, "s", k)
        put("ngram.build_index.ngrams", count("ngram.build_index", "ngrams") / rounds, "count", k)
    if n("ngram.save_index"):
        put("ngram.save_index.bytes", count("ngram.save_index", "bytes") / rounds, "bytes",
            n("ngram.save_index"))
    if n("ngram.load_index"):
        put("ngram.load_index.s", total("ngram.load_index") / rounds, "s", n("ngram.load_index"))
    if count("ngram.overlap", "ngrams"):
        put("ngram.overlap.us_per_ngram",
            1e6 * total("ngram.overlap") / count("ngram.overlap", "ngrams"), "us",
            n("ngram.overlap"))
    if n("ngram.search"):
        k = n("ngram.search")
        put("ngram.search.us_per_query", 1e6 * total("ngram.search") / k, "us", k)
        put("ngram.search.hits", count("ngram.search", "hits") / rounds, "count", k)
    return out
