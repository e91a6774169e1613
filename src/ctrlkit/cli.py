"""Command-line entry point wiring all library modules together.

Every verb validates its options before touching the filesystem and writes
only to declared output paths, each file atomically.  ``train`` and
``finetune`` write each epoch's checkpoint when the epoch ends
(``finetune`` the vocabulary ``tasks.add_task_tokens`` grew just before
the first), so a run that fails keeps the epochs it finished.  The four
verbs that use randomness (``train``, ``finetune``, ``generate`` and
``grid``) fix all of it from ``--seed``, so rerunning any verb with the
same inputs and seed produces byte-identical artifacts.  Errors exit
nonzero with a one-line ``error: <type>: <message>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from . import (
    corpus,
    evaluation,
    model,
    ngram,
    sampler,
    tasks,
    tokenizer,
    trainer,
)
from .fileio import atomic_open, read_lines


def _load_docs(
    path: str, table: str = "auto"
) -> tuple[list[corpus.Document], corpus.CategoryTable]:
    """The corpus at ``path`` and the category table it was read with: the
    corpus's own names (``auto``) or the bundled table (``default``)."""
    if table == "default":
        categories = corpus.default_category_table()
    elif table == "auto":
        names = {line.split("\t", 1)[0]
                 for line in read_lines(path, corpus.CorpusError) if line.strip()}
        categories = corpus.table_from_names(sorted(names))
    else:
        raise ValueError(f"unknown table {table!r}; use 'default' or 'auto'")
    return corpus.load_corpus(path, categories), categories


def _load_model(args) -> tuple[model.Checkpoint, tokenizer.Vocab]:
    """The ``--ckpt`` checkpoint and the ``--vocab`` vocabulary, which must
    hold as many tokens as the checkpoint's embedding has rows."""
    ckpt, vocab = model.load_checkpoint(args.ckpt), tokenizer.load_vocab(args.vocab)
    if len(vocab) != ckpt.config.vocab_size:
        raise model.ModelError(f"the vocabulary holds {len(vocab)} tokens and the "
                               f"checkpoint's embedding {ckpt.config.vocab_size}")
    return ckpt, vocab


def _write(path: str | None, content: str) -> None:
    """``content`` to standard output, or atomically to ``path``."""
    if path is None:
        sys.stdout.write(content)
    else:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write(content)


def _at_least(name: str, value: int, low: int, error: type[Exception]) -> None:
    """Raise ``error`` for a count option below ``low``."""
    if value < low:
        raise error(f"{name} must be at least {low}, got {value}")


def _sampling_params(args, seed: int) -> sampler.SamplingParams:
    """The ``--preset`` parameters (else the ``SamplingParams`` defaults),
    overridden by each sampling flag given."""
    overrides = {"rng_seed": seed}
    if args.max_new_tokens is not None:
        overrides["max_new_tokens"] = args.max_new_tokens
    if args.temperature is not None:
        overrides["temperature"] = args.temperature
    if args.top_p is not None:
        overrides["nucleus_p"] = args.top_p
    if args.rep_penalty is not None:
        overrides["repetition_penalty"] = args.rep_penalty
    if args.preset:
        return sampler.preset(args.preset, **overrides)
    return sampler.SamplingParams(**overrides)


def cmd_train_tokenizer(args) -> int:
    _at_least("vocab_size", args.vocab_size, 1, tokenizer.TokenizerError)
    tokenizer.sample_fraction([], args.fraction)  # rejects a fraction outside (0, 1]
    docs, table = _load_docs(args.corpus, args.table)
    vocab = tokenizer.train_bpe(docs, args.fraction, args.vocab_size)
    if vocab.base_size < args.vocab_size:
        print(f"ran out of pairs to merge: learned {vocab.base_size} of the "
              f"{args.vocab_size} base tokens asked for")
    vocab = tokenizer.add_control_codes(vocab, table)
    tokenizer.save_vocab(args.out, vocab)
    print(f"wrote vocab of {len(vocab)} tokens ({vocab.base_size} base) to {args.out}")
    return 0


def _training_config(args) -> trainer.TrainingConfig:
    """The ``TrainingConfig`` defaults, overridden by each flag given."""
    given = {name: getattr(args, name) for name in ("epochs", "batch_size", "lr", "seed")}
    return trainer.TrainingConfig(**{k: v for k, v in given.items() if v is not None})


def _epoch_writer(out: str, vocab: tokenizer.Vocab | None = None):
    """The ``on_epoch`` callback that saves each epoch's checkpoint under
    ``out`` as the epoch ends, with ``vocab``, if given, written just before
    the first."""
    def save(epoch: int, ckpt: model.Checkpoint) -> None:
        epoch_dir = os.path.join(out, f"ckpt-epoch{epoch:02d}")
        os.makedirs(epoch_dir, exist_ok=True)
        if vocab is not None and epoch == 1:
            tokenizer.save_vocab(os.path.join(out, "vocab.txt"), vocab)
        model.save_checkpoint(os.path.join(epoch_dir, "model.ckpt"), ckpt)
    return save


def cmd_train(args) -> int:
    tc = _training_config(args)
    config = model.ModelConfig(  # the vocabulary's size is set once it is read
        layers=args.layers, heads=args.heads, model_dim=args.dim,
        inner_dim=args.inner, context=args.context, vocab_size=1,
    )
    docs, _ = _load_docs(args.corpus)
    vocab = tokenizer.load_vocab(args.vocab)
    config = dataclasses.replace(config, vocab_size=len(vocab))
    ckpt = model.init_model(config, seed=args.seed if args.seed is not None else 0)
    trainer.train(ckpt, docs, vocab, tc, on_epoch=_epoch_writer(args.out))
    print(f"wrote {tc.epochs} checkpoints under {args.out}")
    return 0


def cmd_generate(args) -> int:
    _at_least("--num", args.num, 1, sampler.SamplingError)
    params = [_sampling_params(args, args.seed + i) for i in range(args.num)]
    ckpt, vocab = _load_model(args)
    lines = []
    for sp in params:
        gr = sampler.generate(ckpt, vocab, args.prompt, args.occ, sp)
        rec = evaluation.CellRecord.of(vocab, args.prompt, args.occ, sp, gr, args.preset)
        lines.append(rec.to_json() + "\n")
    _write(args.out, "".join(lines))
    return 0


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x)


def cmd_grid(args) -> int:
    grid = evaluation.GridSpec(
        p_values=_parse_floats(args.p_grid),
        t_values=_parse_floats(args.t_grid),
        r_values=_parse_floats(args.r_grid),
    )
    categories = [c for c in args.categories.split(",") if c]
    evaluation.check_grid(categories, grid, args.texts_per_cell, args.max_new_tokens)
    ckpt, vocab = _load_model(args)
    idx = ngram.load_index(args.idx) if args.idx else None
    report = evaluation.grid_search(
        ckpt, vocab, categories, grid,
        texts_per_cell=args.texts_per_cell,
        max_new_tokens=args.max_new_tokens,
        idx=idx, base_seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    _write(os.path.join(args.out, "report.csv"), report.to_csv())
    for cell in report.cells:
        name = "cell_{}_T{}_p{}_r{}.jsonl".format(cell.category.replace("/", "_"),
                                                  *evaluation.cell_label(*cell.key[1:]))
        _write(os.path.join(args.out, name),
               "".join(rec.to_json() + "\n" for rec in cell.records))
    print(f"wrote grid report with {len(report.cells)} cells to {args.out}")
    return 0


def cmd_perplexity(args) -> int:
    if args.window is not None:
        _at_least("window", args.window, 2, evaluation.EvaluationError)
    ckpt, vocab = _load_model(args)
    window = args.window if args.window is not None else ckpt.config.context
    evaluation.check_window(window, ckpt.config.context)
    texts = corpus.load_texts(args.text_file)
    lines = ["perplexity,window,token_count"]
    for text in texts:
        try:
            res = evaluation.sliding_perplexity(ckpt, vocab, text, window)
        except evaluation.TextTooShort:
            lines.append(f",{window},0")  # undefined: no token to predict
            continue
        lines.append(f"{res.value:.6f},{res.window},{res.token_count}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_index_build(args) -> int:
    _at_least("k", args.k, 1, ngram.NGramIndexError)
    docs, _ = _load_docs(args.corpus)
    idx = ngram.build_index(docs, k=args.k)
    ngram.save_index(args.out, idx)
    print(f"indexed {len(idx)} {args.k}-grams from {len(docs)} documents")
    return 0


def cmd_index_search(args) -> int:
    if not args.query.split():
        raise ngram.NGramIndexError("--query must contain at least one word")
    idx = ngram.load_index(args.idx)
    hits = ngram.search(idx, args.query)
    lines = [
        "\t".join([
            " ".join(h.ngram), str(h.tf), h.category, h.provenance, h.url or "-",
        ])
        for h in hits
    ]
    _write(args.out, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def cmd_index_overlap(args) -> int:
    thresholds = []
    for t in filter(None, args.threshold.split(",")):
        try:
            thresholds.append(int(t))
        except ValueError:
            raise ngram.NGramIndexError(f"--threshold entry {t!r} is not an integer") from None
    if not thresholds:
        raise ngram.NGramIndexError("--threshold needs at least one threshold")
    _at_least("--threshold", min(thresholds), 1, ngram.NGramIndexError)
    idx = ngram.load_index(args.idx)
    texts = corpus.load_texts(args.eval)
    results = ngram.overlaps(texts, idx, thresholds, unique=args.unique)
    header = "k,n_short_pct," + ",".join(f"O_{t}" for t in thresholds)
    row = (
        f"{idx.k},{results[0].short_text_pct:.4f},"
        + ",".join(f"{r.overlap_pct:.4f}" for r in results)
    )
    _write(args.out, header + "\n" + row + "\n")
    return 0


def cmd_finetune(args) -> int:
    spec = tasks.get_task(args.task)
    tc = _training_config(args)
    ckpt, vocab = _load_model(args)
    datapoints = tasks.load_datapoints(args.data)
    vocab, ckpt = tasks.add_task_tokens(vocab, ckpt, spec, seed=tc.seed)
    tasks.finetune(ckpt, vocab, spec, datapoints, tc,
                   on_epoch=_epoch_writer(args.out, vocab))
    print(f"fine-tuned {spec.name} for {tc.epochs} epochs under {args.out}")
    return 0


def cmd_eval_task(args) -> int:
    spec = tasks.get_task(args.task)
    if set(args.epoch) & set(',"\r\n'):  # the label is written into the CSV as is
        raise tasks.TaskError(f"--epoch {args.epoch!r} holds a comma, a quote or a line break")
    _at_least("max_new_tokens", args.max_new_tokens, 0, sampler.SamplingError)
    ckpt, vocab = _load_model(args)
    datapoints = tasks.load_datapoints(args.data)
    result = tasks.evaluate(
        ckpt, vocab, spec, datapoints, max_new_tokens=args.max_new_tokens
    )
    rows = [
        (spec.name, args.epoch, metric, value, result.n_missing_pct)
        for metric, value in result.metrics.items()
    ]
    _write(args.out, tasks.results_csv(rows))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ctrlkit`` parser, built once per process and shared by every
    ``main`` call.  Its ``set_defaults(func=...)`` binds the ``cmd_*``
    functions when it is first built, so a test patches what those
    functions call, not ``cli.cmd_*``."""
    parser = argparse.ArgumentParser(
        prog="ctrlkit",
        description="Controllable language modeling toolkit",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def training(p):
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--batch-size", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train-tokenizer", help="learn a BPE vocabulary")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--fraction", type=float, default=1 / 3)
    p.add_argument("--table", default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_tokenizer)

    p = sub.add_parser("train", help="pretrain on OCC+text+ECC sequences")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    training(p)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--inner", type=int, default=64)
    p.add_argument("--context", type=int, default=48)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample text for a category")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--occ", required=True)
    p.add_argument("--prompt", default="")
    p.add_argument("--preset", choices=sorted(sampler.PRESETS), default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--top-p", type=float, default=None)
    p.add_argument("--rep-penalty", type=float, default=None)
    p.add_argument("--max-new-tokens", type=int, default=None)
    p.add_argument("--num", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("grid", help="hyper-parameter grid search")
    grid = evaluation.GridSpec()
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--categories", required=True)
    p.add_argument("--texts-per-cell", type=int, default=10)
    p.add_argument("--max-new-tokens", type=int, default=64)
    p.add_argument("--idx", default=None)
    for flag, values in (("--p-grid", grid.p_values), ("--t-grid", grid.t_values),
                         ("--r-grid", grid.r_values)):
        p.add_argument(flag, default=",".join(map(str, values)))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("perplexity", help="sliding-window perplexity")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--text-file", required=True)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_perplexity)

    p = sub.add_parser("index-build", help="build a k-gram index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--k", type=int, default=ngram.DEFAULT_K)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index_build)

    p = sub.add_parser("index-search",
                       help="find the indexed k-grams that contain a run of query words")
    p.add_argument("--idx", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_index_search)

    p = sub.add_parser("index-overlap", help="k-gram overlap statistics")
    p.add_argument("--idx", required=True)
    p.add_argument("--eval", required=True)
    p.add_argument("--threshold", default="1,10,100")
    p.add_argument("--unique", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_index_overlap)

    p = sub.add_parser("finetune", help="fine-tune on a benchmark task")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--data", required=True)
    training(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval-task", help="score a fine-tuned model on a task")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--max-new-tokens", type=int, default=32)
    p.add_argument("--epoch", default="-")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_task)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line machine-parseable error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
