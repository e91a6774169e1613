"""The three benchmark workloads: inputs, verb calls and output checks.

A workload's ``setup`` writes its seeded inputs and builds, through public
``ctrlkit`` functions only, everything its verbs read and every reference
its checks compare against.  ``steps`` lists the verb calls of one round;
the runner times each call and then calls the step's check, which returns
the work the call did and raises ``CheckFailed`` when an output is wrong.

Options that ROADMAP plans to delete (such as ``--jobs``) are never passed,
so deleting them needs no edit here.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import inputs as gen
from ctrlkit import corpus, model, ngram, sampler, tasks, tokenizer, trainer
from ctrlkit.evaluation import CellRecord


class CheckFailed(Exception):
    pass


@dataclass
class Step:
    """One verb call of a round, feeding one end-to-end metric."""

    metric: str
    unit: str
    argv: list[str]
    check: object  # () -> work units; raises CheckFailed
    around: object = None  # optional () -> context manager around the call


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=16).hexdigest()


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _same_every_round(seen: dict, key: str, value) -> None:
    """Deterministic verbs must give the same output in every round."""
    if seen.setdefault(key, value) != value:
        raise CheckFailed(f"{key} differs from the first round")


def build_vocab(corpus_path, vocab_size: int):
    """What ``train-tokenizer --table auto`` does, through the library."""
    with open(corpus_path, encoding="utf-8") as fh:
        names = sorted({line.split("\t", 1)[0] for line in fh if line.strip()})
    table = corpus.table_from_names(names)
    docs = corpus.load_corpus(corpus_path, table)
    base = tokenizer.train_bpe(docs, 1 / 3, vocab_size)
    return docs, tokenizer.add_control_codes(base, table)


DECODER = dict(layers=4, heads=4, model_dim=128, inner_dim=512, context=256)
# One category, so one ECC can end a sampled stream instead of five.
DECODER_CATEGORIES = ("news",)


def decoder_checkpoint(docs, v, seed: int) -> model.Checkpoint:
    """The 4/4/128/512/256 model the decode and score workloads read.

    Ten AdamW steps on 32-token windows that hold no ECC teach the model
    that ECCs are rare, so free generation nearly always runs to
    ``--max-new-tokens`` and the work of a call hardly depends on the seed
    (an early stop made one seed's generate call 20% shorter).  The short
    windows keep this inside a second.
    """
    config = model.ModelConfig(vocab_size=len(v), **DECODER)
    ckpt = model.init_model(config, seed=seed)
    windows = [
        w for doc in docs for w in trainer.pack_sequence(doc, v, 32)
        if w.mask.all() and not v.ecc_ids.intersection(w.ids.tolist())
    ]
    tc = trainer.TrainingConfig(batch_size=2, lr=3e-2, epochs=1, seed=seed)
    trainer.train(ckpt, [], v, tc, windows=windows[:20])
    return ckpt


def float64_copy(ckpt: model.Checkpoint) -> model.Checkpoint:
    weights = {n: ckpt.weights[n].astype(np.float64) for n in model.param_shapes(ckpt.config)}
    for alias, target in model.ALIASES.items():
        weights[alias] = weights[target].T
    return model.Checkpoint(ckpt.config, weights, ckpt.step, ckpt.seed)


def check_generation(v, ids, stop_reason: str, max_new: int, text: str) -> int:
    """Structural checks on one sampled stream; returns its length.

    Sampled streams are never compared by digest: float reassociation in a
    faster decoder may change them legitimately.
    """
    if not all(0 <= i < len(v) for i in ids):
        raise CheckFailed("generated id outside the vocabulary")
    ecc = v.ecc_ids
    if any(i in ecc for i in ids[:-1]):
        raise CheckFailed("an ECC appears before the last generated token")
    ends_at_ecc = bool(ids) and ids[-1] in ecc
    if stop_reason == sampler.STOP_ECC:
        ok = ends_at_ecc and len(ids) <= max_new
    elif stop_reason == sampler.STOP_MAX:
        ok = not ends_at_ecc and len(ids) == max_new
    else:
        ok = False
    if not ok:
        raise CheckFailed(f"stop reason {stop_reason!r} does not fit {len(ids)} tokens")
    if tokenizer.decode(v, [i for i in ids if i not in ecc]) != text:
        raise CheckFailed("text is not the decoding of the generated ids")
    return len(ids)


class Tap:
    """Keeps what a module function returns during one verb call, so the
    check can see ids that the verb's output file does not carry."""

    def __init__(self, owner, attr: str):
        self.owner, self.attr = owner, attr
        self.results: list = []

    @contextmanager
    def __call__(self):
        fn = getattr(self.owner, self.attr)
        self.results = []

        def tapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.results.append(result)
            return result

        setattr(self.owner, self.attr, tapped)
        try:
            yield
        finally:
            setattr(self.owner, self.attr, fn)


class Workload:
    name = ""
    why = ""
    FULL: dict = {}
    SMALL: dict = {}

    def __init__(self, small: bool):
        self.size = self.SMALL if small else self.FULL
        self.properties: dict = {}
        self.extra: dict = {}  # name -> (value, unit, samples)
        self._seen: dict = {}

    def setup(self, d: str, seed: int) -> list[str]:
        """Write inputs and references under ``d``; return the files that a
        rebuild with the same seed must reproduce byte for byte."""
        raise NotImplementedError

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def path(self, *parts) -> str:
        return os.path.join(self.d, *parts)


class Train(Workload):
    name = "train"
    why = ("the only workload where BPE merging, index construction, the "
           "backward pass and AdamW do most of the work; short documents "
           "give the fixture's ~74% padding")
    FULL = dict(lexicon=1000, docs=240, vocab=300, epochs=2, ft_points=48, ft_epochs=2)
    SMALL = dict(lexicon=150, docs=30, vocab=100, epochs=1, ft_points=6, ft_epochs=1)
    CONTEXT = 64

    def setup(self, d, seed):
        self.d = d
        s = self.size
        rng = np.random.default_rng(seed)
        lex = gen.Lexicon(rng, s["lexicon"])
        phrases = gen.boilerplate(rng, lex, 12)
        docs = gen.documents(rng, lex, s["docs"], short_words=(2, 5),
                             long_words=(2, 6), long_share=0.1, phrases=phrases)
        gen.write_corpus(self.path("corpus.tsv"), docs)
        gen.write_jsonl(self.path("finetune.jsonl"),
                        gen.winograd(rng, lex, s["ft_points"], text_words=(2, 5)))

        lib_docs, v = build_vocab(self.path("corpus.tsv"), s["vocab"])
        tokenizer.save_vocab(self.path("vocab.ref.txt"), v)
        ngram.save_index(self.path("index.ref.jsonl"), ngram.build_index(lib_docs, gen.K))

        # Finetuning adds the task's control tokens; a stub checkpoint of the
        # right vocabulary size is enough to get the grown vocabulary.
        spec = tasks.get_task("swewinograd")
        stub = model.init_model(model.ModelConfig(1, 1, 2, 2, self.CONTEXT, len(v)), seed=0)
        v_ft, _ = tasks.add_task_tokens(v, stub, spec)
        tokenizer.save_vocab(self.path("ft_vocab.ref.txt"), v_ft)
        ft_points = tasks.load_datapoints(self.path("finetune.jsonl"))
        prompts = [tasks.build_prompt(dp, spec, v_ft, tasks.PromptBudget()) for dp in ft_points]
        ft_windows = [
            trainer.pack_ids(tasks.training_ids(dp, spec, v_ft, tasks.PromptBudget()),
                             v_ft, self.CONTEXT)[0]
            for dp in ft_points
        ]

        self.vocab = v
        self.windows = trainer.windows_from_docs(lib_docs, v, self.CONTEXT)
        self.merges = len(v.merges)
        self.kgrams = gen.kgram_count([text for _, text in docs])
        self.real_targets = sum(int(w.mask[1:].sum()) for w in self.windows)
        self.ft_real_targets = sum(int(w.mask[1:].sum()) for w in ft_windows)
        positions = len(self.windows) * self.CONTEXT
        self.properties = {
            "documents": len(docs),
            "training_windows": len(self.windows),
            "padding_share": 1 - sum(w.real_length for w in self.windows) / positions,
            "real_target_tokens": self.real_targets,
            "merges": self.merges,
            "kgram_occurrences": self.kgrams,
            "finetune_datapoints": len(ft_points),
            "finetune_prompt_tokens_per_datapoint": sum(map(len, prompts)) / len(prompts),
            "finetune_padding_share":
                1 - sum(w.real_length for w in ft_windows) / (len(ft_windows) * self.CONTEXT),
        }
        os.makedirs(self.path("out"), exist_ok=True)
        return ["corpus.tsv", "finetune.jsonl", "vocab.ref.txt", "index.ref.jsonl",
                "ft_vocab.ref.txt"]

    def steps(self):
        s = self.size
        corpus_tsv, vocab = self.path("corpus.tsv"), self.path("out", "vocab.txt")
        last = f"ckpt-epoch{s['epochs']:02d}"
        return [
            Step("train_tokenizer.merges_per_s", "merges/s",
                 ["train-tokenizer", "--corpus", corpus_tsv, "--vocab-size", str(s["vocab"]),
                  "--out", vocab],
                 self.check_vocab),
            Step("index_build.ngrams_per_s", "ngrams/s",
                 ["index-build", "--corpus", corpus_tsv, "--k", str(gen.K),
                  "--out", self.path("out", "index.jsonl")],
                 self.check_index),
            Step("train.tokens_per_s", "tokens/s",
                 ["train", "--corpus", corpus_tsv, "--vocab", vocab, "--layers", "2",
                  "--heads", "2", "--dim", "32", "--inner", "64",
                  "--context", str(self.CONTEXT), "--epochs", str(s["epochs"]),
                  "--batch-size", "16", "--lr", "0.002", "--seed", "0",
                  "--out", self.path("out", "train")],
                 self.check_train),
            Step("finetune.tokens_per_s", "tokens/s",
                 ["finetune", "--ckpt", self.path("out", "train", last, "model.ckpt"),
                  "--vocab", vocab, "--task", "swewinograd",
                  "--data", self.path("finetune.jsonl"), "--epochs", str(s["ft_epochs"]),
                  "--batch-size", "8", "--lr", "0.002", "--seed", "0",
                  "--out", self.path("out", "ft")],
                 self.check_finetune),
        ]

    def check_vocab(self):
        if _digest(self.path("out", "vocab.txt")) != _digest(self.path("vocab.ref.txt")):
            raise CheckFailed("vocabulary differs from the library rebuild with the same seed")
        return self.merges

    def check_index(self):
        if _digest(self.path("out", "index.jsonl")) != _digest(self.path("index.ref.jsonl")):
            raise CheckFailed("index differs from the library rebuild with the same seed")
        return self.kgrams

    def check_train(self):
        epochs = self.size["epochs"]
        paths = [self.path("out", "train", f"ckpt-epoch{e:02d}", "model.ckpt")
                 for e in range(1, epochs + 1)]
        _same_every_round(self._seen, "train checkpoints", [_digest(p) for p in paths])
        if "train.final_loss" not in self.extra:
            self.extra["train.final_loss"] = (self.final_loss(paths[-1]), "nats", 0)
        value, unit, n = self.extra["train.final_loss"]
        self.extra["train.final_loss"] = (value, unit, n + 1)
        return self.real_targets * epochs

    def final_loss(self, path) -> float:
        """Mean NLL of the last checkpoint over the training windows, checked
        against a float64 recomputation and against a uniform guess."""
        ckpt = model.load_checkpoint(path)
        loss = trainer.mean_epoch_loss(ckpt, self.windows)
        if not math.isfinite(loss) or loss >= math.log(len(self.vocab)):
            raise CheckFailed(f"final loss {loss} is no better than a uniform guess")
        sample = self.windows[:32]
        lo = trainer.mean_epoch_loss(ckpt, sample)
        hi = trainer.mean_epoch_loss(float64_copy(ckpt), sample)
        if abs(lo - hi) > 1e-4 * abs(hi):
            raise CheckFailed(f"float32 loss {lo} strays from float64 loss {hi}")
        return loss

    def check_finetune(self):
        epochs = self.size["ft_epochs"]
        if _digest(self.path("out", "ft", "vocab.txt")) != _digest(self.path("ft_vocab.ref.txt")):
            raise CheckFailed("finetune vocabulary lacks the task tokens it should add")
        path = self.path("out", "ft", f"ckpt-epoch{epochs:02d}", "model.ckpt")
        _same_every_round(self._seen, "finetune checkpoint", _digest(path))
        return self.ft_real_targets * epochs


class Generate(Workload):
    name = "generate"
    why = ("long outputs from short prompts: decoding recomputes the whole "
           "window per token, so this exercises the sampler, grid cells and "
           "incremental decoding while the training layers sit idle")
    FULL = dict(lexicon=1000, docs=150, vocab=300, prompt_tokens=24, max_new=100,
                grid_texts=2, grid_tokens=64)
    SMALL = dict(lexicon=150, docs=20, vocab=100, prompt_tokens=6, max_new=6,
                 grid_texts=2, grid_tokens=4)
    CATEGORY = "news"

    def setup(self, d, seed):
        self.d = d
        s = self.size
        rng = np.random.default_rng(seed)
        lex = gen.Lexicon(rng, s["lexicon"])
        phrases = gen.boilerplate(rng, lex, 12)
        docs = gen.documents(rng, lex, s["docs"], short_words=(40, 80),
                             long_words=(40, 80), long_share=1.0, phrases=phrases,
                             categories=DECODER_CATEGORIES)
        gen.write_corpus(self.path("corpus.tsv"), docs)
        lib_docs, v = build_vocab(self.path("corpus.tsv"), s["vocab"])
        self.prompt = gen.fitted(lex.sample(rng, self.CATEGORY, s["prompt_tokens"]),
                                 lambda text: len(tokenizer.encode(v, text)), s["prompt_tokens"])

        tokenizer.save_vocab(self.path("vocab.txt"), v)
        model.save_checkpoint(self.path("model.ckpt"), decoder_checkpoint(lib_docs, v, seed))
        ngram.save_index(self.path("index.jsonl"), ngram.build_index(lib_docs, gen.K))

        self.vocab = v
        prompt_tokens = 1 + len(tokenizer.encode(v, self.prompt))
        if prompt_tokens + s["max_new"] > DECODER["context"]:
            raise ValueError("prompt plus max_new_tokens must fit the context")
        self.properties = {
            "prompt_tokens": prompt_tokens,
            "max_new_tokens": s["max_new"],
            "window_slides_per_token": 0.0,
            "grid_generations": 2 * s["grid_texts"],
            "grid_max_new_tokens": s["grid_tokens"],
        }
        os.makedirs(self.path("out"), exist_ok=True)
        self._tap = Tap(sampler, "generate")
        return ["corpus.tsv", "vocab.txt", "model.ckpt", "index.jsonl"]

    def steps(self):
        s = self.size
        ckpt, vocab = self.path("model.ckpt"), self.path("vocab.txt")
        return [
            Step("generate.tokens_per_s", "tokens/s",
                 ["generate", "--ckpt", ckpt, "--vocab", vocab, "--occ", self.CATEGORY,
                  "--prompt", self.prompt, "--preset", "M2",
                  "--max-new-tokens", str(s["max_new"]), "--seed", "0",
                  "--out", self.path("out", "generate.jsonl")],
                 self.check_generate, around=self._tap),
            # Two cells: (T=1, p=0.9, r=1.2) and (T=0.8, p=1, r=1.2).
            Step("grid.tokens_per_s", "tokens/s",
                 ["grid", "--ckpt", ckpt, "--vocab", vocab, "--categories", self.CATEGORY,
                  "--texts-per-cell", str(s["grid_texts"]),
                  "--max-new-tokens", str(s["grid_tokens"]), "--idx", self.path("index.jsonl"),
                  "--p-grid", "0.9", "--t-grid", "0.8", "--r-grid", "1.2", "--seed", "0",
                  "--out", self.path("out", "grid")],
                 self.check_grid),
        ]

    def check_generate(self):
        records = [json.loads(line) for line in _read(self.path("out", "generate.jsonl")).splitlines()]
        results = self._tap.results
        if len(records) != 1 or len(results) != 1:
            raise CheckFailed(f"expected one generation, got {len(records)} records")
        gr, rec = results[0], records[0]
        if rec["stop_reason"] != gr.stop_reason:
            raise CheckFailed("stop reason in the output differs from the sampler's")
        return check_generation(self.vocab, gr.generated_ids, gr.stop_reason,
                                self.size["max_new"], rec["text"])

    def check_grid(self):
        out = self.path("out", "grid")
        rows = _read(os.path.join(out, "report.csv")).splitlines()
        cells = sorted(f for f in os.listdir(out) if f.startswith("cell_"))
        if len(rows) != 3 or len(cells) != 2:
            raise CheckFailed(f"expected 2 grid cells, got {len(rows) - 1} rows")
        tokens = 0
        for name in cells:
            lines = _read(os.path.join(out, name)).splitlines()
            if len(lines) != self.size["grid_texts"]:
                raise CheckFailed(f"{name} holds {len(lines)} texts")
            for line in lines:
                rec = CellRecord.from_json(line)
                tokens += check_generation(self.vocab, rec.token_ids, rec.stop_reason,
                                           self.size["grid_tokens"], rec.text)
        return tokens


class Score(Workload):
    name = "score"
    why = ("prefill-heavy reads: long windows of which one or a few logit "
           "rows are used, sliding-window perplexity, task scoring, and the "
           "ngram reads beside the train workload's index writes")
    FULL = dict(lexicon=1000, docs=150, vocab=300, ppl_texts=2, ppl_tokens=130, window=32,
                wino=4, wino_words=(90, 100), faq_groups=4, faq_candidates=4,
                faq_question=100, faq_answer=40, eval_texts=20, eval_words=20,
                queries=3)
    SMALL = dict(lexicon=150, docs=20, vocab=100, ppl_texts=1, ppl_tokens=30, window=8,
                 wino=1, wino_words=(10, 12), faq_groups=1, faq_candidates=2,
                 faq_question=20, faq_answer=8, eval_texts=2, eval_words=15,
                 queries=1)
    THRESHOLDS = (1, 10, 100)  # index-overlap's default --threshold

    def setup(self, d, seed):
        self.d = d
        s = self.size
        rng = np.random.default_rng(seed)
        lex = gen.Lexicon(rng, s["lexicon"])
        phrases = gen.boilerplate(rng, lex, 12)
        docs = gen.documents(rng, lex, s["docs"], short_words=(40, 80),
                             long_words=(40, 80), long_share=1.0, phrases=phrases,
                             categories=DECODER_CATEGORIES)
        gen.write_corpus(self.path("corpus.tsv"), docs)
        lib_docs, v = build_vocab(self.path("corpus.tsv"), s["vocab"])

        def count(text):
            return len(tokenizer.encode(v, text))

        ppl_texts = gen.fitted_texts(rng, lex, s["ppl_texts"], s["ppl_tokens"], count)
        gen.write_lines(self.path("ppl.txt"), ppl_texts)
        # Texts longer than the prompt budget, so every prompt is cut to it.
        wino = gen.winograd(rng, lex, s["wino"], s["wino_words"])
        gen.write_jsonl(self.path("wino.jsonl"), wino)
        faq = gen.faq(rng, lex, s["faq_groups"], s["faq_candidates"], s["faq_question"],
                      s["faq_answer"], count)
        gen.write_jsonl(self.path("faq.jsonl"), faq)
        half = s["eval_texts"] // 2
        eval_texts = (gen.copied_spans(rng, docs, half, s["eval_words"])
                      + gen.fresh_texts(rng, lex, s["eval_texts"] - half, s["eval_words"]))
        gen.write_lines(self.path("eval.txt"), eval_texts)
        self.queries = [
            " ".join(q.split()[:3])
            for q in gen.copied_spans(rng, docs, s["queries"], gen.K)
        ]
        self.check_text = int(rng.integers(len(ppl_texts)))

        ckpt = decoder_checkpoint(lib_docs, v, seed)
        for task in ("swewinograd", "swefaq"):
            v, ckpt = tasks.add_task_tokens(v, ckpt, tasks.get_task(task), seed=seed)
        tokenizer.save_vocab(self.path("vocab.txt"), v)
        model.save_checkpoint(self.path("model.ckpt"), ckpt)
        idx = ngram.build_index(lib_docs, gen.K)
        ngram.save_index(self.path("index.jsonl"), idx)

        self.vocab = v
        self.ppl_texts = ppl_texts
        self.ppl_lengths = [len(tokenizer.encode(v, t)) for t in ppl_texts]
        self.expected_overlap = self.overlap_oracle([text for _, text in docs], eval_texts)
        self.expected_search = [self.search_scan(idx, q) for q in self.queries]
        self.kgrams = gen.kgram_count(eval_texts)
        self.n_wino, self.n_faq = len(wino), len(faq)

        w = s["window"]
        budget = tasks.PromptBudget()
        wino_prompts = [tasks.build_prompt(dp, tasks.get_task("swewinograd"), v, budget)
                        for dp in wino]
        faq_prompts = [tasks.build_prompt(dp, tasks.get_task("swefaq"), v, budget)
                       for dp in faq]
        self.properties = {
            "perplexity_texts": len(ppl_texts),
            "perplexity_tokens_per_text": sum(self.ppl_lengths) / len(ppl_texts),
            "window": w,
            "window_slides_per_scored_token":
                sum(max(0, t - w) for t in self.ppl_lengths)
                / sum(t - 1 for t in self.ppl_lengths),
            "greedy_prompt_tokens_per_datapoint": sum(map(len, wino_prompts)) / len(wino),
            "select_prompt_tokens_per_datapoint": sum(map(len, faq_prompts)) / len(faq),
            "select_shared_prefix_share": self.shared_prefix_share(faq, faq_prompts),
            "index_entries": len(idx),
            "overlap_kgrams": self.kgrams,
            "search_queries": len(self.queries),
        }
        os.makedirs(self.path("out"), exist_ok=True)
        return ["corpus.tsv", "ppl.txt", "wino.jsonl", "faq.jsonl", "eval.txt",
                "vocab.txt", "model.ckpt", "index.jsonl"]

    @staticmethod
    def shared_prefix_share(faq, prompts) -> float:
        """Share of candidate prompt tokens that all candidates of the group
        have in common as a prefix."""
        groups: dict = {}
        for dp, p in zip(faq, prompts):
            groups.setdefault(dp["group"], []).append(p)
        shared, total = gen.shared_prefix(list(groups.values()))
        return shared / total

    @classmethod
    def overlap_oracle(cls, corpus_texts, eval_texts) -> str:
        """index-overlap's output, recounted from the raw corpus text."""
        k = gen.K
        tf: Counter = Counter()
        for text in corpus_texts:
            words = text.split()
            tf.update(tuple(words[i:i + k]) for i in range(len(words) - k + 1))
        grams, short = [], 0
        for text in eval_texts:
            words = text.split()
            if len(words) < k:
                short += 1
            grams.extend(tuple(words[i:i + k]) for i in range(len(words) - k + 1))
        pcts = [100.0 * sum(1 for g in grams if tf[g] >= t) / len(grams)
                for t in cls.THRESHOLDS]
        header = "k,n_short_pct," + ",".join(f"O_{t}" for t in cls.THRESHOLDS)
        row = f"{k},{100.0 * short / len(eval_texts):.4f}," + ",".join(f"{p:.4f}" for p in pcts)
        return header + "\n" + row + "\n"

    @staticmethod
    def search_scan(idx, query) -> str:
        """index-search's output, from a scan over every index entry."""
        words = tuple(query.split())
        m = len(words)
        lines = []
        for ng in sorted(idx.entries):
            if any(ng[i:i + m] == words for i in range(len(ng) - m + 1)):
                tf, postings = idx.entries[ng]
                meta = idx.doc_meta[postings[0]]
                lines.append("\t".join([" ".join(ng), str(tf), meta.category,
                                        meta.provenance, meta.url or "-"]))
        return "\n".join(lines) + ("\n" if lines else "")

    def steps(self):
        s = self.size
        ckpt, vocab, idx = self.path("model.ckpt"), self.path("vocab.txt"), self.path("index.jsonl")
        steps = [
            Step("perplexity.tokens_per_s", "tokens/s",
                 ["perplexity", "--ckpt", ckpt, "--vocab", vocab,
                  "--text-file", self.path("ppl.txt"), "--window", str(s["window"]),
                  "--out", self.path("out", "ppl.csv")],
                 self.check_perplexity),
            Step("eval_task.greedy.datapoints_per_s", "datapoints/s",
                 ["eval-task", "--ckpt", ckpt, "--vocab", vocab, "--task", "swewinograd",
                  "--data", self.path("wino.jsonl"), "--max-new-tokens", "4",
                  "--out", self.path("out", "wino.csv")],
                 self.check_greedy),
            Step("eval_task.select.datapoints_per_s", "datapoints/s",
                 ["eval-task", "--ckpt", ckpt, "--vocab", vocab, "--task", "swefaq",
                  "--data", self.path("faq.jsonl"), "--out", self.path("out", "faq.csv")],
                 self.check_select),
            Step("index_overlap.ngrams_per_s", "ngrams/s",
                 ["index-overlap", "--idx", idx, "--eval", self.path("eval.txt"),
                  "--out", self.path("out", "overlap.csv")],
                 self.check_overlap),
        ]
        for i, query in enumerate(self.queries):
            steps.append(Step(
                "index_search.queries_per_s", "queries/s",
                ["index-search", "--idx", idx, "--query", query,
                 "--out", self.path("out", f"search{i}.tsv")],
                lambda i=i: self.check_search(i)))
        return steps

    def check_perplexity(self):
        lines = _read(self.path("out", "ppl.csv")).splitlines()
        if lines[0] != "perplexity,window,token_count" or len(lines) != len(self.ppl_texts) + 1:
            raise CheckFailed("perplexity output has the wrong shape")
        values, tokens = [], 0
        for line, length in zip(lines[1:], self.ppl_lengths):
            value, window, count = line.split(",")
            if int(window) != self.size["window"] or int(count) != length - 1:
                raise CheckFailed(f"perplexity row {line!r} scores the wrong positions")
            values.append(float(value))
            tokens += int(count)
        if "perplexity reference" not in self._seen:
            self._seen["perplexity reference"] = self.float64_perplexity(self.check_text)
        ref = self._seen["perplexity reference"]
        if abs(values[self.check_text] - ref) > 1e-4 * ref:
            raise CheckFailed(f"perplexity {values[self.check_text]} strays from "
                              f"float64 recomputation {ref}")
        return tokens

    def float64_perplexity(self, i: int) -> float:
        """Sliding-window perplexity of one text in float64, every position
        conditioned on at most window-1 previous tokens."""
        ckpt = float64_copy(model.load_checkpoint(self.path("model.ckpt")))
        ids = np.asarray(tokenizer.encode(self.vocab, self.ppl_texts[i]), dtype=np.int64)
        w = self.size["window"]
        nll = 0.0
        for pos in range(1, len(ids)):
            ctx = ids[max(0, pos - w + 1):pos]
            logits = model.forward(ckpt, ctx)[-1]
            shifted = logits - logits.max()
            nll -= shifted[ids[pos]] - math.log(np.exp(shifted).sum())
        return math.exp(nll / (len(ids) - 1))

    def check_greedy(self):
        out = _read(self.path("out", "wino.csv"))
        lines = out.splitlines()
        if lines[0] != "task,epoch,metric,value,N_missing%" or len(lines) != 2:
            raise CheckFailed("greedy eval-task output has the wrong shape")
        _same_every_round(self._seen, "greedy eval-task output", out)
        return self.n_wino

    def check_select(self):
        out = _read(self.path("out", "faq.csv"))
        rows = {line.split(",")[2]: line.split(",")[3] for line in out.splitlines()[1:]}
        groups = self.size["faq_groups"]
        correct = float(rows.get("accuracy", "nan")) * groups
        if set(rows) != {"pseudo_alpha", "accuracy"} or abs(correct - round(correct)) > 1e-4:
            raise CheckFailed("answer-selection accuracy is not a share of the groups")
        _same_every_round(self._seen, "select eval-task output", out)
        return self.n_faq

    def check_overlap(self):
        if _read(self.path("out", "overlap.csv")) != self.expected_overlap:
            raise CheckFailed("overlap percentages differ from a recount of the corpus")
        return self.kgrams * len(self.THRESHOLDS)

    def check_search(self, i):
        if _read(self.path("out", f"search{i}.tsv")) != self.expected_search[i]:
            raise CheckFailed(f"search hits for {self.queries[i]!r} differ from an index scan")
        return 1


WORKLOADS = {w.name: w for w in (Train, Generate, Score)}
