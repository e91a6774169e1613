"""Prompt-based benchmark fine-tuning and scoring.

Every datapoint renders as ``[OCC] [Prompt] [Label] [ECC]`` with the
task's control tokens, which only ``add_task_tokens`` adds: ``finetune``,
``evaluate`` and ``answer_selection_accuracy`` take the vocabulary and
checkpoint it returns.  A ``TaskSpec`` names its metrics from ``METRICS``.
Prompts longer than the budget keep their head and tail around a ``[...]``
separator so the whole sequence fits the model's context.  All three share
one budget, ``PromptBudget().fit(ckpt)``: 256 tokens, or the checkpoint's
context window when that is smaller.  ``PromptBudget.reserve`` (5 tokens)
bounds the tokenized separator, which as one 5-character BPE piece cannot
encode to more, and ``PromptBudget.cap`` (245 tokens) limits prompts that
fit comfortably.  Every datapoint carries its gold answer in the ``label``
field.  Evaluation decodes greedily with the task ECC blocked at the first
step, parses the continuation into a label, and scores gold-vs-predicted
agreement; unparseable continuations count as missing annotations and are
excluded from both sides.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import agreement, corpus, model as M, sampler, trainer
from .fileio import read_lines
from .tokenizer import Vocab, add_control_pairs, decode, encode

LABEL = "label"
SCORE = "score"
SUMMARY = "summary"
LABEL_FIELD = "label"


class TaskError(ValueError):
    pass


def _mean_rouge_l(golds, preds) -> float | None:
    """ROUGE-L averaged over the pairs where neither side is missing."""
    scores = [agreement.rouge_l(p, g) for g, p in zip(golds, preds, strict=True)
              if g is not None and p is not None]
    return sum(scores) / len(scores) if scores else None


# Every metric a task may name, as a function of (golds, predictions).
METRICS: dict[str, Callable[[list, list], float | None]] = {
    "alpha_nominal": lambda g, p: agreement.krippendorff_alpha(g, p, "nominal"),
    "alpha_interval": lambda g, p: agreement.krippendorff_alpha(g, p, "interval"),
    "spearman": agreement.spearman_rho,
    "accuracy": agreement.accuracy,
    "rouge_l": _mean_rouge_l,
    "pseudo_alpha": lambda g, p: agreement.pseudo_alpha(agreement.accuracy(g, p)),
}
# The metrics of an answer-selection task, which its selection accuracy gives.
SELECTION_METRICS = ("accuracy", "pseudo_alpha")


@dataclass(frozen=True)
class PromptBudget:
    """Token budget keeping prompt, label, control codes, and separator
    inside the context window."""

    context: int = 256
    reserve: ClassVar[int] = 5  # upper bound on the tokenized separator
    separator: ClassVar[str] = "[...]"
    cap: ClassVar[int] = 245  # prompt limit when everything fits comfortably

    def fit(self, ckpt: M.Checkpoint) -> "PromptBudget":
        """This budget narrowed to the checkpoint's context window."""
        return replace(self, context=min(self.context, ckpt.config.context))

    def limit(self, prompt_len: int, label_len: int) -> int:
        if prompt_len + label_len + 2 <= self.context - self.reserve:
            return self.cap
        return self.context - self.reserve - label_len - 2


@dataclass(frozen=True)
class TaskSpec:
    """One benchmark task: prompt template, label space, metric choice."""

    name: str
    template: str
    kind: str  # label | score | summary
    metrics: tuple[str, ...]
    labels: tuple[str, ...] = ()
    group_field: str | None = None  # set for answer-selection tasks

    def __post_init__(self):
        if self.kind not in (LABEL, SCORE, SUMMARY):
            raise TaskError(f"unknown task kind {self.kind!r}")
        if self.kind == LABEL and len(self.labels) < 2:
            raise TaskError("finite-label tasks need at least 2 labels")
        for metric in self.metrics:
            if metric not in METRICS:
                raise TaskError(f"unknown metric {metric!r}; available: {', '.join(METRICS)}")
            if self.group_field is not None and metric not in SELECTION_METRICS:
                raise TaskError(
                    f"answer-selection task {self.name!r} names metric {metric!r}; a "
                    f"selection accuracy gives only {', '.join(SELECTION_METRICS)}")

    @property
    def occ_text(self) -> str:
        return corpus.occ_text(self.name)

    @property
    def ecc_text(self) -> str:
        return corpus.ecc_text(self.name)

    def render_prompt(self, dp: dict) -> str:
        try:
            return self.template.format(**dp)
        except KeyError as exc:
            raise TaskError(
                f"datapoint is missing field {exc.args[0]!r} for task {self.name}"
            ) from None

    def label_str(self, dp: dict) -> str:
        try:
            value = dp[LABEL_FIELD]
        except KeyError:
            raise TaskError(f"datapoint has no {LABEL_FIELD!r} field") from None
        return str(value)

    def render_example(self, dp: dict) -> str:
        """Display form '[OCC] [Prompt] [Label] [ECC]' of one datapoint."""
        return " ".join(
            [self.occ_text, self.render_prompt(dp), self.label_str(dp), self.ecc_text]
        )


BUILTIN_TASKS: dict[str, TaskSpec] = {
    spec.name: spec
    for spec in [
        TaskSpec(
            name="absabank-imm",
            template="{text} Känsloläge:",
            kind=SCORE,
            metrics=("alpha_interval", "spearman"),
        ),
        TaskSpec(
            name="swedn",
            template="{text} Sammanfattning:",
            kind=SUMMARY,
            metrics=("rouge_l",),
        ),
        TaskSpec(
            name="swewinograd",
            template="{text} Fråga: Syftar '{word1}' till '{word2}'? Svar:",
            kind=LABEL,
            labels=("Ja", "Nej"),
            metrics=("alpha_nominal",),
        ),
        TaskSpec(
            name="swefracas",
            template="Premiss: {premise} Fråga: {question} Svar:",
            kind=LABEL,
            labels=("Ja", "Nej", "Vet ej", "Jo"),
            metrics=("alpha_nominal", "accuracy"),
        ),
        TaskSpec(
            name="dalaj-ged",
            template="{text} Fråga: Är meningen grammatiskt korrekt?",
            kind=LABEL,
            labels=("Ja", "Nej"),
            metrics=("alpha_nominal", "accuracy"),
        ),
        TaskSpec(
            name="swenli",
            template="Situation: {premise} Påstående: {hypothesis} Fråga: Stämmer? Svar:",
            kind=LABEL,
            labels=("Ja", "Nej", "Kanske"),
            metrics=("alpha_nominal", "accuracy"),
        ),
        TaskSpec(
            name="swefaq",
            template="Fråga: {question} Svar: {answer} Passar?",
            kind=LABEL,
            labels=("Ja", "Nej"),
            metrics=("pseudo_alpha", "accuracy"),
            group_field="group",
        ),
        TaskSpec(
            name="sweparaphrase",
            template="Mening 1: {sentence1} Mening 2: {sentence2} Likhet mellan meningar:",
            kind=SCORE,
            metrics=("alpha_interval",),
        ),
        TaskSpec(
            name="swewic",
            template=(
                "Text 1: {text1} Text 2: {text2} Fråga: Betyder ordet "
                "'{word}' samma sak i båda fall? Svar:"
            ),
            kind=LABEL,
            labels=("Ja", "Nej"),
            metrics=("accuracy",),
        ),
        TaskSpec(
            name="swewinogender",
            template="Situation: {premise} Påstående: {hypothesis} Fråga: Stämmer?",
            kind=LABEL,
            labels=("Ja", "Nej", "Kanske"),
            metrics=("alpha_nominal", "accuracy"),
        ),
        TaskSpec(
            name="swediagnostics",
            template="Situation: {premise} Påstående: {hypothesis} Fråga: Stämmer?",
            kind=LABEL,
            labels=("Ja", "Nej", "Kanske"),
            metrics=("alpha_nominal", "accuracy"),
        ),
    ]
}


def get_task(name: str) -> TaskSpec:
    try:
        return BUILTIN_TASKS[name.lower()]
    except KeyError:
        raise TaskError(
            f"unknown task {name!r}; available: {', '.join(sorted(BUILTIN_TASKS))}"
        ) from None


def load_datapoints(path) -> list[dict]:
    """JSON-lines, one datapoint per line with template placeholder fields."""
    datapoints = []
    for lineno, line in enumerate(read_lines(path, TaskError), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            dp = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TaskError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        if not isinstance(dp, dict):
            raise TaskError(
                f"{path}:{lineno}: expected a JSON object, got {type(dp).__name__}"
            )
        datapoints.append(dp)
    return datapoints


def label_token_len(spec: TaskSpec, dp: dict, v: Vocab) -> int:
    # Leading space keeps the label a separate word after the prompt.
    return len(encode(v, " " + spec.label_str(dp)))


def build_prompt(dp: dict, spec: TaskSpec, v: Vocab, budget: PromptBudget) -> list[int]:
    """Tokenized OCC + prompt, head/tail-truncated to the budget."""
    if spec.name not in v.control_ids:
        raise TaskError(
            f"task {spec.name!r} has no control tokens in the vocabulary; "
            "call add_task_tokens first"
        )
    label_len = label_token_len(spec, dp, v)
    if label_len + budget.reserve + 2 >= budget.context:
        raise TaskError(
            f"label of {label_len} tokens cannot fit the context of "
            f"{budget.context}"
        )
    p_ids = encode(v, spec.render_prompt(dp))
    limit = budget.limit(len(p_ids), label_len)
    if len(p_ids) > limit:
        sep_ids = encode(v, budget.separator)
        half = limit // 2
        p_ids = p_ids[:half] + sep_ids + p_ids[len(p_ids) - half:]
    return [v.occ_id(spec.name)] + p_ids


def training_ids(dp: dict, spec: TaskSpec, v: Vocab, budget: PromptBudget) -> list[int]:
    """Full fine-tuning sequence: OCC + prompt + label + ECC."""
    ids = build_prompt(dp, spec, v, budget)
    ids += encode(v, " " + spec.label_str(dp))
    ids.append(v.ecc_id(spec.name))
    return ids


_NUMBER_RE = re.compile(r"[-+]?\d+(?:[.,]\d+)?")


def parse_label(generated: str, spec: TaskSpec):
    """Map a generated continuation to a label, score, or summary.

    Returns None (a missing annotation) when no label prefix matches, no
    number is found, or the summary is empty.
    """
    text = generated.strip()
    if spec.kind == LABEL:
        lowered = text.lower()
        for label in sorted(spec.labels, key=len, reverse=True):
            if lowered.startswith(label.lower()):
                return label
        return agreement.MISSING
    if spec.kind == SCORE:
        match = _NUMBER_RE.search(text)
        if not match:
            return agreement.MISSING
        return float(match.group(0).replace(",", "."))
    # summary: everything up to the task ECC
    ecc_pos = text.find(spec.ecc_text)
    if ecc_pos >= 0:
        text = text[:ecc_pos].rstrip()
    return text if text else agreement.MISSING


def majority_baseline(test_labels: list, metric=None):
    """Predict the modal label of the very same test set for every item.

    Ties break toward the first-seen label.  Returns (predictions, value)
    where value uses ``metric(gold, predictions)`` or plain accuracy.
    """
    if not test_labels:
        raise TaskError("majority baseline needs a non-empty label list")
    counts: dict = {}
    for label in test_labels:
        counts[label] = counts.get(label, 0) + 1
    mode = max(counts, key=lambda l: counts[l])  # insertion order breaks ties
    predictions = [mode] * len(test_labels)
    if metric is None:
        metric = agreement.accuracy
    return predictions, metric(test_labels, predictions)


_TERMINATORS = ".!?"


def first_sentence_baseline(text: str) -> str:
    """Prefix up to the first terminator followed by whitespace and an
    uppercase letter; the whole text if no such split point exists."""
    if not text:
        raise TaskError("cannot split an empty text")
    for i, ch in enumerate(text):
        if ch not in _TERMINATORS:
            continue
        j = i + 1
        while j < len(text) and text[j].isspace():
            j += 1
        if j > i + 1 and j < len(text) and text[j].isupper():
            return text[:i + 1]
    return text


def add_task_tokens(
    v: Vocab, ckpt: M.Checkpoint, spec: TaskSpec, seed: int = trainer.DEFAULT_SEED
) -> tuple[Vocab, M.Checkpoint]:
    """Register the task OCC/ECC and grow the embedding by two seeded rows.

    The fixed seed makes the new embeddings identical across runs.
    """
    _check_vocab_size(v, ckpt)
    v2 = add_control_pairs(v, [spec.name])
    cfg2 = replace(ckpt.config, vocab_size=ckpt.config.vocab_size + 2)
    rng = np.random.default_rng(seed)
    new_rows = rng.normal(0.0, M.INIT_STD, size=(2, ckpt.config.model_dim))
    weights = {n: ckpt.weights[n].copy() for n in M.param_shapes(ckpt.config)}
    weights["tok_emb"] = np.concatenate(
        [weights["tok_emb"], new_rows.astype(ckpt.dtype)], axis=0
    )
    ckpt2 = M.Checkpoint(config=cfg2, weights=weights, step=ckpt.step, seed=ckpt.seed)
    return v2, ckpt2


def _check_vocab_size(v: Vocab, ckpt: M.Checkpoint) -> None:
    if len(v.token_to_id) != ckpt.config.vocab_size:
        raise TaskError("vocabulary and checkpoint disagree on the vocabulary size")


def finetune(
    ckpt: M.Checkpoint,
    v: Vocab,
    spec: TaskSpec,
    datapoints: list[dict],
    tc: trainer.TrainingConfig,
    on_epoch: Callable[[int, M.Checkpoint], None] | None = None,
) -> None:
    """Fine-tune all weights of ``ckpt`` in place on rendered task sequences,
    deterministic given tc.seed.

    ``ckpt`` and ``v`` are the pair ``add_task_tokens`` returned: a
    vocabulary without the task's tokens, or of another size than the
    checkpoint's, is rejected before any step.  ``trainer.train`` hands the
    checkpoint to ``on_epoch`` as each epoch ends.
    """
    if not datapoints:
        raise TaskError("no datapoints to fine-tune on")
    _check_vocab_size(v, ckpt)
    budget = PromptBudget().fit(ckpt)
    windows = [
        trainer.pack_ids(training_ids(dp, spec, v, budget), v, ckpt.config.context)[0]
        for dp in datapoints
    ]
    trainer.train(ckpt, [], v, tc, windows=windows, on_epoch=on_epoch)


def answer_selection_accuracy(
    ckpt: M.Checkpoint,
    v: Vocab,
    spec: TaskSpec,
    datapoints: list[dict],
    scorer=None,
) -> float:
    """Share of groups whose highest-p('Ja') candidate is the gold answer.

    The model scores each candidate by log p(' Ja' | prompt) through one
    K/V cache, so a candidate reuses the keys and values of the prefix it
    shares with the one scored before it.  ``scorer(dp) -> float`` may
    replace the model log-probability, which the tests use to drive the
    selection logic with a known oracle.
    """
    if spec.group_field is None:
        raise TaskError(f"task {spec.name!r} is not an answer-selection task")
    yes = spec.labels[0]
    if scorer is None:
        _check_vocab_size(v, ckpt)
        budget = PromptBudget().fit(ckpt)
        cont = encode(v, " " + yes)
        kv = M.kv_cache(ckpt)

        def scorer(dp):
            prompt = build_prompt(dp, spec, v, budget)
            return M.sequence_logprob(ckpt, prompt + cont, start=len(prompt), kv=kv)

    groups: dict = {}
    for dp in datapoints:
        try:
            key = dp[spec.group_field]
        except KeyError:
            raise TaskError(
                f"datapoint has no {spec.group_field!r} field"
            ) from None
        groups.setdefault(key, []).append(dp)
    if not groups:
        raise TaskError("no datapoints")

    correct = 0
    for members in groups.values():
        scores = [scorer(dp) for dp in members]
        picked = members[int(np.argmax(scores))]
        if spec.label_str(picked) == yes:
            correct += 1
    return correct / len(groups)


@dataclass(frozen=True)
class TaskResult:
    metrics: dict[str, float | None]
    n_missing_pct: float


def score_predictions(spec: TaskSpec, golds: list, preds: list) -> TaskResult:
    """Apply the task's metrics to aligned gold/predicted labels."""
    missing = sum(1 for p in preds if p is agreement.MISSING)
    n_missing_pct = 100.0 * missing / len(preds) if preds else 0.0
    if spec.kind == SCORE:
        golds = [None if g is None else float(g) for g in golds]
    values: dict[str, float | None] = {}
    for metric in spec.metrics:
        try:
            values[metric] = METRICS[metric](golds, preds)
        except agreement.MetricError:
            values[metric] = None  # too few pairable values: undefined
    return TaskResult(metrics=values, n_missing_pct=n_missing_pct)


def evaluate(
    ckpt: M.Checkpoint,
    v: Vocab,
    spec: TaskSpec,
    datapoints: list[dict],
    max_new_tokens: int = 32,
) -> TaskResult:
    """Greedy decoding with the task ECC blocked at step one, then scoring.

    Answer-selection tasks are scored by the selection accuracy instead, as
    ``accuracy`` and its ``pseudo_alpha`` rescaling, in the spec's order.  A
    vocabulary of another size than the checkpoint's is rejected before any
    decoding.
    """
    if not datapoints:
        raise TaskError("no datapoints to evaluate")
    if spec.group_field is not None:
        acc = answer_selection_accuracy(ckpt, v, spec, datapoints)
        values = {"accuracy": acc, "pseudo_alpha": agreement.pseudo_alpha(acc)}
        return TaskResult(metrics={m: values[m] for m in spec.metrics}, n_missing_pct=0.0)
    _check_vocab_size(v, ckpt)
    budget = PromptBudget().fit(ckpt)
    ecc = v.ecc_id(spec.name)
    sp = sampler.SamplingParams(temperature=0.0, max_new_tokens=max_new_tokens,
                                block_first_ecc=ecc)
    golds = [spec.label_str(dp) for dp in datapoints]
    if spec.kind == SCORE:
        golds = [_gold_score(gold, i) for i, gold in enumerate(golds, start=1)]
    preds = []
    for dp in datapoints:
        prompt_ids = build_prompt(dp, spec, v, budget)
        gr = sampler.generate_ids(ckpt, prompt_ids, sp, stop_ids=frozenset({ecc}))
        preds.append(parse_label(decode(v, gr.body), spec))
    return score_predictions(spec, golds, preds)


def _gold_score(label: str, position: int) -> float:
    try:
        score = float(label)
        if np.isfinite(score):
            return score
    except ValueError:
        pass
    raise TaskError(f"datapoint {position}: gold score {label!r} is not a finite number")


def results_csv(rows: list[tuple[str, str, str, float | None, float]]) -> str:
    """Rows of (task, epoch, metric, value, missing%) with fixed formatting."""
    lines = ["task,epoch,metric,value,N_missing%"]
    for task, epoch, metric, value, missing in rows:
        val = "" if value is None else f"{value:.6f}"
        lines.append(f"{task},{epoch},{metric},{val},{missing:.2f}")
    return "\n".join(lines) + "\n"
