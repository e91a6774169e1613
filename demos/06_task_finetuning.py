"""Prompt-based task fine-tuning: budgets, rendering, baselines, agreement.

Builds a tiny yes/no task over the synthetic genre vocabulary, fine-tunes a
small model on rendered [OCC] [Prompt] [Label] [ECC] sequences, and scores
the greedy predictions with the agreement metrics.
"""

import numpy as np

from ctrlkit import agreement, corpus, model, tasks, tokenizer, trainer

print("-- prompt budget --")
budget = tasks.PromptBudget()
print(f"limit(|P|=100, |L|=5)  = {budget.limit(100, 5)}   (everything fits)")
print(f"limit(|P|=300, |L|=20) = {budget.limit(300, 20)}  (head/tail split)")
print()

print("-- built-in task templates --")
for name in ("swedn", "swenli", "swefaq"):
    spec = tasks.get_task(name)
    print(f"  {name:<12} {spec.template}")
swedn = tasks.get_task("swedn")
print("rendered:", swedn.render_example({"text": "Artikeltext",
                                         "label": "Sammanfattningen"}))
print()

# A synthetic binary task: does the text come from the alpha inventory?
rng = np.random.default_rng(0)
WORDS = {"Ja": [f"a{i}" for i in range(10)], "Nej": [f"b{i}" for i in range(10)]}
task = tasks.TaskSpec(
    name="genre-check",
    template="{text} svar:",
    kind=tasks.LABEL,
    labels=("Ja", "Nej"),
    metrics=("alpha_nominal", "accuracy"),
)

def make_points(n, seed):
    prng = np.random.default_rng(seed)
    points = []
    for i in range(n):
        label = "Ja" if i % 2 == 0 else "Nej"
        text = " ".join(prng.choice(WORDS[label], size=4))
        points.append({"text": text, "label": label})
    return points

train_points, test_points = make_points(120, seed=1), make_points(30, seed=2)

table = corpus.table_from_names(["seed"])
seed_docs = [corpus.Document(0, "svar: Ja Nej " + " ".join(
    w for ws in WORDS.values() for w in ws), table["seed"], "manual")]
vocab = tokenizer.add_control_codes(tokenizer.train_bpe(seed_docs, 1, 120), table)
config = model.ModelConfig(layers=2, heads=2, model_dim=32, inner_dim=64,
                           context=64, vocab_size=len(vocab))
base = model.init_model(config, seed=0)

tc = trainer.TrainingConfig(batch_size=8, lr=2e-3, epochs=4)
ft_vocab, ft_model = tasks.add_task_tokens(vocab, base, task, seed=tc.seed)
results = {}  # the first and last epoch, scored as they end


def score_epoch(epoch, ckpt):
    if epoch in (1, tc.epochs):
        results[epoch] = tasks.evaluate(ckpt, ft_vocab, task, test_points,
                                        max_new_tokens=4)


tasks.finetune(ft_model, ft_vocab, task, train_points, tc, on_epoch=score_epoch)
print(f"fine-tuned for {tc.epochs} epochs "
      f"(task ids {ft_vocab.control_ids['genre-check']})")
print()

print("-- evaluation --")
golds = [dp["label"] for dp in test_points]
preds, value = tasks.majority_baseline(golds)
print(f"majority baseline accuracy: {value:.3f} (always {preds[0]!r})")
for epoch, result in results.items():
    parts = ", ".join(
        f"{m}={'NA' if v is None else f'{v:.3f}'}" for m, v in result.metrics.items()
    )
    print(f"epoch {epoch}: {parts}, missing {result.n_missing_pct:.0f}%")
print()

print("-- agreement metrics directly --")
print("alpha(nominal), perfect:", agreement.krippendorff_alpha(
    ["Ja", "Nej", "Ja"], ["Ja", "Nej", "Ja"]))
print("alpha(interval), 1 off :", round(agreement.krippendorff_alpha(
    [1, 2, 3, 4], [1, 2, 3, 5], "interval"), 4))
print("spearman with ties     :", round(agreement.spearman_rho(
    [1, 2, 2, 4, 5], [2, 1, 3, 4, 4]), 4))
print("rouge-l                :", round(agreement.rouge_l(
    "en kort sammanfattning", "en mycket kort sammanfattning"), 4))
print("pseudo-alpha(0.9457)   :", round(agreement.pseudo_alpha(0.9457), 4))
print("first sentence         :",
      tasks.first_sentence_baseline("Detta är först. Detta är sen."))
