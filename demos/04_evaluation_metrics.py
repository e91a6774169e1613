"""Generation metrics: sliding perplexity, sampling loops, self-BLEU, and a
miniature hyper-parameter grid search with its CSV report.
"""

import numpy as np

from ctrlkit import corpus, evaluation as E, model, tokenizer, trainer

rng = np.random.default_rng(7)
table = corpus.table_from_names(["alpha", "beta"])
WORDS = {"alpha": [f"a{i}" for i in range(12)],
         "beta": [f"b{i}" for i in range(12)]}
docs = []
for i in range(300):
    genre = "alpha" if i % 2 == 0 else "beta"
    text = " ".join(rng.choice(WORDS[genre], size=rng.integers(6, 11)))
    docs.append(corpus.Document(i, text, table[genre], "manual"))

vocab = tokenizer.add_control_codes(tokenizer.train_bpe(docs, 1, 90), table)
config = model.ModelConfig(layers=2, heads=2, model_dim=32, inner_dim=64,
                           context=64, vocab_size=len(vocab))
ckpt = model.init_model(config, seed=0)
tc = trainer.TrainingConfig(batch_size=16, lr=2e-3, epochs=6, seed=1)
trainer.train(ckpt, docs, vocab, tc)

print("-- sliding-window perplexity --")
for text in ("a1 a2 a3 a4 a5", "b1 b2 b3 b4 b5", "a1 b1 a2 b2 a3"):
    res = E.sliding_perplexity(ckpt, vocab, text, w=16)
    print(f"  PP_16({text!r}) = {res.value:8.2f}  over {res.token_count} positions")

print()
print("-- sampling-loop detection --")
a1, a2 = vocab.token_to_id["a1"], vocab.token_to_id["a2"]
two = vocab.token_to_id["2"]
for ids, label in [
    ([a1, a2, a1, a2, a1, a2], "alternating pair"),
    ([a1, a2, a1], "no full repetition"),
    ([two, two, two], "numerals only"),
]:
    rep = E.detect_loops(ids, vocab)
    print(f"  {label:<22} loops={[(l.start, l.repeats) for l in rep.loops]} "
          f"numeral_excluded={rep.numeral_excluded_count}")

print()
print("-- self-BLEU-4 (lower = more diverse) --")
cohort = ["a1 a2 a3 a4 a5", "a1 a2 a3 a4 a6", "b1 b2 b3 b4 b5"]
for text, score in zip(cohort, E.self_bleu4(cohort)):
    print(f"  {score:.3f}  {text}")

print()
print("-- miniature grid search --")
grid = E.GridSpec(p_values=(0.8, 0.9), t_values=(0.5,), r_values=(1.0, 1.6))
report = E.grid_search(ckpt, vocab, ["alpha", "beta"], grid,
                       texts_per_cell=4, max_new_tokens=32, base_seed=0)
print(report.to_csv())
print("ECC confusion (alpha row):",
      {reached: n for (occ, reached), n in report.confusion.items() if occ == "alpha"})
