"""Train a desk-scale controllable model and watch the ECC mechanism work.

Two synthetic genres with disjoint word inventories; after a few epochs the
model ends its generations with the ending control code that matches the
opening one, even on prompts it has never seen.
"""

import numpy as np

from ctrlkit import corpus, model, sampler, tokenizer, trainer

rng = np.random.default_rng(1234)
WORDS = {
    "alpha": [f"a{i}" for i in range(12)],
    "beta": [f"b{i}" for i in range(12)],
}
table = corpus.table_from_names(["alpha", "beta"])

docs = []
for i in range(400):
    genre = "alpha" if i % 2 == 0 else "beta"
    n = rng.integers(6, 11)
    docs.append(corpus.Document(i, " ".join(rng.choice(WORDS[genre], size=n)),
                                table[genre], "manual"))

vocab = tokenizer.add_control_codes(tokenizer.train_bpe(docs, 1, 90), table)
config = model.ModelConfig(layers=2, heads=2, model_dim=32, inner_dim=64,
                           context=64, vocab_size=len(vocab))
print(f"model: {model.param_count(config):,} parameters, "
      f"vocab {config.vocab_size}")

ckpt = model.init_model(config, seed=0)
windows = trainer.windows_from_docs(docs, vocab, config.context)
tc = trainer.TrainingConfig(batch_size=16, lr=2e-3, epochs=10, seed=99)
print(f"initial loss: {trainer.mean_epoch_loss(ckpt, windows):.3f}")


def matching_rate(ck, trials=20):
    hits = 0
    for gi, genre in enumerate(("alpha", "beta")):
        for t in range(trials // 2):
            prng = np.random.default_rng(9000 + t + gi * 100)
            prompt = " ".join(prng.choice(WORDS[genre], size=3))
            sp = sampler.SamplingParams(temperature=0.0, max_new_tokens=60)
            gr = sampler.generate(ck, vocab, prompt, genre, sp)
            hits += gr.ecc_id == vocab.ecc_id(genre)  # None at the budget
    return hits / trials


rates = {}  # training updates ckpt in place, so measure epochs as they end


def measure(epoch, ck):
    if epoch in (1, 5, 10):
        rates[epoch] = matching_rate(ck)


trainer.train(ckpt, docs, vocab, tc, on_epoch=measure)
print(f"final loss:   {trainer.mean_epoch_loss(ckpt, windows):.3f}")
print()
for epoch, rate in rates.items():
    print(f"epoch {epoch:2d}: matching-ECC rate on held-out prompts = {rate:.0%}")

sp = sampler.SamplingParams(temperature=0.0, max_new_tokens=60)
gr = sampler.generate(ckpt, vocab, "a3 a7 a1", "alpha", sp)
print()
print("greedy continuation of ':alpha: a3 a7 a1':")
print("  ", tokenizer.decode(vocab, list(gr.generated_ids)))
print("stop reason:", gr.stop_reason)
