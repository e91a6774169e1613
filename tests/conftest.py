"""Shared fixtures: a synthetic two-genre corpus and a model trained on it.

The two genres use disjoint word inventories, so a model that has learned
the control-code mechanism ends generations with the ECC matching the
opening code.  Training runs once per session (a few seconds).
"""

import numpy as np
import pytest

from ctrlkit import corpus, model as M, tokenizer as T, trainer

WORDS = {
    "alpha": [f"a{i}" for i in range(12)],
    "beta": [f"b{i}" for i in range(12)],
}


def make_two_genre_docs(n_per_genre=200, seed=1234):
    rng = np.random.default_rng(seed)
    table = corpus.table_from_names(["alpha", "beta"])
    docs = []
    for i in range(2 * n_per_genre):
        genre = "alpha" if i % 2 == 0 else "beta"
        n = rng.integers(6, 11)
        text = " ".join(rng.choice(WORDS[genre], size=n))
        docs.append(corpus.Document(i, text, table[genre], "manual"))
    return docs, table


def float64_copy(ckpt):
    """The same weights in a float64 checkpoint."""
    weights = {n: ckpt.weights[n].astype(np.float64) for n in M.param_shapes(ckpt.config)}
    return M.Checkpoint(ckpt.config, weights, ckpt.step, ckpt.seed)


def assert_head_reads_tok_emb(ckpt, ids=(1, 2, 3), k=5):
    """The output layer is tied to ``tok_emb`` as it is now: doubling row
    k (an id not in ``ids``) doubles logit k bitwise and leaves the others."""
    before = M.forward(ckpt, list(ids))
    ckpt.weights["tok_emb"][k] *= 2
    after = M.forward(ckpt, list(ids))
    ckpt.weights["tok_emb"][k] /= 2
    assert (after[:, k] == 2 * before[:, k]).all()
    assert (np.delete(after, k, axis=1) == np.delete(before, k, axis=1)).all()


def perturbed_checkpoint(cfg, seed=3, dtype=np.float64):
    """Checkpoint with well-scaled random weights so every gradient path
    carries signal (plain init leaves attention score grads near zero)."""
    ckpt = M.init_model(cfg, seed=7, dtype=dtype)
    rng = np.random.default_rng(seed)
    for name in M.param_shapes(cfg):
        ckpt.weights[name] += rng.normal(0.0, 0.1, size=ckpt.weights[name].shape)
    return ckpt


def held_out_prompts(genre, count, n_words=3, seed=7000):
    prompts = []
    for trial in range(count):
        rng = np.random.default_rng(seed + trial + (0 if genre == "alpha" else 500))
        prompts.append(" ".join(rng.choice(WORDS[genre], size=n_words)))
    return prompts


class TwoGenreSetup:
    def __init__(self):
        self.docs, self.table = make_two_genre_docs()
        base = T.train_bpe(self.docs, 1, vocab_size=90)
        self.vocab = T.add_control_codes(base, self.table)
        self.config = M.ModelConfig(
            layers=2, heads=2, model_dim=32, inner_dim=64, context=64,
            vocab_size=len(self.vocab),
        )
        self.untrained = M.init_model(self.config, seed=0)
        self.windows = trainer.windows_from_docs(self.docs, self.vocab, self.config.context)
        self.tc = trainer.TrainingConfig(batch_size=16, lr=2e-3, epochs=10, seed=99)
        self.initial_loss = trainer.mean_epoch_loss(self.untrained, self.windows)
        self.trained = M.init_model(self.config, seed=0)
        self.epoch_steps = []  # (epoch, step) as each on_epoch call saw them
        trainer.train(self.trained, self.docs, self.vocab, self.tc,
                      on_epoch=lambda epoch, ck: self.epoch_steps.append((epoch, ck.step)))
        self.final_loss = trainer.mean_epoch_loss(self.trained, self.windows)


@pytest.fixture
def computed_columns(monkeypatch):
    """The number of columns each model pass computes, in call order (each
    pass encodes the positions of exactly those columns)."""
    widths = []
    encode_positions = M.positional_encoding

    def recording(context, *args, **kwargs):
        widths.append(context)
        return encode_positions(context, *args, **kwargs)

    monkeypatch.setattr(M, "positional_encoding", recording)
    return widths


def common_prefix(a, b) -> int:
    """Length of the longest common prefix of two id sequences."""
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    return n


@pytest.fixture(scope="session")
def two_genre():
    return TwoGenreSetup()
