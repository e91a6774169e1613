import hashlib
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from ctrlkit import corpus, model as M, tokenizer as T, trainer
from ctrlkit.cli import _epoch_writer
from tests.conftest import assert_head_reads_tok_emb, float64_copy


def tiny_vocab_and_table(texts, category="alpha", vocab_size=40):
    table = corpus.table_from_names(["alpha", "beta"])
    docs = [corpus.Document(i, t, table[category], "manual") for i, t in enumerate(texts)]
    v = T.add_control_codes(T.train_bpe(docs, 1, vocab_size=vocab_size), table)
    return docs, v, table


class TestPackSequence:
    def test_single_window_length_arithmetic(self):
        docs, v, _ = tiny_vocab_and_table(["c d e f g h i j k l"], vocab_size=30)
        doc = docs[0]
        n_ids = len(T.encode(v, doc.text))
        windows = trainer.pack_sequence(doc, v, n=n_ids + 6)
        assert len(windows) == 1
        assert windows[0].real_length == n_ids + 2  # occ + ids + ecc

    def test_boundary_makes_two_windows(self):
        docs, v, _ = tiny_vocab_and_table(["c d e f"], vocab_size=30)
        doc = docs[0]
        n = len(T.encode(v, doc.text))
        windows = trainer.pack_sequence(doc, v, n=n)
        assert len(windows) == 2
        assert windows[0].real_length == n
        assert windows[1].real_length == 2

    def test_head_decodes_to_occ_surface(self):
        table = corpus.default_category_table()
        docs = [corpus.Document(0, "en artikel om stockholm", table["wiki"], "manual")]
        v = T.add_control_codes(T.train_bpe(docs, 1, vocab_size=30), table)
        windows = trainer.pack_sequence(docs[0], v, n=64)
        head = int(windows[0].ids[0])
        assert T.decode(v, [head]) == ":wiki:"
        tail = int(windows[0].ids[windows[0].real_length - 1])
        assert T.decode(v, [tail]) == ":wiki:$"

    def test_unknown_category_rejected(self):
        docs, v, _ = tiny_vocab_and_table(["c d"], vocab_size=20)
        other = corpus.table_from_names(["gamma"])["gamma"]
        doc = corpus.Document(0, "c d", other, "manual")
        with pytest.raises(trainer.TrainingError, match="'gamma' has no control codes"):
            trainer.pack_sequence(doc, v, n=16)

    def test_vocab_without_pad_rejected(self):
        docs, _, _ = tiny_vocab_and_table(["c d"], vocab_size=20)
        base = T.train_bpe(docs, 1, vocab_size=20)
        with pytest.raises(trainer.TrainingError, match="no pad token"):
            trainer.pack_ids(T.encode(base, "c d"), base, 16)

    def test_pad_positions_masked(self):
        docs, v, _ = tiny_vocab_and_table(["c d"], vocab_size=20)
        windows = trainer.pack_sequence(docs[0], v, n=16)
        w = windows[0]
        assert np.all(w.ids[~w.mask] == v.pad_id)
        assert not np.any(w.mask[w.real_length:])


class TestLmLoss:
    def test_uniform_logits_give_log_vocab(self):
        # Zeroed embeddings make every logits row identically zero.
        cfg = M.toy_config(vocab_size=50)
        ckpt = M.init_model(cfg, seed=0)
        ckpt.weights["tok_emb"][:] = 0.0
        window = trainer.Window(
            ids=np.array([1, 2, 3, 4, 5]), mask=np.ones(5, dtype=bool)
        )
        npt.assert_allclose(trainer.lm_loss(ckpt, window), math.log(50), atol=1e-6)

    def test_certain_model_gives_zero_loss(self):
        # A one-token vocabulary puts probability 1 on every target.
        cfg = M.ModelConfig(layers=1, heads=1, model_dim=4, inner_dim=8,
                            context=8, vocab_size=1)
        ckpt = M.init_model(cfg, seed=0)
        window = trainer.Window(ids=np.zeros(4, dtype=np.int64),
                                mask=np.ones(4, dtype=bool))
        assert trainer.lm_loss(ckpt, window) == 0.0

    def test_matches_direct_softmax_summation(self):
        cfg = M.toy_config(vocab_size=20)
        ckpt = M.init_model(cfg, seed=5)
        ids = np.array([3, 7, 11, 2])
        window = trainer.Window(ids=ids, mask=np.ones(4, dtype=bool))
        logits = M.forward(ckpt, list(ids)).astype(np.float64)
        total = 0.0
        for i in range(3):
            row = logits[i]
            probs = np.exp(row - row.max())
            probs /= probs.sum()
            total -= math.log(probs[ids[i + 1]])
        npt.assert_allclose(trainer.lm_loss(ckpt, window), total / 3, rtol=1e-6)

    def test_all_masked_rejected(self):
        cfg = M.toy_config()
        ckpt = M.init_model(cfg, seed=0)
        window = trainer.Window(ids=np.array([1, 2, 3]),
                                mask=np.array([True, False, False]))
        with pytest.raises(M.ModelError):
            trainer.lm_loss(ckpt, window)


class TestClip:
    def test_global_norm_bounded_after_clip(self):
        rng = np.random.default_rng(0)
        grads = {n: rng.normal(size=s) for n, s in
                 [("a", (8, 8)), ("b", (16,)), ("c", (4, 4, 2))]}
        pre = trainer.clip_global_norm(grads, 1.0)
        assert pre > 1.0
        post = math.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        assert post <= 1.0 + 1e-6

    def test_small_gradients_untouched(self):
        grads = {"a": np.full(4, 1e-4)}
        before = grads["a"].copy()
        trainer.clip_global_norm(grads, 1.0)
        npt.assert_array_equal(grads["a"], before)

    @staticmethod
    def _float32_grads(scale):
        # Each under 32 768 elements, so under numpy's 256 KiB threshold for
        # eliding temporaries in float64: there the squares of a float64
        # copy, ``g.astype(np.float64) ** 2``, are a second array.
        rng = np.random.default_rng(8)
        return {n: rng.normal(0.0, scale, s).astype(np.float32) for n, s in
                [("emb", (100, 64)), ("w1", (64, 256)), ("b", (256,)), ("g", (64,))]}

    @pytest.mark.parametrize("scale", [1e-2, 1e-5], ids=["clips", "does_not_clip"])
    def test_bitwise_equal_to_the_astype_formula(self, scale):
        grads, ref = self._float32_grads(scale), self._float32_grads(scale)
        # The formula this one replaced, with a float64 copy and its squares.
        ref_total = np.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                                for g in ref.values()))
        if ref_total > 1.0:
            for g in ref.values():
                g *= 1.0 / ref_total
        total = trainer.clip_global_norm(grads, 1.0)
        assert (total > 1.0) == (scale == 1e-2)
        assert total.hex() == ref_total.hex()
        assert _joined(grads.values()) == _joined(ref.values())

    def test_one_float64_temporary_at_a_time(self):
        grads = self._float32_grads(1e-2)
        largest = max(g.size for g in grads.values()) * 8
        tracemalloc.start()
        try:
            trainer.clip_global_norm(grads, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A float64 copy and then its squares would be 2x the largest tensor;
        # one copy squared in place measured 1.0x.
        assert peak < 1.5 * largest


class TestTrain:
    def test_single_window_descent(self):
        docs, v, _ = tiny_vocab_and_table(["c d e f g"], vocab_size=20)
        cfg = M.ModelConfig(layers=1, heads=2, model_dim=16, inner_dim=32,
                            context=16, vocab_size=len(v))
        ckpt = M.init_model(cfg, seed=0)
        windows = trainer.windows_from_docs(docs, v, cfg.context)
        before = trainer.lm_loss(ckpt, windows[0])
        tc = trainer.TrainingConfig(batch_size=1, lr=1e-2, epochs=1, seed=0)
        assert trainer.train(ckpt, docs, v, tc) is None
        assert trainer.lm_loss(ckpt, windows[0]) < before

    def test_batch_with_no_target_is_skipped(self):
        # A sequence one longer than the context leaves a one-token tail
        # window, which predicts nothing: training on it as a batch of its
        # own is training on the first window alone, AdamW's steps included.
        _, v, _ = tiny_vocab_and_table(["c d e f g"], vocab_size=20)
        cfg = M.ModelConfig(layers=1, heads=2, model_dim=16, inner_dim=32,
                            context=16, vocab_size=len(v))
        seq = [i % len(v) for i in range(cfg.context + 1)]
        windows = trainer.pack_ids(seq, v, cfg.context)
        assert [w.real_length for w in windows] == [cfg.context, 1]
        tc = trainer.TrainingConfig(batch_size=1, lr=1e-2, epochs=3, seed=0)
        runs = {}
        for name, train_on in (("both", windows), ("first", windows[:1])):
            runs[name] = ckpt = M.init_model(cfg, seed=0)
            steps = []
            trainer.train(ckpt, [], v, tc, windows=train_on,
                          on_epoch=lambda epoch, ck: steps.append(ck.step))
            assert steps == [1, 2, 3]
        for name in M.param_shapes(cfg):
            npt.assert_array_equal(runs["both"].weights[name], runs["first"].weights[name])

    def test_nothing_to_train_on_rejected(self):
        _, v, _ = tiny_vocab_and_table(["c d"], vocab_size=20)
        cfg = M.ModelConfig(layers=1, heads=2, model_dim=16, inner_dim=32,
                            context=16, vocab_size=len(v))
        ckpt = M.init_model(cfg, seed=0)
        tc = trainer.TrainingConfig(batch_size=1, lr=1e-2, epochs=1, seed=0)
        with pytest.raises(trainer.TrainingError, match="no documents to train on"):
            trainer.train(ckpt, [], v, tc)
        with pytest.raises(trainer.TrainingError, match="no training windows"):
            trainer.train(ckpt, [], v, tc, windows=[])

    def test_same_seed_identical_weights(self):
        docs, v, _ = tiny_vocab_and_table(["c d e", "f g h", "c f g"], vocab_size=20)
        cfg = M.ModelConfig(layers=1, heads=2, model_dim=16, inner_dim=32,
                            context=16, vocab_size=len(v))
        tc = trainer.TrainingConfig(batch_size=2, lr=1e-3, epochs=2, seed=42)
        runs = [M.init_model(cfg, seed=1) for _ in range(2)]
        for ckpt in runs:
            trainer.train(ckpt, docs, v, tc)
        for name in M.param_shapes(cfg):
            npt.assert_array_equal(runs[0].weights[name], runs[1].weights[name])

    def test_one_checkpoint_per_epoch(self, two_genre):
        epochs, steps = zip(*two_genre.epoch_steps)
        assert epochs == tuple(range(1, two_genre.tc.epochs + 1))
        per_epoch = math.ceil(len(two_genre.windows) / two_genre.tc.batch_size)
        assert steps == tuple(per_epoch * e for e in epochs)
        assert two_genre.trained.step == steps[-1]

    def test_final_loss_below_initial(self, two_genre):
        assert two_genre.final_loss < two_genre.initial_loss

    def test_float32_loss_matches_float64(self, two_genre):
        # The float tolerance the benchmark checks its training loss against.
        wide = trainer.mean_epoch_loss(float64_copy(two_genre.trained), two_genre.windows)
        assert abs(two_genre.final_loss - wide) <= 1e-4 * abs(wide)

    def test_divergence_aborts_with_step(self):
        docs, v, _ = tiny_vocab_and_table(["c d e"], vocab_size=20)
        cfg = M.ModelConfig(layers=1, heads=2, model_dim=16, inner_dim=32,
                            context=16, vocab_size=len(v))
        ckpt = M.init_model(cfg, seed=0)
        ckpt.weights["tok_emb"][0, 0] = np.nan
        tc = trainer.TrainingConfig(batch_size=1, epochs=1, seed=0)
        with pytest.raises(trainer.TrainingDiverged) as exc:
            trainer.train(ckpt, docs, v, tc)
        assert exc.value.step == 0

    def test_divergence_keeps_the_epochs_written(self, tmp_path):
        docs, v, _ = tiny_vocab_and_table(["c d e", "f g h", "c f g"], vocab_size=20)
        cfg = M.ModelConfig(layers=1, heads=2, model_dim=16, inner_dim=32,
                            context=16, vocab_size=len(v))
        ckpt = M.init_model(cfg, seed=0)
        tc = trainer.TrainingConfig(batch_size=2, lr=1e-3, epochs=3, seed=0)
        out = tmp_path / "run"
        write = _epoch_writer(str(out))
        saved = {}

        def write_then_poison(epoch, ck):
            write(epoch, ck)
            saved[epoch] = {n: ck.weights[n].tobytes() for n in M.param_shapes(cfg)}
            ck.weights["tok_emb"][0, 0] = np.nan

        with pytest.raises(trainer.TrainingDiverged) as exc:
            trainer.train(ckpt, docs, v, tc, on_epoch=write_then_poison)
        assert exc.value.step == 2  # the first step of epoch 2
        assert list(saved) == [1]
        assert [p.name for p in out.iterdir()] == ["ckpt-epoch01"]
        loaded = M.load_checkpoint(out / "ckpt-epoch01" / "model.ckpt")
        assert loaded.step == 2
        assert {n: loaded.weights[n].tobytes() for n in M.param_shapes(cfg)} == saved[1]

    def test_memory_does_not_grow_with_epochs(self):
        docs, v, _ = tiny_vocab_and_table(
            ["c d e f g h i j", "f g h c d", "c f g i j e"], vocab_size=30)
        cfg = M.ModelConfig(layers=2, heads=2, model_dim=64, inner_dim=128,
                            context=16, vocab_size=len(v))
        windows = trainer.windows_from_docs(docs, v, cfg.context)

        def peak_bytes(epochs):
            ckpt = M.init_model(cfg, seed=0)
            tc = trainer.TrainingConfig(batch_size=2, lr=1e-3, epochs=epochs, seed=0)
            tracemalloc.start()
            try:
                trainer.train(ckpt, [], v, tc, windows=windows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_checkpoint = 4 * M.param_count(cfg)
        assert peak_bytes(6) - peak_bytes(1) < one_checkpoint

    def test_peak_is_four_model_copies_and_one_batch(self):
        # 4/4/128/512 at vocab 330, the decoder the benchmark's set-up trains.
        cfg = M.ModelConfig(layers=4, heads=4, model_dim=128, inner_dim=512,
                            context=32, vocab_size=330)
        rng = np.random.default_rng(0)
        windows = _windows(rng, cfg.context, [range(cfg.context)] * 8)
        _, v, _ = tiny_vocab_and_table(["c d e f"])
        tc = trainer.TrainingConfig(batch_size=2, lr=1e-3, epochs=1, seed=0)
        ckpt = M.init_model(cfg, seed=0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trainer.train(ckpt, [], v, tc, windows=windows)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # The weights, their gradients, AdamW's m and v; the clip's float64
        # squares of the largest tensor; and one step's activations and
        # backward temporaries, whose traced rise inside batch_loss at this
        # batch (2 x 32 tokens) measured 2.9 MiB.  The previous step's
        # gradients, alive while the next are computed, would add a fifth copy.
        model_copy = 4 * M.param_count(cfg)
        largest = max(math.prod(s) for s in M.param_shapes(cfg).values())
        activations = 3.5 * 2 ** 20
        assert peak < 4 * model_copy + 8 * largest + activations

    def test_trained_checkpoint_round_trips_bitwise(self, two_genre, tmp_path):
        ckpt = two_genre.trained
        ids = [1, 2, 3, 4, 5, 6]
        before = M.forward(ckpt, ids)
        path = tmp_path / "m.ckpt"
        M.save_checkpoint(path, ckpt)
        npt.assert_array_equal(M.forward(M.load_checkpoint(path), ids), before)


def _per_tensor_adamw_step(state, params, grads, lr):
    """The per-tensor AdamW step that the flat one replaced: the oracle.
    ``state`` holds ``t`` and per-tensor ``m`` and ``v``."""
    state["t"] += 1
    bc1 = 1.0 - trainer.ADAM_BETA1 ** state["t"]
    bc2 = 1.0 - trainer.ADAM_BETA2 ** state["t"]
    for name, p in params.items():
        g = grads[name]
        m = state["m"].setdefault(name, np.zeros_like(p))
        v = state["v"].setdefault(name, np.zeros_like(p))
        m *= trainer.ADAM_BETA1
        m += (1.0 - trainer.ADAM_BETA1) * g
        v *= trainer.ADAM_BETA2
        v += (1.0 - trainer.ADAM_BETA2) * g * g
        p *= 1.0 - lr * trainer.WEIGHT_DECAY
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + trainer.ADAM_EPS)


def _new_state():
    return {"t": 0, "m": {}, "v": {}}


def _joined(tensors):
    return b"".join(np.ascontiguousarray(a).tobytes() for a in tensors)


class TestAdamW:
    @pytest.mark.parametrize("size", [
        trainer.ADAM_BLOCK - 7, trainer.ADAM_BLOCK, 2 * trainer.ADAM_BLOCK + 1_001,
    ], ids=["under_one_block", "one_block", "two_blocks_and_a_rest"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_the_per_tensor_formula(self, size, dtype):
        rng = np.random.default_rng(size)
        flat = rng.normal(0.0, 0.5, size).astype(dtype)
        # Uneven tensors, so that block and tensor edges do not line up.
        cuts = [0, 5, size // 3, size // 3 + 1, size - 2, size]
        names = [f"w{i}" for i in range(len(cuts) - 1)]
        ref = {n: flat[a:b].copy() for n, a, b in zip(names, cuts, cuts[1:])}
        state = _new_state()
        tc = trainer.TrainingConfig(lr=3e-2)
        opt = trainer.AdamW(flat, tc)
        for _ in range(3):  # the bias corrections move each step
            grads = rng.normal(0.0, 1.0, size).astype(dtype)
            grads[rng.integers(0, size, 10)] = 0.0
            opt.step(flat, grads)
            _per_tensor_adamw_step(state, ref, {n: grads[a:b] for n, a, b
                                                in zip(names, cuts, cuts[1:])}, tc.lr)
        assert opt.t == state["t"] == 3
        assert flat.tobytes() == _joined(ref[n] for n in names)
        assert opt.m.tobytes() == _joined(state["m"][n] for n in names)
        assert opt.v.tobytes() == _joined(state["v"][n] for n in names)

    def test_step_allocates_no_model_sized_temporaries(self):
        # 4/4/128/512 at vocab 330, the decoder the benchmark's set-up
        # trains: 835 584 parameters, whose largest tensor is 256 KiB.
        cfg = M.ModelConfig(layers=4, heads=4, model_dim=128, inner_dim=512,
                            context=32, vocab_size=330)
        rng = np.random.default_rng(0)
        flat = rng.normal(0.0, 0.02, M.param_count(cfg)).astype(np.float32)
        grads = rng.normal(0.0, 1e-3, flat.size).astype(np.float32)
        opt = trainer.AdamW(flat, trainer.TrainingConfig())
        opt.step(flat, grads)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            opt.step(flat, grads)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestFlatTraining:
    @staticmethod
    def _setup():
        docs, v, _ = tiny_vocab_and_table(
            ["c d e f g h i j", "f g h c d", "c f g i j e", "j i h g"], vocab_size=30)
        cfg = M.ModelConfig(layers=2, heads=2, model_dim=16, inner_dim=32,
                            context=8, vocab_size=len(v))
        windows = trainer.windows_from_docs(docs, v, cfg.context)
        tc = trainer.TrainingConfig(batch_size=2, lr=1e-2, epochs=2, seed=7)
        return cfg, v, windows, tc

    def test_weights_equal_a_per_tensor_reference_loop(self):
        cfg, v, windows, tc = self._setup()
        ref = M.init_model(cfg, seed=3)
        params = {n: ref.weights[n] for n in M.param_shapes(cfg)}
        state = _new_state()
        rng = np.random.default_rng(tc.seed)
        for _ in range(tc.epochs):
            order = rng.permutation(len(windows))
            for start in range(0, len(order), tc.batch_size):
                batch = [windows[i] for i in order[start:start + tc.batch_size]]
                ids, mask, positions = trainer._pack(batch)
                _, grads = M.batch_loss(ref, ids, mask, positions=positions)
                trainer.clip_global_norm(grads, trainer.GRAD_CLIP_NORM)
                _per_tensor_adamw_step(state, params, grads, tc.lr)
                ref.step += 1

        ckpt = M.init_model(cfg, seed=3)
        trainer.train(ckpt, [], v, tc, windows=windows)
        assert ckpt.step == ref.step > 0

        def digest(c):
            return hashlib.sha256(_joined(c.weights[n] for n in M.param_shapes(cfg))).hexdigest()
        assert digest(ckpt) == digest(ref)

    def test_trained_weights_are_one_buffer_and_the_head_stays_tied(self, tmp_path):
        cfg, v, windows, tc = self._setup()
        ckpt = M.init_model(cfg, seed=3)
        trainer.train(ckpt, [], v, tc, windows=windows)
        flat = ckpt.weights["tok_emb"].base
        assert flat.shape == (M.param_count(cfg),)
        assert all(ckpt.weights[n].base is flat for n in M.param_shapes(cfg))
        assert flat.tobytes() == _joined(ckpt.weights[n] for n in M.param_shapes(cfg))
        assert_head_reads_tok_emb(ckpt)
        path = tmp_path / "m.ckpt"
        M.save_checkpoint(path, ckpt)
        ids = [1, 2, 3, 4, 5, 6]
        npt.assert_array_equal(M.forward(ckpt, ids), M.forward(M.load_checkpoint(path), ids))

    def test_checkpoint_of_bare_weights_trains_like_init_model(self, tmp_path):
        # The head needs no tie attached to the weights when a run rebinds them.
        cfg, v, windows, tc = self._setup()
        ref = M.init_model(cfg, seed=3)
        bare = M.Checkpoint(cfg, {n: ref.weights[n].copy() for n in M.param_shapes(cfg)})
        for name, ckpt in (("ref", ref), ("bare", bare)):
            trainer.train(ckpt, [], v, tc, windows=windows)
            M.save_checkpoint(tmp_path / name, ckpt)
        ids = [1, 2, 3, 4, 5, 6]
        got, want = (M.forward(M.load_checkpoint(tmp_path / n), ids) for n in ("bare", "ref"))
        assert got.tobytes() == want.tobytes()

    def test_batch_loss_gradients_view_one_buffer(self):
        cfg = M.toy_config()
        ckpt = M.init_model(cfg, seed=0)
        ids = np.array([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]])
        _, grads = M.batch_loss(ckpt, ids, np.ones_like(ids, dtype=bool))
        flat = grads["tok_emb"].base
        assert flat.shape == (M.param_count(cfg),)
        assert list(grads) == list(M.param_shapes(cfg))
        assert all(grads[n].base is flat for n in grads)
        assert flat.tobytes() == _joined(grads.values())


class TestTrainingConfigFile:
    def test_defaults_match_published_setup(self):
        tc = trainer.TrainingConfig()
        assert tc.lr == 5e-5
        assert (trainer.ADAM_BETA1, trainer.ADAM_BETA2, trainer.ADAM_EPS) == (0.9, 0.999, 1e-8)
        assert trainer.WEIGHT_DECAY == 0.01
        assert trainer.GRAD_CLIP_NORM == 1.0
        assert tc.seed == 87_178_291_199


class TestTrainingConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(epochs=-3), dict(epochs=0), dict(batch_size=0),
        dict(batch_size=-1, epochs=2),
    ], ids=["epochs-3", "epochs0", "batch0", "batch-1"])
    def test_nonpositive_epochs_or_batch_size_rejected(self, kwargs):
        with pytest.raises(trainer.TrainingError, match="must be at least 1"):
            trainer.TrainingConfig(**kwargs)

    @pytest.mark.parametrize("lr", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_nonpositive_or_nonfinite_lr_rejected(self, lr):
        with pytest.raises(trainer.TrainingError, match="lr must be finite and positive"):
            trainer.TrainingConfig(lr=lr)

    def test_negative_seed_rejected(self):
        # numpy's default_rng would reject it only when the first shuffle is drawn.
        with pytest.raises(trainer.TrainingError, match="seed must be non-negative"):
            trainer.TrainingConfig(seed=-1)


def _window(ids, real):
    """A window whose mask is set exactly at the positions in ``real``."""
    mask = np.zeros(len(ids), dtype=bool)
    mask[list(real)] = True
    return trainer.Window(ids=np.asarray(ids, dtype=np.int64), mask=mask)


def _stack_one_per_row(batch):
    """The reference layout ``_pack`` replaces: one row per window, cut
    after the last column in which any mask is set."""
    ids = np.stack([w.ids for w in batch])
    mask = np.stack([w.mask for w in batch])
    end = np.flatnonzero(mask.any(axis=0))[-1] + 1
    return ids[:, :end], mask[:, :end]


def _perturbed_float64(cfg, seed):
    ckpt = M.init_model(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed)
    for name in M.param_shapes(cfg):
        ckpt.weights[name] += rng.normal(0.0, 0.1, size=ckpt.weights[name].shape)
    return ckpt


def _windows(rng, n, reals):
    return [_window(rng.integers(0, 50, n), real) for real in reals]


N = 12  # window length of the packer cases; toy_config's context is 16
PACK_CASES = {
    # Column 2 of the second window is a hole inside its prefix.
    "holes": [range(3), [0, 1, 3, 4], range(2), [0, 1, 2, 5, 6, 7, 8]],
    "single_target": [range(2), range(2), range(7), [0, 4], range(3)],
    "full_windows": [range(N), range(5), range(N), range(N), range(6)],
    "none_fit": [range(7), range(9), range(N), range(8)],
    "ragged": [range(1), range(N), range(4), [0, 2, 3], range(10), range(5),
               range(2), [1, 5], range(11), range(3)],
}


class TestPack:
    @pytest.mark.parametrize("case", PACK_CASES)
    def test_loss_and_gradients_match_one_window_per_row(self, case):
        cfg = M.toy_config()
        ckpt = _perturbed_float64(cfg, seed=4)
        windows = _windows(np.random.default_rng(4), N, PACK_CASES[case])
        ref_loss, ref_grads = M.batch_loss(ckpt, *_stack_one_per_row(windows))
        ids, mask, positions = trainer._pack(windows)
        loss, grads = M.batch_loss(ckpt, ids, mask, positions=positions)
        assert abs(loss - ref_loss) <= 1e-12
        for name in M.param_shapes(cfg):
            npt.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12,
                                err_msg=name)

    @pytest.mark.parametrize("case", PACK_CASES)
    def test_each_window_whole_in_one_row(self, case):
        windows = _windows(np.random.default_rng(5), N, PACK_CASES[case])
        ids, mask, positions = trainer._pack(windows)
        assert ids.shape == mask.shape == positions.shape
        assert ids.shape[1] <= N
        assert len(ids) <= len(windows)
        assert mask[:, 1:].sum() == sum(int(w.mask[1:].sum()) for w in windows)
        starts = set(zip(*np.nonzero(positions == 0)))
        for w in windows:
            length = int(np.flatnonzero(w.mask)[-1]) + 1
            found = [
                (r, c) for r, c in sorted(starts)
                if c + length <= ids.shape[1]
                and np.array_equal(ids[r, c:c + length], w.ids[:length])
                and np.array_equal(positions[r, c:c + length], np.arange(length))
                and not mask[r, c]
                and np.array_equal(mask[r, c + 1:c + length], w.mask[1:length])
            ]
            assert found, "window not laid out whole in one row"
            starts.remove(found[0])
        assert not starts  # every window start belongs to a window

    def test_window_with_no_set_mask_is_left_out(self):
        cfg = M.toy_config()
        ckpt = _perturbed_float64(cfg, seed=10)
        rng = np.random.default_rng(10)
        windows = _windows(rng, N, [range(5), range(N), [0, 3]])
        empty = _window(rng.integers(0, 50, N), [])
        packed = trainer._pack(windows)
        with_empty = trainer._pack(windows[:1] + [empty] + windows[1:])
        for a, b in zip(packed, with_empty):
            npt.assert_array_equal(a, b)
        loss, grads = M.batch_loss(ckpt, packed[0], packed[1], positions=packed[2])
        again, regrads = M.batch_loss(ckpt, with_empty[0], with_empty[1],
                                      positions=with_empty[2])
        assert again == loss
        for name in M.param_shapes(cfg):
            npt.assert_array_equal(regrads[name], grads[name], err_msg=name)
        ids, mask, positions = trainer._pack([empty, empty])
        assert ids.shape == mask.shape == positions.shape == (0, 0)
        with pytest.raises(M.ModelError, match="no unmasked target positions"):
            M.batch_loss(ckpt, ids, mask, positions=positions)

    def test_holes_are_kept_and_the_tail_is_cut(self):
        windows = [
            _window([1, 2, 3, 0, 0, 0, 0, 0], range(3)),
            _window([4, 5, 0, 6, 7, 0, 0, 0], [0, 1, 3, 4]),  # hole at column 2
            _window([8, 9, 0, 0, 0, 0, 0, 0], range(2)),
        ]
        ids, mask, positions = trainer._pack(windows)
        # Longest first: 5 + 3 tokens fill the first row; the second row's
        # tail is filler that continues its window's positions.
        npt.assert_array_equal(ids, [[4, 5, 0, 6, 7, 1, 2, 3], [8, 9, 0, 0, 0, 0, 0, 0]])
        npt.assert_array_equal(mask, [[0, 1, 0, 1, 1, 0, 1, 1], [0, 1, 0, 0, 0, 0, 0, 0]])
        npt.assert_array_equal(positions, [[0, 1, 2, 3, 4, 0, 1, 2], list(range(8))])
        ids, mask, positions = trainer._pack([windows[0], windows[2]])
        npt.assert_array_equal(ids, [[1, 2, 3, 8, 9]])  # cut after 3 + 2 tokens
        npt.assert_array_equal(positions, [[0, 1, 2, 0, 1]])

    def test_no_two_windows_fit_one_row(self):
        windows = _windows(np.random.default_rng(6), N, PACK_CASES["none_fit"])
        ids, mask, positions = trainer._pack(windows)
        assert ids.shape == (4, N)
        npt.assert_array_equal(positions, np.broadcast_to(np.arange(N), ids.shape))

    def test_filler_is_seen_by_no_real_position(self):
        cfg = M.toy_config()
        ckpt = _perturbed_float64(cfg, seed=8)
        windows = _windows(np.random.default_rng(8), N, [range(N), range(5)])
        ids, mask, positions = trainer._pack(windows)
        assert ids.shape == (2, N)  # the 5-token window's row ends in filler
        other = ids.copy()
        other[1, 5:] = (other[1, 5:] + 1) % cfg.vocab_size
        loss, _ = M.batch_loss(ckpt, ids, mask, positions=positions)
        assert M.batch_loss(ckpt, other, mask, positions=positions)[0] == loss

    def test_mean_epoch_loss_skips_chunks_with_no_target(self):
        ckpt = _perturbed_float64(M.toy_config(), seed=9)
        rng = np.random.default_rng(9)
        first = _window(rng.integers(0, 50, N), range(N))
        tail = _window(rng.integers(0, 50, N), [0])  # one token: no target
        windows = [first] + [tail] * trainer.EVAL_BATCH_SIZE  # the last chunk is tails only
        got = trainer.mean_epoch_loss(ckpt, windows)
        assert abs(got - trainer.lm_loss(ckpt, first)) <= 1e-12
        with pytest.raises(trainer.TrainingError, match="no window has a target"):
            trainer.mean_epoch_loss(ckpt, [tail])

    def test_mean_epoch_loss_weights_each_target(self):
        ckpt = _perturbed_float64(M.toy_config(), seed=9)
        rng = np.random.default_rng(9)
        windows = [_window(rng.integers(0, 50, N), range(rng.integers(2, N + 1)))
                   for _ in range(2 * trainer.EVAL_BATCH_SIZE + 3)]
        counts = [int(w.mask[1:].sum()) for w in windows]
        expected = sum(trainer.lm_loss(ckpt, w) * c for w, c in zip(windows, counts))
        got = trainer.mean_epoch_loss(ckpt, windows)
        assert abs(got - expected / sum(counts)) <= 1e-12


class TestBatchLossPositions:
    def test_unpacked_batch_unchanged(self):
        # Recorded under the ReLU feed-forward, without positions; the
        # unpacked path must keep computing exactly this.
        cfg = M.toy_config()
        ckpt = _perturbed_float64(cfg, seed=4)
        rng = np.random.default_rng(4)
        for name in M.param_shapes(cfg):  # the draws that seeded the record
            rng.normal(0.0, 0.1, size=ckpt.weights[name].shape)
        ids = rng.integers(0, cfg.vocab_size, (3, 12))
        mask = np.arange(12) < np.array([[12], [7], [2]])
        mask[1, 3] = False
        loss, grads = M.batch_loss(ckpt, ids, mask)
        digest = hashlib.sha256(
            b"".join(grads[n].tobytes() for n in M.param_shapes(cfg))).hexdigest()
        assert loss.hex() == "0x1.03fafa604c3a7p+2"
        assert digest == "896e535f1f4d922d667abad72b36a1d8054a92f44176af64c03e495017093103"

    def test_one_window_per_row_positions_change_nothing(self):
        cfg = M.toy_config()
        ckpt = _perturbed_float64(cfg, seed=5)
        rng = np.random.default_rng(5)
        ids = rng.integers(0, cfg.vocab_size, (3, 10))
        mask = rng.random((3, 10)) < 0.8
        positions = np.broadcast_to(np.arange(10), ids.shape)
        loss, grads = M.batch_loss(ckpt, ids, mask)
        packed_loss, packed_grads = M.batch_loss(ckpt, ids, mask, positions=positions)
        assert packed_loss == loss
        for name in grads:
            npt.assert_array_equal(packed_grads[name], grads[name])

    @pytest.mark.parametrize("positions, message", [
        ([[0, 1, 2, 0, 1]], "first column"),
        ([[0, 1, 2, 3]], "positions must match"),
        ([[0, 1, 2, 3, 5]], "positions must match"),
        ([[0, 1, -1, 0, 1]], "positions must match"),
    ], ids=["target_at_window_start", "too_few", "past_the_row", "negative"])
    def test_bad_positions_rejected(self, positions, message):
        ckpt = M.init_model(M.toy_config(), seed=0)
        ids, mask = np.array([[1, 2, 3, 4, 5]]), np.ones((1, 5), dtype=bool)
        with pytest.raises(M.ModelError, match=message):
            M.batch_loss(ckpt, ids, mask, positions=positions)


class TestGradientBuffer:
    def test_reused_buffer_carries_nothing_over(self):
        cfg = M.toy_config()
        ckpt = _perturbed_float64(cfg, seed=6)
        rng = np.random.default_rng(6)
        batches = [trainer._pack(_windows(rng, N, PACK_CASES[case]))
                   for case in ("ragged", "holes")]
        out = np.full(M.param_count(cfg), np.nan)
        for ids, mask, positions in batches:
            _, fresh = M.batch_loss(ckpt, ids, mask, positions=positions)
            _, grads = M.batch_loss(ckpt, ids, mask, positions=positions, out=out)
            assert all(g.base is out for g in grads.values())
            assert out.tobytes() == _joined(fresh.values())

    # Each a change of a valid buffer of the toy model's float32 gradients.
    BAD_BUFFERS = {
        "dict": lambda cfg, out: M.flat_views(cfg, out),
        "missing": lambda cfg, out: out[:-1],
        "shape": lambda cfg, out: out.reshape(1, -1),
        "dtype": lambda cfg, out: out.astype(np.float64),
    }

    @pytest.mark.parametrize("change", BAD_BUFFERS.values(), ids=BAD_BUFFERS.keys())
    def test_bad_buffer_rejected(self, change):
        cfg = M.toy_config()
        ckpt = M.init_model(cfg, seed=0)
        out = change(cfg, np.zeros(M.param_count(cfg), dtype=np.float32))
        ids = np.array([[1, 2, 3, 4, 5]])
        with pytest.raises(M.ModelError, match="out must be a 1-D array"):
            M.batch_loss(ckpt, ids, np.ones_like(ids, dtype=bool), out=out)
