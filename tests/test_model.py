import io
import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy import special

from ctrlkit import model as M
from tests.conftest import assert_head_reads_tok_emb, common_prefix, perturbed_checkpoint


class TestConfig:
    def test_full_scale_preset(self):
        cfg = M.full_scale_config()
        assert (cfg.layers, cfg.heads) == (48, 16)
        assert (cfg.model_dim, cfg.inner_dim, cfg.context) == (640, 4096, 256)
        assert cfg.vocab_size == 256_000 + 74 + 2

    def test_dim_not_divisible_rejected(self):
        with pytest.raises(M.ModelError):
            M.ModelConfig(layers=1, heads=3, model_dim=8, inner_dim=16,
                          context=8, vocab_size=10)

    def test_one_position_context_rejected(self):
        with pytest.raises(M.ModelError, match="context must be at least 2"):
            M.ModelConfig(layers=1, heads=2, model_dim=8, inner_dim=16,
                          context=1, vocab_size=10)


class TestInit:
    def test_deterministic(self):
        cfg = M.toy_config()
        a = M.init_model(cfg, seed=42)
        b = M.init_model(cfg, seed=42)
        for name in M.param_shapes(cfg):
            npt.assert_array_equal(a.weights[name], b.weights[name])

    def test_toy_config_smoke(self):
        ckpt = M.init_model(M.toy_config(), seed=0)
        out = M.forward(ckpt, [1, 2, 3])
        assert out.shape == (3, 50)

    def test_tied_embedding_aliases_storage(self):
        assert_head_reads_tok_emb(M.init_model(M.toy_config(), seed=0))

    def test_checkpoint_attaches_tied_head(self):
        cfg = M.toy_config()
        ref = M.init_model(cfg, seed=0)
        weights = {n: ref.weights[n].copy() for n in M.param_shapes(cfg)}
        ckpt = M.Checkpoint(cfg, weights)
        npt.assert_array_equal(M.forward(ckpt, [1, 2, 3]), M.forward(ref, [1, 2, 3]))


class TestForward:
    def test_output_shape(self):
        ckpt = M.init_model(M.toy_config(), seed=1)
        ids = [0, 4, 9, 2]
        assert M.forward(ckpt, ids).shape == (4, 50)

    def test_causality(self):
        ckpt = perturbed_checkpoint(M.toy_config(), dtype=np.float32)
        rng = np.random.default_rng(0)
        ids = list(rng.integers(0, 50, size=12))
        base = M.forward(ckpt, ids)
        for j in [4, 8, 11]:
            changed = list(ids)
            changed[j] = (changed[j] + 1) % 50
            out = M.forward(ckpt, changed)
            npt.assert_array_equal(out[:j], base[:j])

    def test_pure_and_bitwise_repeatable(self):
        ckpt = M.init_model(M.toy_config(), seed=3)
        ids = [1, 2, 3, 4, 5]
        npt.assert_array_equal(M.forward(ckpt, ids), M.forward(ckpt, ids))

    def test_softmax_rows_sum_to_one(self):
        ckpt = perturbed_checkpoint(M.toy_config(), dtype=np.float32)
        logits = M.forward(ckpt, [3, 1, 4, 1, 5])
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        npt.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(np.isfinite(logits))

    def test_pad_values_beyond_real_tokens_do_not_matter(self):
        # Causal attention means trailing positions cannot leak backwards.
        ckpt = perturbed_checkpoint(M.toy_config(), dtype=np.float32)
        real = [7, 3, 9]
        a = M.forward(ckpt, real + [0, 0, 0])
        b = M.forward(ckpt, real + [5, 1, 2])
        npt.assert_array_equal(a[:3], b[:3])

    @pytest.mark.parametrize("ids, match", [
        ([[1, 2], [3, 4]], "flat id sequence"),
        ([], "at least one token"),
    ])
    def test_malformed_ids_rejected(self, ids, match):
        ckpt = M.init_model(M.toy_config(), seed=0)
        with pytest.raises(M.ModelError, match=match):
            M.forward(ckpt, ids)

    def test_too_long_sequence_rejected(self):
        cfg = M.toy_config()
        ckpt = M.init_model(cfg, seed=0)
        with pytest.raises(M.ModelError):
            M.forward(ckpt, [0] * (cfg.context + 1))

    @pytest.mark.parametrize("bad", [-1, 50])
    def test_out_of_range_id_rejected_by_batch_loss(self, bad):
        ckpt = M.init_model(M.toy_config(), seed=0)
        ids = np.array([[3, bad, 4]])
        with pytest.raises(M.ModelError, match="vocabulary range"):
            M.batch_loss(ckpt, ids, np.ones_like(ids, dtype=bool))

    @pytest.mark.parametrize("mask_shape", [(2, 3), (2, 7), (3, 5), (1, 5), (5,), (10,)])
    def test_mask_of_another_shape_rejected_by_batch_loss(self, mask_shape):
        ckpt = M.init_model(M.toy_config(), seed=0)
        ids = np.arange(10).reshape(2, 5)
        with pytest.raises(M.ModelError, match="mask of shape"):
            M.batch_loss(ckpt, ids, np.ones(mask_shape, dtype=bool))

    def test_one_row_of_ids_and_mask_promoted_together(self):
        ckpt = M.init_model(M.toy_config(), seed=0)
        ids = np.array([3, 1, 4, 1, 5])
        got = M.batch_loss(ckpt, ids, ids > 1, compute_grads=False)[0]
        assert got == M.batch_loss(ckpt, ids[None], ids[None] > 1, compute_grads=False)[0]
        with pytest.raises(M.ModelError, match="mask of shape"):
            M.batch_loss(ckpt, ids, (ids > 1)[None])


class TestLogSoftmax:
    def test_matches_scipy(self):
        x = np.random.default_rng(0).normal(0.0, 5.0, size=(3, 4, 50))
        npt.assert_allclose(M.log_softmax(x), special.log_softmax(x, axis=-1),
                            rtol=0, atol=1e-12)

    def test_rows_logsumexp_to_zero(self):
        x = np.random.default_rng(1).normal(0.0, 5.0, size=(6, 50))
        npt.assert_allclose(special.logsumexp(M.log_softmax(x), axis=-1), 0.0,
                            atol=1e-12)

    def test_finite_for_extreme_logits(self):
        out = M.log_softmax(np.array([[1e4, -1e4, 0.0], [-1e4, -1e4, -1e4]]))
        assert np.all(np.isfinite(out))
        npt.assert_allclose(out[0], [0.0, -2e4, -1e4])
        npt.assert_allclose(out[1], -np.log(3.0))

    def test_float32_input_gives_float64(self):
        x = np.random.default_rng(2).normal(size=(2, 50)).astype(np.float32)
        out = M.log_softmax(x)
        assert out.dtype == np.float64
        npt.assert_allclose(out, special.log_softmax(x.astype(np.float64), axis=-1),
                            rtol=0, atol=1e-12)


class TestSequenceLogprob:
    IDS = np.random.default_rng(8).integers(0, 50, size=12)

    @pytest.mark.parametrize("start", [1, 6, 11])
    def test_matches_per_position_forward_loop(self, start):
        ckpt = perturbed_checkpoint(M.toy_config())
        want = sum(
            special.log_softmax(M.forward(ckpt, self.IDS[:j])[-1])[self.IDS[j]]
            for j in range(start, len(self.IDS))
        )
        got = M.sequence_logprob(ckpt, self.IDS, start=start)
        assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("start", [0, 12])
    def test_start_outside_sequence_rejected(self, start):
        with pytest.raises(M.ModelError):
            M.sequence_logprob(perturbed_checkpoint(M.toy_config()), self.IDS, start)

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("bad", [-1, 50])
    def test_out_of_range_last_id_rejected(self, bad, cached):
        # The pass reads ids[..., :-1]; the last id is only a target.
        ckpt = perturbed_checkpoint(M.toy_config())
        kv = M.kv_cache(ckpt, 2) if cached else None
        ids = np.array([[1, 2, 3], [4, 5, bad]])
        if cached:
            M.sequence_logprob(ckpt, ids % 50, kv=kv)
            held = kv.ids.copy()
        with pytest.raises(M.ModelError, match="vocabulary range"):
            M.sequence_logprob(ckpt, ids, kv=kv)
        with pytest.raises(M.ModelError, match="vocabulary range"):
            M.sequence_logprob(ckpt, [1, 2, bad], start=2, kv=M.kv_cache(ckpt) if cached else None)
        if cached:
            npt.assert_array_equal(kv.ids, held)

    def test_stacked_rows_add_up(self):
        ckpt = perturbed_checkpoint(M.toy_config())
        batch = np.stack([self.IDS, self.IDS[::-1], (self.IDS + 1) % 50])
        want = sum(M.sequence_logprob(ckpt, row, start=4) for row in batch)
        assert abs(M.sequence_logprob(ckpt, batch, start=4) - want) <= 1e-12

    @pytest.mark.parametrize("prefill", [1, 3, 5])
    def test_prefilled_cache_matches_whole_sequence(self, prefill):
        ckpt = perturbed_checkpoint(M.toy_config())
        kv = M.kv_cache(ckpt)
        M.forward(ckpt, self.IDS[:prefill], kv)
        got = M.sequence_logprob(ckpt, self.IDS, start=6, kv=kv)
        assert abs(got - M.sequence_logprob(ckpt, self.IDS, start=6)) <= 1e-12
        npt.assert_array_equal(kv.ids, [self.IDS[:-1]])

    @pytest.mark.parametrize("held", ["longer", "unrelated", "empty", "equal"])
    def test_any_cache_contents_score_the_same(self, held):
        ckpt = perturbed_checkpoint(M.toy_config())
        kv = M.kv_cache(ckpt)
        prefill = {"longer": np.r_[self.IDS, 4, 4, 4], "unrelated": (self.IDS + 1) % 50,
                   "empty": [], "equal": self.IDS}[held]
        if len(prefill):
            M.forward(ckpt, prefill, kv)
        got = M.sequence_logprob(ckpt, self.IDS, start=6, kv=kv)
        assert abs(got - M.sequence_logprob(ckpt, self.IDS, start=6)) <= 1e-12

    def test_cached_ids_of_three_dimensions_rejected(self):
        ckpt = perturbed_checkpoint(M.toy_config())
        kv = M.kv_cache(ckpt)
        with pytest.raises(M.ModelError, match=r"one sequence or a \(rows, time\) stack"):
            M.forward(ckpt, self.IDS[None, None, :], kv)
        assert kv.ids.size == 0

    def test_cache_with_stacked_rows_rejected(self):
        ckpt = perturbed_checkpoint(M.toy_config())
        kv = M.kv_cache(ckpt)
        with pytest.raises(M.ModelError, match="2 id rows for a K/V cache of 1 rows"):
            M.sequence_logprob(ckpt, np.stack([self.IDS, self.IDS]), start=6, kv=kv)
        assert kv.ids.size == 0
        kv = M.kv_cache(ckpt, 2)
        M.forward(ckpt, np.stack([self.IDS, self.IDS[::-1]]), kv)
        for ids in (self.IDS, np.stack([self.IDS] * 3)):
            with pytest.raises(M.ModelError, match=f"{ids.ndim * 2 - 1} id rows for a K/V "
                                                   "cache of 2 rows"):
                M.forward(ckpt, ids, kv)
            npt.assert_array_equal(kv.ids, [self.IDS, self.IDS[::-1]])

    @pytest.mark.parametrize("columns", [0, -1, 17])
    def test_columns_outside_the_context_rejected(self, columns):
        with pytest.raises(M.ModelError, match=f"1..16 columns \\(the context\\), got {columns}$"):
            M.kv_cache(perturbed_checkpoint(M.toy_config()), 1, columns)

    @pytest.mark.parametrize("rows", [-1, -3])
    def test_negative_rows_rejected(self, rows):
        with pytest.raises(M.ModelError, match=f"0 or more rows, got {rows}$"):
            M.kv_cache(perturbed_checkpoint(M.toy_config()), rows)

    @pytest.mark.parametrize("rows, columns, width", [(1, 1, 1), (2, 16, 16), (0, None, 16)])
    def test_columns_within_the_context_allocated(self, rows, columns, width):
        kv = M.kv_cache(perturbed_checkpoint(M.toy_config()), rows, columns)
        assert {a.shape for pair in kv.layers for a in pair} == {(rows, 2, width, 4)}
        assert kv.ids.shape == (rows, 0)

    def test_cache_of_fewer_columns_than_the_context(self):
        ckpt = perturbed_checkpoint(M.toy_config())
        kv = M.kv_cache(ckpt, 1, 6)
        assert kv.layers[0][0].shape[2] == 6 < ckpt.config.context
        M.forward(ckpt, self.IDS[:4], kv)
        got = M.sequence_logprob(ckpt, self.IDS[:6], start=3, kv=kv)
        assert abs(got - M.sequence_logprob(ckpt, self.IDS[:6], start=3)) <= 1e-12
        with pytest.raises(M.ModelError, match="7 ids for a K/V cache of 6 columns"):
            M.forward(ckpt, self.IDS[:7], kv)
        npt.assert_array_equal(kv.ids, [self.IDS[:5]])


def _ctrl_reference(ckpt, ids):
    """Logits of CTRL's forward pass, written out in plain float64 numpy."""
    cfg, W = ckpt.config, ckpt.weights
    d, heads = cfg.model_dim, cfg.heads
    hd, t = d // heads, len(ids)

    def norm(x, name):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return W[name + ".g"] * (x - mu) / np.sqrt(var + 1e-5) + W[name + ".b"]

    col = np.arange(d)
    angle = np.arange(t)[:, None] / 10000.0 ** ((col - col % 2) / d)
    x = W["tok_emb"][ids] * np.sqrt(d) + np.where(col % 2 == 0, np.sin(angle), np.cos(angle))
    later = np.triu(np.ones((t, t), dtype=bool), k=1)
    for layer in range(cfg.layers):
        p = f"h{layer}.attn."
        h = norm(x, f"h{layer}.ln1")
        q, k, v = (h @ W[p + "w" + n] + W[p + "b" + n] for n in "qkv")
        outs = []
        for j in range(heads):
            c = slice(j * hd, (j + 1) * hd)
            s = q[:, c] @ k[:, c].T / np.sqrt(hd)
            s[later] = -np.inf
            a = np.exp(s - s.max(axis=-1, keepdims=True))
            outs.append(a / a.sum(axis=-1, keepdims=True) @ v[:, c])
        x = x + np.concatenate(outs, axis=1) @ W[p + "wo"] + W[p + "bo"]
        p = f"h{layer}.ffn."
        h = norm(x, f"h{layer}.ln2")
        x = x + np.maximum(0.0, h @ W[p + "w1"] + W[p + "b1"]) @ W[p + "w2"] + W[p + "b2"]
    return norm(x, "lnf") @ W["tok_emb"].T


class TestArchitecture:
    def test_forward_is_ctrl(self):
        # Two pre-norm blocks with a ReLU feed-forward; any other activation,
        # even one whose backward matched it, differs.
        ckpt = perturbed_checkpoint(M.toy_config())
        ids = np.random.default_rng(8).integers(0, 50, size=16)
        want = _ctrl_reference(ckpt, ids)
        npt.assert_allclose(M.forward(ckpt, ids), want, rtol=0, atol=1e-12)


def _pass_logits(ckpt, ids, rows, **kwargs):
    """The logits of the last ``rows`` columns one ``_forward_batch`` pass reads."""
    return M._head(ckpt, M._forward_batch(ckpt, ids, rows, **kwargs))


class TestLastBlockCut:
    """``rows`` below the time axis runs the last block on the read columns
    only; its logits equal the full pass's trailing rows in float64."""

    CFG = M.ModelConfig(layers=3, heads=2, model_dim=8, inner_dim=16,
                        context=16, vocab_size=50)
    IDS = np.random.default_rng(5).integers(0, 50, size=(3, 11))

    def test_ffn_runs_only_the_read_columns_in_the_last_block(self, monkeypatch):
        widths = []
        layer_norm = M._layer_norm

        def recording_layer_norm(x, g, b):
            widths.append(x.shape[1])
            return layer_norm(x, g, b)

        monkeypatch.setattr(M, "_layer_norm", recording_layer_norm)
        _pass_logits(perturbed_checkpoint(self.CFG), self.IDS, 2)
        # ln1 and ln2 of each block, then lnf; the last block's ln2 feeds its FFN.
        assert widths == [11, 11, 11, 11, 11, 2, 2]

    @pytest.mark.parametrize("n", [1, 4, 11])
    def test_matches_full_forward(self, n):
        ckpt = perturbed_checkpoint(self.CFG)
        full = _pass_logits(ckpt, self.IDS, self.IDS.shape[1])
        cut = _pass_logits(ckpt, self.IDS, n)
        assert cut.shape == (3, n, 50)
        npt.assert_allclose(cut, full[:, -n:], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("prefill, n", [(1, 1), (4, 3), (7, 4)])
    def test_matches_full_forward_with_kv_cache(self, prefill, n):
        ckpt = perturbed_checkpoint(self.CFG)
        ids = self.IDS[0]
        full = M.forward(ckpt, ids)
        kv = M.kv_cache(ckpt)
        npt.assert_allclose(M.forward(ckpt, ids[:prefill], kv), full[prefill - 1:prefill],
                            rtol=0, atol=1e-12)
        cut = _pass_logits(ckpt, ids[None, :], n, kv=kv)
        npt.assert_allclose(cut[0], full[-n:], rtol=0, atol=1e-12)
        npt.assert_array_equal(kv.ids, [ids])

    def test_recording_pass_records_every_column_of_every_block(self):
        ckpt = perturbed_checkpoint(self.CFG)
        records = []
        x = M._forward_batch(ckpt, self.IDS, 11, records=records)
        assert len(records) == self.CFG.layers
        assert all(r["act"].shape == (3, 11, self.CFG.inner_dim) for r in records)
        npt.assert_array_equal(M._head(ckpt, x), _pass_logits(ckpt, self.IDS, 11))


class TestOneColumnPass:
    """A one-column pass builds no attention mask: it has no later key and
    no other window.  With ``positions`` it still encodes its position, and
    a pass of several columns still hides the other windows."""

    CFG = TestLastBlockCut.CFG

    @pytest.mark.parametrize("rows", [lambda ids: ids.shape[1], lambda ids: 1],
                             ids=["every", "1"])
    def test_one_column_positions_pass_equals_forward(self, rows):
        ckpt = perturbed_checkpoint(self.CFG)
        ids = np.array([[7], [3]])
        got = _pass_logits(ckpt, ids, rows(ids), positions=np.zeros_like(ids))
        for row, token in zip(got, ids[:, 0]):
            npt.assert_allclose(row[0], M.forward(ckpt, [token])[0], rtol=0, atol=1e-12)

    def test_one_column_last_window_of_a_packed_row(self):
        ckpt = perturbed_checkpoint(self.CFG)
        ids = np.array([[4, 9, 2, 7]])
        got = _pass_logits(ckpt, ids, ids.shape[1], positions=np.array([[0, 1, 2, 0]]))
        npt.assert_allclose(got[0, 3], M.forward(ckpt, [7])[0], rtol=0, atol=1e-12)
        npt.assert_allclose(got[0, :3], M.forward(ckpt, [4, 9, 2]), rtol=0, atol=1e-12)


@st.composite
def cache_calls(draw):
    """Calls through one cache of 1-3 rows: (score, id rows, start, kept
    rows), each call's rows of one length over a 3-symbol alphabet, so rows
    share prefixes with their histories and with each other.  After each
    call the cache keeps the listed rows, and the next call has that many."""
    rows = draw(st.integers(1, 3))
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.integers(2, 16))
        ids = draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                            min_size=rows, max_size=rows))
        kept = draw(st.lists(st.integers(0, rows - 1), min_size=1, unique=True).map(sorted))
        calls.append((draw(st.booleans()), ids, draw(st.integers(1, 15)), kept))
        rows = len(kept)
    return calls


class TestKVCacheReuse:
    """A cache records the id rows it holds, and a pass reuses the shortest
    prefix any row shares with its new sequence, keeping every read column
    computed.  Whatever the cache held, and whichever rows left it, the
    results equal the cache-free pass."""

    CKPT = perturbed_checkpoint(M.toy_config())
    SLIDE = [0, 1, 2, 2, 1, 0, 0, 2, 1, 1, 0, 2, 2, 0, 1, 2]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(calls=cache_calls())
    @example(calls=[(False, [SLIDE], 1, [0]), (False, [SLIDE[1:] + [0]], 1, [0]),
                    (True, [SLIDE[1:] + [0]], 15, [0]), (False, [[1] * 16], 1, [0]),
                    (False, [[1] * 16], 1, [0])])
    @example(calls=[(False, [[0, 1, 2, 2, 0, 1]], 1, [0]), (True, [[0, 1, 0, 0, 1]], 2, [0]),
                    (False, [[0, 1]], 1, [0]), (True, [[0, 1, 0, 0, 1, 2, 2, 0]], 7, [0]),
                    (True, [[0, 1, 0, 0, 1, 2, 2, 0]], 1, [0])])
    @example(calls=[(False, [[0, 1, 2, 2], [0, 1, 2, 0], [1, 1, 1, 1]], 1, [0, 1, 2]),
                    (False, [[0, 1, 2, 2, 1], [0, 1, 2, 0, 0], [1, 1, 1, 1, 2]], 1, [1, 2]),
                    (True, [[0, 1, 2, 0, 0, 2], [1, 1, 1, 1, 2, 0]], 5, [1]),
                    (False, [[1, 1, 1, 1, 2, 0, 1]], 1, [0])])
    def test_any_call_sequence_matches_the_cache_free_pass(self, calls, computed_columns):
        ckpt = self.CKPT
        kv = M.kv_cache(ckpt, len(calls[0][1]))
        for score, ids, start, kept in calls:
            computed_columns.clear()
            held = kv.ids.tolist()
            ids = np.array(ids)
            if score:
                start = min(start, ids.shape[1] - 1)
                got = M.sequence_logprob(ckpt, ids, start=start, kv=kv)
                assert abs(got - M.sequence_logprob(ckpt, ids, start=start)) <= 1e-12
                seq, cap = ids[:, :-1], start - 1
            else:
                got = M.forward(ckpt, ids, kv)
                assert got.shape == (len(ids), ckpt.config.vocab_size)
                for row, want in zip(got, ids):
                    npt.assert_allclose(row, M.forward(ckpt, want)[-1], rtol=0, atol=1e-12)
                seq, cap = ids, ids.shape[1] - 1
            npt.assert_array_equal(kv.ids, seq)
            reused = min(min(common_prefix(h, s) for h, s in zip(held, seq)), cap)
            assert computed_columns[0] == seq.shape[1] - reused
            kv.keep(kept)
            npt.assert_array_equal(kv.ids, seq[kept])

    def test_keep_equals_prefilling_the_kept_rows_alone(self):
        rows = np.array([[3, 1, 4, 1, 5], [2, 7, 1, 8, 2], [3, 1, 4, 9, 9], [1, 1, 2, 3, 5]])
        for picks in ([0, 1, 2, 3], [1, 3], [2], [0, 3], []):
            kv = M.kv_cache(self.CKPT, len(rows))
            M.forward(self.CKPT, rows, kv)
            kv.keep(picks)
            npt.assert_array_equal(kv.ids, rows[picks])
            for b, pick in enumerate(picks):
                alone = M.kv_cache(self.CKPT)
                M.forward(self.CKPT, rows[pick], alone)
                for (k, v), (k1, v1) in zip(kv.layers, alone.layers):
                    assert k.shape[0] == v.shape[0] == len(picks)
                    npt.assert_array_equal(k[b, :, :5], k1[0, :, :5])
                    npt.assert_array_equal(v[b, :, :5], v1[0, :, :5])
            if picks:  # the kept rows decode on from where they were
                nxt = np.c_[rows[picks], np.arange(len(picks))]
                for got, ids in zip(M.forward(self.CKPT, nxt, kv), nxt):
                    npt.assert_allclose(got, M.forward(self.CKPT, ids)[-1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("picks", [[1, 0], [0, 0], [-1, 1], [0, 3], [[0, 1]], 1])
    def test_keep_rejects_rows_out_of_order_or_range(self, picks):
        rows = np.array([[3, 1, 4], [2, 7, 1], [3, 1, 2]])
        kv = M.kv_cache(self.CKPT, len(rows))
        M.forward(self.CKPT, rows, kv)
        before = [(k.copy(), v.copy()) for k, v in kv.layers]
        with pytest.raises(M.ModelError, match="rows to keep must increase within 0..2"):
            kv.keep(picks)
        npt.assert_array_equal(kv.ids, rows)
        for (k, v), (k0, v0) in zip(kv.layers, before):
            assert k.shape == k0.shape and v.shape == v0.shape
            npt.assert_array_equal(k[:, :, :3], k0[:, :, :3])
            npt.assert_array_equal(v[:, :, :3], v0[:, :, :3])

    def test_drop_allocates_nothing_of_context_size(self):
        cfg = M.ModelConfig(layers=2, heads=2, model_dim=32, inner_dim=16, context=64,
                            vocab_size=50)
        ckpt = M.init_model(cfg, seed=0)
        kv = M.kv_cache(ckpt, 48)
        buffers = [a for pair in kv.layers for a in pair]
        M.forward(ckpt, np.random.default_rng(0).integers(0, 50, size=(48, 20)), kv)
        kept = list(range(1, 48, 2))
        want = [a[kept, :, :20].copy() for a in buffers]
        tracemalloc.start()
        try:
            kv.keep(kept)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Less than one row of one layer's keys over the whole context.
        assert peak < buffers[0][0].nbytes
        for a, buffer, rows in zip((a for pair in kv.layers for a in pair), buffers, want):
            assert a.shape[0] == len(kept) and np.shares_memory(a, buffer)
            npt.assert_array_equal(a[:, :, :20], rows)

    def test_rejected_id_leaves_the_shared_prefix(self):
        kv = M.kv_cache(self.CKPT)
        M.forward(self.CKPT, [3, 1, 4, 1, 5], kv)
        with pytest.raises(M.ModelError, match="vocabulary range"):
            M.forward(self.CKPT, [3, 1, 4, 50, 9], kv)
        npt.assert_array_equal(kv.ids, [[3, 1, 4]])
        npt.assert_allclose(M.forward(self.CKPT, [3, 1, 4, 2], kv)[0],
                            M.forward(self.CKPT, [3, 1, 4, 2])[-1], rtol=0, atol=1e-12)

    def test_rejected_row_leaves_every_row_at_the_reused_prefix(self):
        kv = M.kv_cache(self.CKPT, 2)
        M.forward(self.CKPT, [[3, 1, 4, 1, 5], [3, 1, 2, 2, 2]], kv)
        with pytest.raises(M.ModelError, match="vocabulary range"):
            M.forward(self.CKPT, [[3, 1, 4, 50, 9], [3, 1, 2, 2, 2]], kv)
        npt.assert_array_equal(kv.ids, [[3, 1, 4], [3, 1, 2]])
        nxt = np.array([[3, 1, 4, 2], [3, 1, 2, 6]])
        got = M.forward(self.CKPT, nxt, kv)
        for row, ids in zip(got, nxt):
            npt.assert_allclose(row, M.forward(self.CKPT, ids)[-1], rtol=0, atol=1e-12)

    def test_pass_failing_midway_leaves_a_valid_cache(self, monkeypatch):
        layer_norm = M._layer_norm

        def failing_layer_norm(x, g, b):
            calls.append(1)
            if len(calls) == 2:  # layer 0's ln2, after it wrote its K/V
                raise FloatingPointError("late failure")
            return layer_norm(x, g, b)

        for rows in (1, 2):
            kv = M.kv_cache(self.CKPT, rows)
            M.forward(self.CKPT, [[3, 1, 4, 1, 5]] * rows, kv)
            calls = []
            monkeypatch.setattr(M, "_layer_norm", failing_layer_norm)
            with pytest.raises(FloatingPointError):
                M.forward(self.CKPT, [[3, 1, 7, 7, 7, 7]] * rows, kv)
            npt.assert_array_equal(kv.ids, [[3, 1]] * rows)
            monkeypatch.setattr(M, "_layer_norm", layer_norm)
            # Layer 0 had overwritten positions 2.. before the failure.
            want = M.forward(self.CKPT, [3, 1, 4, 1, 6])[-1]
            for got in M.forward(self.CKPT, [[3, 1, 4, 1, 6]] * rows, kv):
                npt.assert_allclose(got, want, rtol=0, atol=1e-12)


def _mixed_dtype_log_softmax(x, out=None):
    """The log-softmax whose subtraction read the logits in their own dtype
    and whose ``exp`` temporary was a new array: the bitwise oracle of the
    one that copies the logits into float64 first."""
    x = np.asarray(x)
    shifted = np.subtract(x, x.max(axis=-1, keepdims=True), dtype=np.float64, out=out)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


class TestLogSoftmaxOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(7,), (3, 50), (2, 3, 129), (4, 8193)],
                             ids=["row", "rows", "stack", "long-rows"])
    def test_bitwise_equal_to_the_mixed_dtype_formula(self, shape, dtype):
        x = np.random.default_rng(len(shape)).normal(0.0, 4.0, size=shape).astype(dtype)
        want = _mixed_dtype_log_softmax(x)
        assert M.log_softmax(x).tobytes() == want.tobytes()
        out, tmp = np.full(shape, np.nan), np.full(shape, np.nan)
        assert M.log_softmax(x, out=out, tmp=tmp) is out
        assert out.tobytes() == want.tobytes()

    def test_strided_input(self):
        x = np.random.default_rng(3).normal(size=(3, 9, 40)).astype(np.float32)[:, ::2, 1:]
        assert M.log_softmax(x).tobytes() == _mixed_dtype_log_softmax(x).tobytes()


class TestParamShapes:
    def test_one_read_only_mapping_per_config(self):
        cfg = M.toy_config()
        shapes = M.param_shapes(cfg)
        assert M.param_shapes(M.toy_config()) is shapes
        with pytest.raises(TypeError):
            shapes["tok_emb"] = (1, 1)
        with pytest.raises(TypeError):
            del shapes["lnf.g"]
        fresh = M.param_shapes.__wrapped__(cfg)  # built anew, not from the cache
        assert fresh is not shapes and dict(fresh) == dict(shapes)
        assert list(shapes) == list(fresh)
        assert len(shapes) == 1 + 16 * cfg.layers + 2
        assert M.param_count(cfg) == 1616


class TestParamCount:
    def test_toy_count_matches_hand_enumeration(self):
        # L=2, H=2, d=8, f=16, V=50:
        #   embedding              50*8        = 400
        #   per layer: ln1 2*8, attn 4*64+4*8, ln2 2*8,
        #              ffn 8*16+16+16*8+8      = 600
        #   final ln               2*8         = 16
        expected = 400 + 2 * (16 + 256 + 32 + 16 + 128 + 16 + 128 + 8) + 16
        assert M.param_count(M.toy_config()) == expected == 1616
        # The published preset, L=48, d=640, f=4096, V=256 076, by the same sum.
        d, f = 640, 4096
        per_layer = 2 * d + 4 * d * d + 4 * d + 2 * d + d * f + f + f * d + d
        expected = 256_076 * d + 48 * per_layer + 2 * d
        assert M.param_count(M.full_scale_config()) == expected == 494_664_448

    def test_doubling_inner_dim_delta(self):
        base = M.ModelConfig(layers=3, heads=2, model_dim=10, inner_dim=20,
                             context=8, vocab_size=40)
        wider = M.ModelConfig(layers=3, heads=2, model_dim=10, inner_dim=40,
                              context=8, vocab_size=40)
        delta_f = 20
        assert M.param_count(wider) - M.param_count(base) == 3 * (
            2 * 10 * delta_f + delta_f
        )

    def test_halved_dims_give_roughly_a_third(self):
        ours = M.ModelConfig(layers=48, heads=16, model_dim=640,
                             inner_dim=4096, context=256, vocab_size=256_037)
        original = M.ModelConfig(layers=48, heads=16, model_dim=1280,
                                 inner_dim=8192, context=256, vocab_size=256_037)
        ratio = M.param_count(ours) / M.param_count(original)
        assert 0.28 <= ratio <= 0.40


class TestGradients:
    def test_analytic_matches_finite_differences_sampled(self):
        """Central-difference spot check in float64; the full-tensor sweep
        lives in the acceptance suite."""
        cfg = M.toy_config()
        ckpt = perturbed_checkpoint(cfg)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, cfg.vocab_size, size=(2, 10))
        mask = np.ones_like(ids, dtype=bool)
        mask[1, 7:] = False
        _, grads = M.batch_loss(ckpt, ids, mask)
        eps = 1e-5
        probe_rng = np.random.default_rng(1)
        for name in M.param_shapes(cfg):
            flat = ckpt.weights[name].reshape(-1)
            picks = probe_rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for i in picks:
                orig = flat[i]
                flat[i] = orig + eps
                lp, _ = M.batch_loss(ckpt, ids, mask, compute_grads=False)
                flat[i] = orig - eps
                lm, _ = M.batch_loss(ckpt, ids, mask, compute_grads=False)
                flat[i] = orig
                num = (lp - lm) / (2 * eps)
                ana = grads[name].reshape(-1)[i]
                assert abs(num - ana) <= 1e-6 + 1e-4 * max(abs(num), abs(ana)), name

    def test_tied_embedding_receives_both_paths(self):
        # Zeroing either contribution must change the embedding gradient.
        cfg = M.toy_config()
        ckpt = perturbed_checkpoint(cfg)
        ids = np.array([[1, 2, 3, 4]])
        mask = np.ones_like(ids, dtype=bool)
        _, grads = M.batch_loss(ckpt, ids, mask)
        used = sorted({1, 2, 3, 4})
        unused = [i for i in range(cfg.vocab_size) if i not in used][0]
        # rows of unused tokens still get the output-projection gradient
        assert np.abs(grads["tok_emb"][unused]).sum() > 0
        assert np.abs(grads["tok_emb"][used]).sum() > 0


def _float_arrays(tree):
    """Every floating-point array in a nest of dicts, lists and tuples."""
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, (list, tuple)):
        return [a for item in tree for a in _float_arrays(item)]
    if isinstance(tree, np.ndarray) and tree.dtype.kind == "f":
        return [tree]
    return []


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestDtypeContract:
    """A pass computes in its checkpoint's dtype: no float64 scalar may widen
    a float32 pass."""

    IDS = [5, 1, 9, 3, 7, 2]

    def test_forward_logits(self, dtype):
        ckpt = perturbed_checkpoint(M.toy_config(), dtype=dtype)
        assert M.forward(ckpt, self.IDS).dtype == dtype
        kv = M.kv_cache(ckpt)
        assert M.forward(ckpt, self.IDS[:4], kv).dtype == dtype
        assert M.forward(ckpt, self.IDS[:5], kv).dtype == dtype
        assert {a.dtype for a in _float_arrays(kv.layers)} == {np.dtype(dtype)}

    def test_forward_cache(self, dtype):
        ckpt = perturbed_checkpoint(M.toy_config(), dtype=dtype)
        records = []
        x = M._forward_batch(ckpt, np.array([self.IDS]), len(self.IDS), records=records)
        arrays = _float_arrays(records) + [x]
        assert len(arrays) > 12 * ckpt.config.layers
        assert {a.dtype for a in arrays} == {np.dtype(dtype)}

    def test_batch_loss_gradients(self, dtype, monkeypatch):
        # Gradients are written into arrays of the weights' dtype, which would
        # hide a widened backward; every weight-gradient product shows it.
        operand_dtypes = set()
        wgrad = M._wgrad

        def recording_wgrad(a, b, out):
            operand_dtypes.update((a.dtype, b.dtype, out.dtype))
            return wgrad(a, b, out=out)

        monkeypatch.setattr(M, "_wgrad", recording_wgrad)
        cfg = M.toy_config()
        ckpt = perturbed_checkpoint(cfg, dtype=dtype)
        ids = np.array([self.IDS, self.IDS[::-1]])
        _, grads = M.batch_loss(ckpt, ids, np.ones_like(ids, dtype=bool))
        assert set(grads) == set(M.param_shapes(cfg))
        assert {g.dtype for g in grads.values()} == {np.dtype(dtype)}
        assert operand_dtypes == {np.dtype(dtype)}


def _mask_cases():
    """(batch, time) masks: tail padding, an interior hole, and a row with a
    single target (position 1)."""
    tail = np.ones((3, 10), dtype=bool)
    tail[1, 6:] = False
    tail[2, 8:] = False
    hole = np.ones((2, 10), dtype=bool)
    hole[0, 3:6] = False
    hole[1, 9:] = False
    single = np.ones((2, 10), dtype=bool)
    single[1, 2:] = False
    return {"tail-padding": tail, "interior-hole": hole, "single-target": single}


def _full_logits_batch_loss(ckpt, ids, mask):
    """Reference: logits, log-softmax and dlogits at every position of the
    untrimmed batch, non-targets carrying zero gradient, and the head's
    backward written out here."""
    W = ckpt.weights
    target_mask = mask[:, 1:]
    n_targets = int(target_mask.sum())
    records = []
    x = M._forward_batch(ckpt, ids, ids.shape[1], records=records)
    hf, lnf_cache = _layer_norm_oracle(x, W["lnf.g"], W["lnf.b"])
    logits = hf @ W["tok_emb"].T
    logz = M.log_softmax(logits[:, :-1, :])
    b_idx, t_idx = np.nonzero(target_mask)
    targets = ids[:, 1:][b_idx, t_idx]
    loss = -float(logz[b_idx, t_idx, targets].mean())
    probs = np.exp(logz)
    dpred = np.zeros_like(logits[:, :-1, :])
    dpred[b_idx, t_idx] = probs[b_idx, t_idx]
    dpred[b_idx, t_idx, targets] -= 1.0
    dpred /= n_targets
    dlogits = np.concatenate([dpred, np.zeros_like(logits[:, :1, :])], axis=1)
    grads = {n: np.zeros(s) for n, s in M.param_shapes(ckpt.config).items()}
    grads["tok_emb"] += np.einsum("btv,btd->vd", dlogits, hf)
    dx, grads["lnf.g"][:], grads["lnf.b"][:] = _layer_norm_backward_oracle(
        dlogits @ W["tok_emb"], W["lnf.g"], lnf_cache)
    M._backward_batch(ckpt, ids, records, dx, grads)
    return loss, grads


def _layer_norm_oracle(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    std = np.sqrt(var + M.LN_EPS)
    xhat = (x - mu) / std
    return g * xhat + b, (xhat, std)


def _layer_norm_backward_oracle(dy, g, cache):
    xhat, std = cache
    axes = tuple(range(dy.ndim - 1))
    dg = (dy * xhat).sum(axis=axes)
    db = dy.sum(axis=axes)
    dxhat = dy * g
    dx = (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    ) / std
    return dx, dg, db


def _softmax_oracle(x):
    e = x - np.max(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def _positional_encoding_oracle(context, model_dim, dtype, start):
    pos = np.arange(start, start + context, dtype=np.float64)[:, None]
    dim = np.arange(0, model_dim, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, dim / model_dim)
    pe = np.zeros((context, model_dim), dtype=np.float64)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe.astype(dtype)


def _assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    npt.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def _rows_with_a_constant_one(shape, dtype, seed):
    """Normal values over ``shape`` whose first row along the last axis is
    constant, so that its variance is zero."""
    x = np.random.default_rng(seed).normal(0.0, 3.0, size=shape).astype(dtype)
    x.reshape(-1, shape[-1])[0] = 1.25
    return x


class TestFastPaths:
    """Each fast path of the model pass and the training step against the
    slow form it replaced: bitwise in float32 and float64 where the new form
    keeps every operation, to 1e-12 in float64 where it reorders them."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(40,), (3, 5, 40), (2, 7, 128)])
    def test_layer_norm_and_backward_match_their_oracles(self, dtype, shape):
        x = _rows_with_a_constant_one(shape, dtype, 0)
        rng = np.random.default_rng(1)
        g, b, dy = (rng.normal(size=s).astype(dtype) for s in (shape[-1:], shape[-1:], shape))
        y, cache = M._layer_norm(x, g, b)
        want_y, want_cache = _layer_norm_oracle(x, g, b)
        for got, want in zip((y, *cache), (want_y, *want_cache)):
            _assert_bitwise(got, want)
        assert np.all(cache[0].reshape(-1, shape[-1])[0] == 0.0)  # the zero-variance row
        for got, want in zip(M._layer_norm_backward(dy, g, cache),
                             _layer_norm_backward_oracle(dy, g, want_cache)):
            _assert_bitwise(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, in_place", [
        pytest.param(shape, in_place, id=f"shape{i}" + "-in_place" * in_place)
        for in_place in (False, True)
        for i, shape in enumerate([(40,), (3, 5, 40), (2, 4, 6, 9)])])
    def test_softmax_matches_its_oracle(self, dtype, shape, in_place):
        x = _rows_with_a_constant_one(shape, dtype, 2)
        rows = x.reshape(-1, shape[-1])
        rows[1:, 1::3] = -np.inf  # masked scores, every row keeping some finite ones
        if len(rows) > 2:
            rows[2, :-1] = -np.inf
        want = _softmax_oracle(x.copy())
        got = M.softmax(x, out=x if in_place else None)
        assert (got is x) == in_place
        _assert_bitwise(got, want)

    @pytest.mark.parametrize("model_dim", [32, 128])
    def test_positional_encoding_matches_its_oracle(self, model_dim):
        differ = []
        for end in range(1, 257):
            for start in range(end):
                want = _positional_encoding_oracle(end - start, model_dim, np.float64, start)
                for dtype in (np.float64, np.float32):  # the oracle casts its float64 table
                    got = M.positional_encoding(end - start, model_dim, dtype, start)
                    assert not got.flags.writeable
                    if not (got.dtype == dtype and np.array_equal(
                            got.view(np.uint8), want.astype(dtype).view(np.uint8))):
                        differ.append((dtype.__name__, start, end - start))
        assert differ == []

    def test_positional_encoding_reuses_its_table(self):
        first = M.positional_encoding(100, 24, np.float32)
        assert first.base.shape == (128, 24)  # the power of two covering 100 positions
        tracemalloc.start()
        try:
            steps = [M.positional_encoding(1, 24, np.float32, start) for start in range(100, 128)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < first.base.nbytes
        assert all(step.base is first.base for step in steps)
        with pytest.raises(ValueError, match="read-only"):
            steps[0][0, 0] = 0.0

    def test_wgrad_matches_einsum(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 7, 5))
        b = rng.normal(size=(3, 7, 4))
        out = np.full((5, 4), np.nan)
        M._wgrad(a, b, out=out)
        npt.assert_allclose(out, np.einsum("btd,bte->de", a, b), rtol=0, atol=1e-12)

    def test_scatter_add_matches_add_at(self):
        rng = np.random.default_rng(1)
        ids = np.array([[4, 1, 4, 9], [0, 4, 1, 6]])  # 4 and 1 repeat; 9, 0, 6 once
        rows = rng.normal(size=(2, 4, 3))
        start = rng.normal(size=(10, 3))
        expected = start.copy()
        np.add.at(expected, ids.reshape(-1), rows.reshape(-1, 3))
        got = start.copy()
        M._scatter_add(got, ids, rows)
        npt.assert_allclose(got, expected, rtol=0, atol=1e-12)
        untouched = [2, 3, 5, 7, 8]
        npt.assert_array_equal(got[untouched], start[untouched])

    @pytest.mark.parametrize("case", list(_mask_cases()))
    def test_batch_loss_matches_full_logits_reference(self, case):
        mask = _mask_cases()[case]
        cfg = M.toy_config()
        ckpt = perturbed_checkpoint(cfg)
        ids = np.random.default_rng(2).integers(0, cfg.vocab_size, size=mask.shape)
        ref_loss, ref_grads = _full_logits_batch_loss(ckpt, ids, mask)
        loss, grads = M.batch_loss(ckpt, ids, mask)
        assert abs(loss - ref_loss) <= 1e-12
        assert M.batch_loss(ckpt, ids, mask, compute_grads=False)[0] == loss
        for name in M.param_shapes(cfg):
            npt.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12,
                                err_msg=name)


def _stacked_linear(x, w, b=None):
    """The forward pass's weight products as stacked ``@``: numpy runs one
    product per leading index of ``x``."""
    return x @ w if b is None else x @ w + b


def _assert_float32_close(got, want):
    """Equal up to the float32 rounding that regrouped sums of products
    carry through a two-block pass: a few ulps of the largest value."""
    assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
    bound = 16 * np.finfo(np.float32).eps * np.abs(want).max()
    assert np.abs(got.astype(np.float64) - want).max() <= bound


class TestTwoDimensionalProducts:
    """Each weight product of the forward pass is one 2-D product over
    every (row, column) pair; held to the stacked products within float32
    rounding, and its temporaries bounded."""

    CFG = M.ModelConfig(layers=2, heads=4, model_dim=32, inner_dim=64, context=48,
                        vocab_size=60)

    @staticmethod
    def _stacked_windows(ckpt):
        ids = np.random.default_rng(4).integers(0, 60, size=(8, 32))
        return [_pass_logits(ckpt, ids[:, :-1], 1)]

    @staticmethod
    def _one_column_per_row(ckpt):
        ids = np.random.default_rng(5).integers(0, 60, size=(4, 16))
        kv = M.kv_cache(ckpt, 4)
        return [M.forward(ckpt, ids[:, :end], kv) for end in range(10, 17)]

    @staticmethod
    def _packed_batch_loss(ckpt):
        rng = np.random.default_rng(6)
        ids = rng.integers(0, 60, size=(3, 24))
        positions = np.array([list(range(10)) + list(range(14)),
                              list(range(24)),
                              list(range(5)) + list(range(12)) + list(range(7))])
        mask = positions > 0  # a window's first column is no target
        mask[2, 20:] = False
        loss, grads = M.batch_loss(ckpt, ids, mask, positions=positions)
        return [np.float32(loss)] + [grads[n] for n in M.param_shapes(ckpt.config)]

    @pytest.mark.parametrize("case", ["_stacked_windows", "_one_column_per_row",
                                      "_packed_batch_loss"])
    def test_matches_the_stacked_products(self, case, monkeypatch):
        ckpt = perturbed_checkpoint(self.CFG, dtype=np.float32)
        got = getattr(self, case)(ckpt)
        monkeypatch.setattr(M, "_linear", _stacked_linear)
        want = getattr(self, case)(ckpt)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_float32_close(np.asarray(g), np.asarray(w))

    def test_prefill_temporaries_are_bounded(self):
        """Bias, residual and softmax are applied in place on each fresh
        product: 8 stacked windows of 31 columns peak below 5.5 times one
        (rows * columns, inner) float32 activation (4.8 times here; a new
        array per epilogue makes it 6.6 times)."""
        cfg = M.ModelConfig(layers=4, heads=4, model_dim=128, inner_dim=512, context=256,
                            vocab_size=300)
        ckpt = M.init_model(cfg, seed=0)
        ids = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(8, 32))
        want = M.sequence_logprob(ckpt, ids, start=31)  # builds the positional table
        tracemalloc.start()
        try:
            got = M.sequence_logprob(ckpt, ids, start=31)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 5.5 * (8 * 31 * cfg.inner_dim * 4)


def test_head_buffers_are_freed_before_the_backward(monkeypatch):
    """The head's (targets, vocab) logits and log-probabilities are gone
    when the blocks' backward starts: it begins from the rows' gradient."""
    cfg = M.ModelConfig(layers=1, heads=2, model_dim=8, inner_dim=16, context=16,
                        vocab_size=4000)
    ckpt = M.init_model(cfg, seed=0)
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(2, 16))
    out = np.empty(M.param_count(cfg), dtype=np.float32)
    largest = []
    backward = M._backward_batch

    def recording(*args):
        largest.append(max(trace.size for trace in tracemalloc.take_snapshot().traces))
        return backward(*args)

    monkeypatch.setattr(M, "_backward_batch", recording)
    tracemalloc.start()
    try:
        M.batch_loss(ckpt, ids, np.ones_like(ids, dtype=bool), out=out)
    finally:
        tracemalloc.stop()
    assert len(largest) == 1
    assert largest[0] < 30 * cfg.vocab_size * 4  # 30 targets of float32 logits


def _full_array_head(ckpt, x, targets=None, grads=None, work=None):
    """The head whose float64 work ran on every row at once and whose
    ``tok_emb`` gradient was a fresh product added to ``grads``: the
    oracle of the blocked one.  ``work`` is ignored."""
    W = ckpt.weights
    hf, lnf_cache = M._layer_norm(x, W["lnf.g"], W["lnf.b"])
    logits = M._linear(hf, W["tok_emb"].T)
    if targets is None:
        return logits
    logz = M.log_softmax(logits)
    at = (*np.indices(targets.shape, sparse=True), targets)
    logp = logz[at]
    if grads is None:
        return logp
    dlogits = np.exp(logz, out=logz)
    dlogits[at] -= 1.0
    dlogits /= targets.size
    np.copyto(logits, dlogits, casting="same_kind")
    _adding_wgrad(logits, hf, out=grads["tok_emb"])
    dx, dg, db = M._layer_norm_backward(M._linear(logits, W["tok_emb"]), W["lnf.g"], lnf_cache)
    grads["lnf.g"] += dg
    grads["lnf.b"] += db
    return logp, dx


def _adding_wgrad(a, b, out):
    """The weight-gradient product made as a new array and added to ``out``."""
    out += a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _negative_zero_count(a):
    return int(np.count_nonzero((a == 0) & np.signbit(a)))


class TestBlockedHead:
    """The head's float64 work in row blocks, and weight gradients written
    into the zeroed buffer, against the full-array head and added products:
    the loss, every gradient and the scores keep their bits."""

    CFG = M.ModelConfig(layers=2, heads=2, model_dim=8, inner_dim=16, context=24,
                        vocab_size=40)

    @staticmethod
    def _results(ckpt, ids, mask, scored, start):
        loss, grads = M.batch_loss(ckpt, ids, mask)
        return loss, grads, M.sequence_logprob(ckpt, scored, start=start)

    def _assert_oracle_bits(self, ckpt, ids, mask, scored, start, monkeypatch):
        loss, grads, score = self._results(ckpt, ids, mask, scored, start)
        with monkeypatch.context() as patch:
            patch.setattr(M, "_head", _full_array_head)
            patch.setattr(M, "_wgrad", _adding_wgrad)
            want_loss, want_grads, want_score = self._results(ckpt, ids, mask, scored, start)
        assert loss.hex() == want_loss.hex()
        assert score.hex() == want_score.hex()
        for name in M.param_shapes(ckpt.config):
            assert grads[name].tobytes() == want_grads[name].tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4], ids=["one", "block-1", "block", "block+1"])
    def test_rows_around_one_block(self, rows, dtype, monkeypatch):
        monkeypatch.setattr(M, "HEAD_BLOCK", 3 * self.CFG.vocab_size + 5)  # 3 rows a block
        ckpt = perturbed_checkpoint(self.CFG, dtype=dtype)
        ids = np.random.default_rng(rows).integers(0, 40, size=(1, rows + 1))
        self._assert_oracle_bits(ckpt, ids, np.ones_like(ids, dtype=bool), ids, 1,
                                 monkeypatch)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", [1, 39], ids=["one-element", "vocab-1"])
    def test_vocabulary_larger_than_a_block_gives_a_row_a_block(self, block, dtype,
                                                                monkeypatch):
        monkeypatch.setattr(M, "HEAD_BLOCK", block)
        ckpt = perturbed_checkpoint(self.CFG, dtype=dtype)
        ids = np.random.default_rng(5).integers(0, 40, size=(3, 9))
        mask = np.ones_like(ids, dtype=bool)
        mask[1, 6:] = False
        self._assert_oracle_bits(ckpt, ids, mask, ids, 3, monkeypatch)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacked_targets_over_blocks_and_a_rest(self, dtype, monkeypatch):
        # A (4, 17) stack scored from column 5: (4, 12) targets, blocks of 5.
        monkeypatch.setattr(M, "HEAD_BLOCK", 5 * self.CFG.vocab_size)
        ckpt = perturbed_checkpoint(self.CFG, dtype=dtype)
        ids = np.random.default_rng(6).integers(0, 40, size=(4, 17))
        mask = np.ones_like(ids, dtype=bool)
        mask[:, 9] = False
        self._assert_oracle_bits(ckpt, ids, mask, ids, 5, monkeypatch)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_default_block(self, dtype, monkeypatch):
        step = M.HEAD_BLOCK // self.CFG.vocab_size  # rows of one block
        ckpt = perturbed_checkpoint(self.CFG, dtype=dtype)
        ids = np.random.default_rng(7).integers(0, 40, size=(step // 23 + 1, 24))
        assert ids.size - len(ids) > step  # more target rows than one block
        self._assert_oracle_bits(ckpt, ids, np.ones_like(ids, dtype=bool), ids, 1,
                                 monkeypatch)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_negative_zero_products(self, dtype, monkeypatch):
        """A dead ReLU unit (its activation 0 in every row), and a final
        layer-norm column pinned to minus the smallest subnormal, so that
        each of its products with the head's positive loss gradient rounds
        to -0.0 and the ``tok_emb`` product holds -0.0 entries.  Added to
        the zeroed buffer, a -0.0 product gave +0.0, and a written one must
        as well."""
        monkeypatch.setattr(M, "HEAD_BLOCK", 4 * self.CFG.vocab_size)
        ckpt = perturbed_checkpoint(self.CFG, dtype=dtype)
        W = ckpt.weights
        W["h1.ffn.w1"][:, 2] = 0.0
        W["h1.ffn.b1"][2] = -1.0
        W["lnf.g"][3] = 0.0
        W["lnf.b"][3] = -np.finfo(dtype).smallest_subnormal
        ids = np.random.default_rng(8).integers(0, 40, size=(2, 10))
        products, wgrad = [], M._wgrad

        def recording_wgrad(a, b, out):
            products.append(a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1]))
            wgrad(a, b, out=out)

        with monkeypatch.context() as patch:
            patch.setattr(M, "_wgrad", recording_wgrad)
            records = []
            M._forward_batch(ckpt, ids, ids.shape[1], records=records)
            assert np.all(records[1]["act"][..., 2] == 0.0)
            _, grads = M.batch_loss(ckpt, ids, np.ones_like(ids, dtype=bool))
        assert _negative_zero_count(products[0]) > 0  # the tok_emb product
        assert _negative_zero_count(grads["tok_emb"]) == 0
        self._assert_oracle_bits(ckpt, ids, np.ones_like(ids, dtype=bool), ids, 1,
                                 monkeypatch)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_wgrad_stores_positive_zero_for_a_negative_zero_product(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        a = np.full((4, 3), tiny, dtype=dtype)
        b = np.full((4, 2), -0.25, dtype=dtype)
        product = a.T @ b
        assert _negative_zero_count(product) == product.size
        out = np.full((3, 2), np.nan, dtype=dtype)
        M._wgrad(a, b, out=out)
        want = np.zeros((3, 2), dtype=dtype)
        want += product
        assert out.tobytes() == want.tobytes()


class TestHeadWork:
    """One ``HeadWork`` reused over calls of growing, then shrinking, row
    counts gives the bits of a fresh one per call."""

    CFG = M.ModelConfig(layers=1, heads=2, model_dim=8, inner_dim=16, context=24,
                        vocab_size=40)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", [30, 3 * 40 + 5], ids=["vocab>block", "3-row-blocks"])
    def test_reused_workspace_keeps_every_bit(self, block, dtype, monkeypatch):
        monkeypatch.setattr(M, "HEAD_BLOCK", block)
        ckpt = perturbed_checkpoint(self.CFG, dtype=dtype)
        rng = np.random.default_rng(11)
        work = M.HeadWork()
        for rows, t in [(1, 3), (2, 9), (3, 24), (2, 5), (1, 2), (4, 17)]:
            ids = rng.integers(0, self.CFG.vocab_size, size=(rows, t))
            mask = np.ones_like(ids, dtype=bool)
            mask[0, -1] = t < 3  # one row one target short, where it has more than one
            loss, grads = M.batch_loss(ckpt, ids, mask, work=work)
            want_loss, want_grads = M.batch_loss(ckpt, ids, mask)
            assert loss.hex() == want_loss.hex()
            for name in M.param_shapes(self.CFG):
                assert grads[name].tobytes() == want_grads[name].tobytes(), name
            scored, _ = M.batch_loss(ckpt, ids, mask, compute_grads=False, work=work)
            assert scored.hex() == want_loss.hex()

    def test_buffers_grow_to_the_largest_request_and_stay(self):
        work = M.HeadWork()
        a = work.logits((3, 5), np.float32)
        assert a.shape == (3, 5) and a.dtype == np.float32 and a.flags.c_contiguous
        assert np.shares_memory(work.logits((2, 5), np.float32), a)
        assert not np.shares_memory(work.logits((4, 5), np.float32), a)
        assert work.logits((2, 3), np.float64).dtype == np.float64
        block, tmp = work.blocks(2, 7)
        assert block.shape == tmp.shape == (2, 7) and not np.shares_memory(block, tmp)
        again = work.blocks(1, 7)
        assert np.shares_memory(again[0], block) and np.shares_memory(again[1], block)
        assert not np.shares_memory(again[0], again[1])

    def test_returned_logits_are_never_the_workspace(self):
        ckpt = perturbed_checkpoint(self.CFG, dtype=np.float32)
        ids = np.random.default_rng(12).integers(0, self.CFG.vocab_size, size=(2, 6))
        work = M.HeadWork()
        M.batch_loss(ckpt, ids, np.ones_like(ids, dtype=bool), work=work)
        x = M._forward_batch(ckpt, ids, ids.shape[1])
        logits = M._head(ckpt, x, work=work)
        assert not np.shares_memory(logits, work.logits((1,), np.float32))
        npt.assert_array_equal(logits, M._head(ckpt, x))


def test_head_peak_is_the_logits_and_two_float64_blocks():
    """At the paper's 256 076 ids the head holds its float32 logits, two
    float64 blocks (the log-probabilities and ``log_softmax``'s ``exp``),
    one row each, and, for the loss, one gradient buffer; the activations
    of 14 columns at model_dim 8 fit in 1 MiB.  Full-array float64 work
    held two float64 copies of the logits and a new (vocab, d) product."""
    cfg = M.ModelConfig(layers=1, heads=2, model_dim=8, inner_dim=16, context=16,
                        vocab_size=256_076)
    ckpt = M.init_model(cfg, seed=0)
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(2, 8))
    logits = 14 * cfg.vocab_size * 4  # 14 read rows, either call
    blocks = 2 * max(M.HEAD_BLOCK, cfg.vocab_size) * 8
    allowance = 2 ** 20
    rises = []
    for call in (lambda: M.batch_loss(ckpt, ids, np.ones_like(ids, dtype=bool)),
                 lambda: M.sequence_logprob(ckpt, ids, start=1)):
        call()  # builds the positional table
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call()
            rises.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    gradients = M.param_count(cfg) * 4
    assert rises[0] < logits + blocks + gradients + allowance
    assert rises[1] < logits + blocks + allowance


class TestCheckpointIO:
    def test_round_trip_bitwise(self, tmp_path):
        ckpt = M.init_model(M.toy_config(), seed=9)
        ids = [4, 8, 15, 16]
        before = M.forward(ckpt, ids)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, ckpt)
        loaded = M.load_checkpoint(path)
        npt.assert_array_equal(M.forward(loaded, ids), before)
        assert loaded.config == ckpt.config
        assert loaded.step == ckpt.step

    def test_magic_header(self, tmp_path):
        ckpt = M.init_model(M.toy_config(), seed=9)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, ckpt)
        assert path.read_bytes().startswith(b"ctrlkit-ckpt-2\n")

    def test_gelu_checkpoint_rejected_with_a_retrain_message(self, tmp_path):
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, M.init_model(M.toy_config(), seed=9))
        path.write_bytes(path.read_bytes().replace(b"ctrlkit-ckpt-2", b"ctrlkit-ckpt-1", 1))
        with pytest.raises(M.ModelError, match="GELU .* ReLU; retrain it"):
            M.load_checkpoint(path)

    def test_float64_rejected(self, tmp_path):
        ckpt = M.init_model(M.toy_config(), seed=9, dtype=np.float64)
        with pytest.raises(M.ModelError):
            M.save_checkpoint(tmp_path / "m.ckpt", ckpt)

    def test_loaded_checkpoint_keeps_tie(self, tmp_path):
        ckpt = M.init_model(M.toy_config(), seed=9)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, ckpt)
        assert_head_reads_tok_emb(M.load_checkpoint(path))

    def test_save_and_load_hold_no_second_copy(self, tmp_path):
        # The embedding is almost all of the weights, so a copy of it while
        # saving or loading would double the peak.
        cfg = M.ModelConfig(layers=1, heads=1, model_dim=64, inner_dim=64, context=16,
                            vocab_size=20_000)
        ckpt = M.init_model(cfg, seed=9)
        path = tmp_path / "model.ckpt"
        tracemalloc.start()
        try:
            M.save_checkpoint(path, ckpt)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = M.load_checkpoint(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        weights = sum(loaded.weights[n].nbytes for n in M.param_shapes(cfg))
        assert weights > 5_000_000
        assert save_peak <= 2**16
        assert weights <= load_peak <= weights + 2**16


    def test_loaded_tensors_are_views_of_one_buffer(self, tmp_path):
        """One ``readinto`` fills one float32 buffer, which holds the file's
        tensor region, and each tensor is its ``flat_views`` view."""
        cfg = M.toy_config()
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, M.init_model(cfg, seed=9))
        data = path.read_bytes()
        fh = _CountingReader(data)
        loaded = M._parse_checkpoint(fh)
        assert fh.readintos == 1
        flat = loaded.weights["tok_emb"].base
        assert flat.dtype == np.dtype("<f4") and flat.shape == (M.param_count(cfg),)
        assert flat.tobytes() == data.split(b"\n", 2)[2]
        views = M.flat_views(cfg, flat)
        assert list(loaded.weights) == list(views)
        for name, view in views.items():
            got = loaded.weights[name]
            assert got.base is flat
            assert got.__array_interface__ == view.__array_interface__, name

    def test_wrong_shape_rejected_before_writing(self, tmp_path):
        path = tmp_path / "model.ckpt"
        ckpt = M.init_model(M.toy_config(), seed=9)
        M.save_checkpoint(path, ckpt)
        before = path.read_bytes()
        weights = {**ckpt.weights, "tok_emb": np.zeros((49, 8), dtype=np.float32)}
        with pytest.raises(M.ModelError, match=r"tok_emb has shape \(49, 8\)"):
            M.save_checkpoint(path, M.Checkpoint(ckpt.config, weights, step=1))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


class _CountingReader(io.BytesIO):
    """An in-memory file that counts its ``readinto`` calls."""

    readintos = 0

    def readinto(self, buffer):
        self.readintos += 1
        return super().readinto(buffer)


class _FailsToConvert:
    """A float32 "tensor" whose bytes cannot be produced."""

    dtype = np.dtype(np.float32)

    def __init__(self, shape):
        self.shape = shape

    def __array__(self, *args, **kwargs):
        raise OSError("disk full")


def test_failed_save_keeps_the_previous_file(tmp_path):
    path = tmp_path / "model.ckpt"
    ckpt = M.init_model(M.toy_config(), seed=9)
    M.save_checkpoint(path, ckpt)
    before = path.read_bytes()
    # The last tensor fails after the header and every other tensor went out.
    weights = {n: ckpt.weights[n] + 1 for n in M.param_shapes(ckpt.config)}
    weights["lnf.b"] = _FailsToConvert(weights["lnf.b"].shape)
    with pytest.raises(OSError, match="disk full"):
        M.save_checkpoint(path, M.Checkpoint(ckpt.config, weights, step=1))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def _checkpoint_file(magic: bytes, header, payload: bytes) -> bytes:
    return magic + b"\n" + json.dumps(header).encode("utf-8") + b"\n" + payload


def _without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


# Edits of a valid checkpoint file's (magic, header, tensor bytes), each
# leaving the file malformed.
MALFORMED_CHECKPOINT = {
    "empty": lambda m, h, p: b"",
    "non_ascii_magic": lambda m, h, p: _checkpoint_file(m + "é".encode("utf-8"), h, p),
    "missing_header": lambda m, h, p: m + b"\n",
    "header_not_json": lambda m, h, p: m + b"\n{oops\n" + p,
    "header_is_list": lambda m, h, p: _checkpoint_file(m, [h], p),
    "no_config": lambda m, h, p: _checkpoint_file(m, _without(h, "config"), p),
    "no_tensors": lambda m, h, p: _checkpoint_file(m, _without(h, "tensors"), p),
    "config_missing_field": lambda m, h, p: _checkpoint_file(
        m, {**h, "config": _without(h["config"], "layers")}, p),
    "config_value_not_integer": lambda m, h, p: _checkpoint_file(
        m, {**h, "config": {**h["config"], "heads": True}}, p),
    "step_not_integer": lambda m, h, p: _checkpoint_file(m, {**h, "step": "7"}, p),
    "dropped_tensor": lambda m, h, p: _checkpoint_file(
        m, {**h, "tensors": h["tensors"][:-1]}, p),
    "changed_shape": lambda m, h, p: _checkpoint_file(
        m, {**h, "tensors": h["tensors"][:-1] + [["lnf.b", [4]]]}, p),
    "truncated": lambda m, h, p: _checkpoint_file(m, h, p[:-4]),
    "trailing_bytes": lambda m, h, p: _checkpoint_file(m, h, p + bytes(4)),
}


@pytest.mark.parametrize("edit", MALFORMED_CHECKPOINT.values(),
                         ids=MALFORMED_CHECKPOINT.keys())
def test_malformed_checkpoint_file_raises_model_error(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, M.init_model(M.toy_config(), seed=9))
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    path.write_bytes(_checkpoint_file(magic, json.loads(header), payload))
    assert M.load_checkpoint(path).config == M.toy_config()
    path.write_bytes(edit(magic, json.loads(header), payload))
    with pytest.raises(M.ModelError):
        M.load_checkpoint(path)
