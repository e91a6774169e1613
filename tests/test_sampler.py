import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from ctrlkit import model as M, sampler as S
from ctrlkit.tokenizer import encode
from tests.conftest import common_prefix, float64_copy, perturbed_checkpoint


def softmax(x):
    e = np.exp(x - np.max(x))
    return e / e.sum()


def penalty_oracle(logits, context_ids, r):
    """The repetition penalty of one row, id by id."""
    out = np.array(logits, dtype=np.float64)
    for i in set(int(i) for i in context_ids):
        out[i] = out[i] / r if out[i] > 0 else out[i] * r
    return out


def adjust_distribution_oracle(logits, context_ids, sp):
    """One row's penalty -> temperature -> softmax -> nucleus, as the
    per-row sampler computed it."""
    scores = penalty_oracle(logits, context_ids, sp.repetition_penalty)
    scores /= sp.temperature
    probs = M.softmax(scores)
    if sp.nucleus_p >= 1.0:
        return probs
    order = np.argsort(-probs, kind="stable")
    cum = np.cumsum(probs[order])
    cutoff = int(np.searchsorted(cum, sp.nucleus_p)) + 1  # smallest prefix >= p
    keep = order[:cutoff]
    nucleus = np.zeros_like(probs)
    nucleus[keep] = probs[keep]
    nucleus /= nucleus.sum()
    return nucleus


def nucleus_distribution_oracle(scores, temperature, nucleus_p):
    """``S.nucleus_distribution`` as it ran the tie mask on every cut row,
    kept to hold the tie rule bitwise."""
    probs = M.softmax(scores / temperature[:, None])
    cut = np.flatnonzero(nucleus_p < 1.0)
    head = probs[cut]
    desc = np.sort(head, -1)[:, ::-1]
    last = (desc[:, :-1].cumsum(-1) < nucleus_p[cut, None]).sum(-1, keepdims=True)
    floor = desc[np.arange(cut.size)[:, None], last]
    tie = head == floor
    above = (desc > floor).sum(-1, keepdims=True)
    head[(head < floor) | (tie & (tie.cumsum(-1) > last + 1 - above))] = 0.0
    head /= head.sum(-1, keepdims=True)
    probs[cut] = head
    return probs


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestBatchedTransform:
    """Every row of the batched penalty and nucleus is bitwise equal to the
    per-row oracle."""

    @pytest.mark.parametrize("vocab", [32, 330])  # numpy sums pairwise past 128 elements
    def test_rows_equal_the_per_row_oracle(self, vocab):
        rng = np.random.default_rng(8)
        rows, t = 60, 12
        exact = 2 ** int(np.log2(vocab))
        logits = rng.normal(size=(rows, vocab)) * 3
        logits[::3, :10] = 1.25  # ties, some of them at the top
        logits[1::4] = np.round(logits[1::4])
        # Probabilities of exactly 1/exact, and 0 past them, so a prefix sums to p exactly.
        logits[:6], logits[:6, exact:] = 0.5, -1000.0
        logits = logits.astype(np.float32)
        ids = rng.integers(0, vocab, size=(rows, t))
        sps = [S.SamplingParams(temperature=float(rng.choice([0.2, 0.7, 1.0])),
                                nucleus_p=[0.25, 0.5][i % 2] if i < 6 else
                                float(rng.choice([0.3, 0.8, 0.95, 1.0])),
                                repetition_penalty=1.0 if i < 6 else
                                float(rng.choice([1.0, 1.3, 2.0])))
               for i in range(rows)]
        temperature, nucleus_p, r = (np.array([getattr(sp, name) for sp in sps]) for name in
                                     ("temperature", "nucleus_p", "repetition_penalty"))
        for width in (t, 0):  # an empty context leaves every logit as it is
            scores = S.apply_repetition_penalty(logits, ids[:, :width], r)
            probs = S.nucleus_distribution(scores, temperature, nucleus_p)
            for i, sp in enumerate(sps):
                want = penalty_oracle(logits[i], ids[i, :width], sp.repetition_penalty)
                assert np.array_equal(scores[i], want)
                want = adjust_distribution_oracle(logits[i], ids[i, :width], sp)
                assert np.array_equal(probs[i], want), (width, sp)
                assert np.array_equal(S.adjust_distribution(logits[i], ids[i, :width], sp), want)
        assert [np.count_nonzero(row) for row in probs[:6]] == [exact // 4, exact // 2] * 3
        assert {sp.nucleus_p for sp in sps} > {0.3, 0.8, 0.95, 1.0}
        assert {sp.repetition_penalty for sp in sps} == {1.0, 1.3, 2.0}

    def test_rows_equal_the_per_row_oracle_at_the_paper_vocabulary(self):
        vocab, exact = 256_076, 2**17
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(3, vocab)).astype(np.float32)
        # Row 0: three tokens above a run of 2 640 ties that holds most of the
        # mass, so p = 0.5 cuts inside the run.
        logits[0, 5::97], logits[0, :3] = 8.0, 9.0
        # Row 1: probabilities of exactly 2**-17, so a prefix sums to p exactly.
        logits[1], logits[1, exact:] = 0.5, -1000.0
        ids = rng.integers(0, vocab, size=(3, 12))
        sps = [S.SamplingParams(nucleus_p=0.5),
               S.SamplingParams(temperature=0.7, nucleus_p=0.25),
               S.SamplingParams(temperature=0.7, nucleus_p=1e-6, repetition_penalty=1.3)]
        temperature, nucleus_p, r = (np.array([getattr(sp, name) for sp in sps]) for name in
                                     ("temperature", "nucleus_p", "repetition_penalty"))
        probs = S.nucleus_distribution(S.apply_repetition_penalty(logits, ids, r),
                                       temperature, nucleus_p)
        for i, sp in enumerate(sps):
            want = adjust_distribution_oracle(logits[i], ids[i], sp)
            assert np.array_equal(probs[i], want), sp
            assert np.array_equal(S.adjust_distribution(logits[i], ids[i], sp), want)
        tied = probs[0, 5::97]
        assert np.all(probs[0, :3] > 0) and 0 < np.count_nonzero(tied) < tied.size
        assert [np.count_nonzero(row) for row in probs[1:]] == [exact // 4, 1]


class TestTieMaskOracle:
    """``nucleus_distribution`` runs the tie mask only on rows whose ties
    run past the floor, and its rows stay bitwise the oracle's."""

    VOCAB = 300

    @staticmethod
    def logits(rows, seed):
        return np.random.default_rng(seed).normal(size=(rows, TestTieMaskOracle.VOCAB)) * 3

    def check(self, scores, temperature, nucleus_p):
        got = S.nucleus_distribution(scores, temperature, nucleus_p)
        want = nucleus_distribution_oracle(scores, temperature, nucleus_p)
        assert np.array_equal(bits(got), bits(want))
        return got

    def test_ties_that_straddle_the_floor(self):
        scores = self.logits(3, 20) / 3
        scores[:, 5::7] = 4.0  # 43 ties holding most of the mass
        probs = self.check(scores, np.array([1.0, 0.7, 0.9]), np.array([0.5, 0.3, 0.8]))
        for row in probs[:, 5::7]:
            assert 0 < np.count_nonzero(row) < row.size

    def test_a_uniform_row_that_keeps_every_rank(self):
        # The rank after the last is rank 0, equal to the floor: the tie mask
        # runs and keeps every id.
        probs = self.check(np.zeros((1, self.VOCAB)), np.array([1.0]), np.array([0.999999]))
        assert np.count_nonzero(probs) == self.VOCAB

    def test_ties_inside_the_nucleus(self):
        scores = self.logits(2, 21)
        scores[:, 3:13] = 9.0  # ten ties above every other score
        probs = self.check(scores, np.array([1.0, 0.8]), np.array([0.999, 0.99]))
        assert np.all(probs[:, 3:13] > 0)
        assert np.all(np.count_nonzero(probs, -1) > 10)

    def test_a_batch_where_every_row_is_cut(self):
        scores = self.logits(6, 22)
        scores[0, ::3] = 2.5
        self.check(scores, np.full(6, 0.8), np.array([0.3, 0.5, 0.8, 0.9, 0.95, 0.99]))

    def test_a_batch_mixing_cut_and_whole_rows(self):
        scores = self.logits(6, 23)
        scores[1, ::5] = 3.0
        nucleus_p = np.array([1.0, 0.4, 1.0, 0.9, 1.0, 0.7])
        probs = self.check(scores, np.array([0.5, 1.0, 0.9, 0.6, 1.0, 0.8]), nucleus_p)
        assert np.all(probs[nucleus_p == 1.0] > 0)

    def test_one_token_nuclei(self):
        scores = self.logits(3, 24)
        scores[2, 4::4] = scores[2].max()  # the top token ties: the lowest id stays
        probs = self.check(scores, np.array([1.0, 0.5, 1.0]), np.full(3, 1e-6))
        assert np.count_nonzero(probs, -1).tolist() == [1, 1, 1]
        assert probs[2].argmax() == np.flatnonzero(scores[2] == scores[2].max())[0]


class TestChoose:
    """``choose`` draws the ids ``Generator.choice(p=)`` draws and leaves
    each rng in the same state, so a numpy change to ``choice`` fails here."""

    @staticmethod
    def rows(vocab):
        scores = np.random.default_rng(30).normal(size=(4, vocab)) * 3
        scores[0] /= 3
        scores[0, 5::7] = 4.0  # ties holding most of the mass, at the floor of p = 0.5
        scores[2, 1::2] = -45.0  # e^-45 < eps: the running sum absorbs these
        return S.nucleus_distribution(scores, np.array([1.0, 0.7, 1.0, 0.9]),
                                      np.array([0.5, 1.0, 1.0, 1e-6]))

    @pytest.mark.parametrize("vocab, rows", [(300, 4), (256_076, 1)])
    def test_ids_and_rng_states_equal_generator_choice(self, vocab, rows):
        probs = self.rows(vocab)[:rows]
        tied = probs[0, 5::7]
        assert 0 < np.count_nonzero(tied) < tied.size
        if rows == 4:
            cdf = probs[2].cumsum()
            assert np.any((cdf[1:] == cdf[:-1]) & (probs[2, 1:] > 0))
            assert np.count_nonzero(probs[3]) == 1
        drawn = [set() for _ in range(rows)]
        for seed in range(6):
            rngs = [np.random.default_rng([seed, i]) for i in range(rows)]
            theirs = [np.random.default_rng([seed, i]) for i in range(rows)]
            for _ in range(20 if rows == 4 else 5):
                got = S.choose(probs, rngs)
                assert got == [int(rng.choice(vocab, p=row)) for row, rng in zip(probs, theirs)]
                for ids, i in zip(drawn, got):
                    ids.add(i)
            assert [rng.bit_generator.state for rng in rngs] == \
                [rng.bit_generator.state for rng in theirs]
        assert len(drawn[0]) > 1 and all(probs[0, i] > 0 for i in drawn[0])
        if rows == 4:
            assert len(drawn[1]) > 5 and drawn[3] == {int(probs[3].argmax())}

    class Fixed:
        """An rng whose every draw is ``u``."""

        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

    @pytest.mark.parametrize("row, u, want", [
        ([0.0, 0.5, 0.5], 0.0, 1),  # u = 0 skips ids of probability 0
        ([0.5, 0.0, 0.5], 0.5, 2),  # so does a u on a step of the cdf
        ([0.1] * 10, np.nextafter(1.0, 0.0), 9),  # the cdf ends at 1, not at its float sum
    ])
    def test_draws_at_the_edges_of_the_cdf(self, row, u, want):
        assert S.choose(np.array([row]), [self.Fixed(u)]) == [want]

    @pytest.mark.parametrize("row", [[0.2, 0.2, 0.2, 0.2], [0.5, np.nan, 0.5, 0.0]])
    def test_a_row_that_does_not_sum_to_one_raises(self, row):
        with pytest.raises(S.SamplingError, match="do not sum to 1"):
            S.choose(np.array([[0.0, 0.0, 1.0, 0.0], row]), [np.random.default_rng(0)] * 2)

    def test_a_batch_holds_one_row_cdf_at_a_time(self):
        rows, vocab = 32, 20_000
        probs = M.softmax(np.random.default_rng(31).normal(size=(rows, vocab)))
        rngs = [np.random.default_rng(i) for i in range(rows)]
        tracemalloc.start()
        try:
            S.choose(probs, rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * vocab <= peak < 2 * 8 * vocab  # never a (rows, vocab) array


class TestAdjustDistribution:
    def test_identity_transforms_give_plain_softmax(self):
        logits = np.array([2.0, 1.0, 0.0])
        sp = S.SamplingParams(temperature=1.0, nucleus_p=1.0, repetition_penalty=1.0)
        npt.assert_allclose(S.adjust_distribution(logits, set(), sp),
                            softmax(logits), atol=1e-12)

    def test_penalty_hand_example(self):
        # logits [2,1,0], token 0 in context, r=2: softmax([1,1,0])
        sp = S.SamplingParams(repetition_penalty=2.0)
        probs = S.adjust_distribution(np.array([2.0, 1.0, 0.0]), {0}, sp)
        npt.assert_allclose(probs, [0.4223, 0.4223, 0.1554], atol=5e-5)
        npt.assert_allclose(probs, softmax(np.array([1.0, 1.0, 0.0])), atol=1e-12)

    def test_nucleus_hand_example(self):
        # probs [0.5,0.3,0.2], p=0.7 keeps {0,1} renormalized to [0.625,0.375]
        sp = S.SamplingParams(nucleus_p=0.7)
        probs = S.adjust_distribution(np.log([0.5, 0.3, 0.2]), set(), sp)
        npt.assert_allclose(probs, [0.625, 0.375, 0.0], atol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_rejected(self, bad):
        with pytest.raises(S.SamplingError, match="logits must be finite"):
            S.adjust_distribution(np.array([1.0, bad, 0.0]), set(), S.SamplingParams())

    def test_negative_logits_multiplied_not_divided(self):
        out = S.apply_repetition_penalty(np.array([-1.0, 0.5]), {0, 1}, 2.0)
        npt.assert_allclose(out, [-2.0, 0.25], atol=1e-12)

    @pytest.mark.parametrize("context", [[], [3], [3, 0, 7, 3, 3, 9, 0]],
                             ids=["empty", "one-id", "many-ids"])
    def test_penalty_takes_an_id_array_like_a_list(self, context):
        logits = np.random.default_rng(4).normal(size=10)
        want = S.apply_repetition_penalty(logits, context, 1.5)
        buf = np.array([5] + context + [8], dtype=np.int64)
        npt.assert_array_equal(S.apply_repetition_penalty(logits, buf[1:-1], 1.5), want)
        npt.assert_array_equal(S.apply_repetition_penalty(logits, set(context), 1.5), want)
        assert np.count_nonzero(want != logits) == len(set(context))

    def test_sums_to_one_and_nucleus_support(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = rng.normal(size=20) * 3
            sp = S.SamplingParams(temperature=0.7, nucleus_p=0.8,
                                  repetition_penalty=1.3)
            probs = S.adjust_distribution(logits, {1, 2, 3}, sp)
            npt.assert_allclose(probs.sum(), 1.0, atol=1e-6)
            kept = probs > 0
            # the kept set is the smallest prefix of sorted probs >= p
            base = S.adjust_distribution(
                logits, {1, 2, 3},
                S.SamplingParams(temperature=0.7, nucleus_p=1.0,
                                 repetition_penalty=1.3),
            )
            order = np.argsort(-base, kind="stable")
            cum = np.cumsum(base[order])
            expect_n = int(np.searchsorted(cum, 0.8)) + 1
            assert kept.sum() == expect_n
            assert probs[order[0]] > 0  # top token always kept

    def test_p_equal_one_is_noop(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=30)
        with_p = S.adjust_distribution(
            logits, set(), S.SamplingParams(temperature=0.9, nucleus_p=1.0))
        scaled = softmax(logits / 0.9)
        npt.assert_allclose(with_p, scaled, atol=1e-9)

    def test_raising_r_lowers_context_token_share(self):
        logits = np.array([1.5, 1.0, 0.2])
        ratios = []
        for r in [1.0, 1.2, 1.4, 1.6, 1.8, 2.0]:
            sp = S.SamplingParams(repetition_penalty=r)
            probs = S.adjust_distribution(logits, {0}, sp)
            ratios.append(probs[0] / probs[1])
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_argmax_invariance_without_penalty(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            logits = rng.normal(size=15)
            for t in (0.2, 0.6, 1.0):
                sp = S.SamplingParams(temperature=t, nucleus_p=0.9)
                probs = S.adjust_distribution(logits, {0, 1}, sp)
                assert int(np.argmax(probs)) == int(np.argmax(logits))

    def test_overflowing_temperature_raises_without_numpy_warnings(self, two_genre):
        sp = S.SamplingParams(temperature=1e-310, max_new_tokens=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(S.SamplingError, match="temperature too small"):
                S.generate(two_genre.trained, two_genre.vocab, "a1", "alpha", sp)
        # Scores that overflow only downwards get probability 0; the row samples.
        with np.errstate(over="ignore"):
            probs = S.nucleus_distribution(np.array([[1.0, 2.0, -3e30]]),
                                           np.array([1e-300]), np.array([1.0]))
        assert probs.tolist() == [[0.0, 1.0, 0.0]]

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_context_ids_outside_the_vocabulary_rejected(self, bad):
        with pytest.raises(S.SamplingError, match=r"context ids must be in 0\.\.9"):
            S.adjust_distribution(np.zeros(10), [3, bad], S.SamplingParams())
        ids = np.array([[1, 2, 3], [4, bad, 5]])
        with pytest.raises(S.SamplingError, match=r"context ids must be in 0\.\.9"):
            S.apply_repetition_penalty(np.zeros((2, 10)), ids, np.array([1.2, 1.5]))

    @pytest.mark.parametrize("temperature, nucleus_p, message", [
        (0.0, 0.9, "temperature must be positive"),
        (-0.5, 0.9, "temperature must be positive"),
        (np.nan, 0.9, "temperature must be positive"),
        (0.7, 0.0, r"nucleus_p must be in \(0, 1\]"),
        (0.7, 1.5, r"nucleus_p must be in \(0, 1\]"),
        (0.7, np.nan, r"nucleus_p must be in \(0, 1\]"),
    ])
    def test_nucleus_parameters_outside_their_range_rejected(self, temperature, nucleus_p,
                                                              message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(S.SamplingError, match=message):
                S.nucleus_distribution(np.zeros((2, 3)), np.array([1.0, temperature]),
                                       np.array([0.5, nucleus_p]))

    def test_temperature_zero_rejected_here(self):
        with pytest.raises(S.SamplingError):
            S.adjust_distribution(
                np.zeros(3), set(), S.SamplingParams(temperature=0.0))


class TestPresets:
    def test_published_values(self):
        assert S.PRESETS["M1"].repetition_penalty == 1.6
        assert S.PRESETS["M1"].nucleus_p == 0.8
        assert S.PRESETS["M2"].repetition_penalty == 1.4
        assert S.PRESETS["M2"].nucleus_p == 0.9
        assert S.PRESETS["M3"].repetition_penalty == 1.0
        assert S.PRESETS["M3"].nucleus_p == 0.9

    def test_gpt3_comparison_preset(self):
        gpt3 = S.PRESETS["GPT3"]
        assert gpt3.temperature == 0.7
        assert gpt3.nucleus_p == 1.0
        assert gpt3.repetition_penalty == 1.0
        assert gpt3.max_new_tokens == 256

    def test_preset_overrides(self):
        sp = S.preset("M2", max_new_tokens=7)
        assert sp.max_new_tokens == 7
        assert sp.repetition_penalty == 1.4

    def test_unknown_preset(self):
        with pytest.raises(S.SamplingError, match="choose from M1, M2, M3, GPT3$"):
            S.preset("M9")

    def test_param_ranges_validated(self):
        with pytest.raises(S.SamplingError):
            S.SamplingParams(temperature=1.5)
        with pytest.raises(S.SamplingError):
            S.SamplingParams(nucleus_p=0.0)
        with pytest.raises(S.SamplingError):
            S.SamplingParams(repetition_penalty=2.5)
        with pytest.raises(S.SamplingError, match="block_first_ecc"):
            S.SamplingParams(temperature=0.5, block_first_ecc=3)
        with pytest.raises(S.SamplingError, match="rng_seed must be non-negative"):
            S.SamplingParams(rng_seed=-1)


def immediate_ecc_checkpoint(setup, category="alpha"):
    """All-zero weights except an embedding row that makes the ECC the
    argmax after a bare OCC prompt."""
    v, cfg = setup.vocab, setup.config
    ckpt = M.init_model(cfg, seed=0)
    for name in M.param_shapes(cfg):
        if not name.endswith(".g"):
            ckpt.weights[name][:] = 0.0
    pe0 = M.positional_encoding(1, cfg.model_dim, dtype=np.float32)[0]
    xhat = (pe0 - pe0.mean()) / np.sqrt(pe0.var() + M.LN_EPS)
    ckpt.weights["tok_emb"][v.ecc_id(category)] = xhat
    return ckpt


class TestGenerate:
    def test_unknown_occ_rejected(self, two_genre):
        with pytest.raises(S.SamplingError, match="category 'gamma' has no control codes"):
            S.generate(two_genre.untrained, two_genre.vocab, "a1", "gamma",
                       S.SamplingParams())

    def test_zero_budget(self, two_genre):
        sp = S.SamplingParams(max_new_tokens=0)
        gr = S.generate(two_genre.untrained, two_genre.vocab, "a1 a2", "alpha", sp)
        assert gr.generated_ids == ()
        assert gr.stop_reason == S.STOP_MAX

    def test_greedy_is_deterministic(self, two_genre):
        sp = S.SamplingParams(temperature=0.0, max_new_tokens=20, rng_seed=1)
        a = S.generate(two_genre.trained, two_genre.vocab, "a1 a2", "alpha", sp)
        sp2 = S.SamplingParams(temperature=0.0, max_new_tokens=20, rng_seed=999)
        b = S.generate(two_genre.trained, two_genre.vocab, "a1 a2", "alpha", sp2)
        assert a == b

    def test_sampling_deterministic_given_seed(self, two_genre):
        sp = S.SamplingParams(temperature=0.8, nucleus_p=0.9, max_new_tokens=20,
                              rng_seed=5)
        a = S.generate(two_genre.trained, two_genre.vocab, "a1", "alpha", sp)
        b = S.generate(two_genre.trained, two_genre.vocab, "a1", "alpha", sp)
        assert a == b

    def test_immediate_ecc_fixture(self, two_genre):
        ckpt = immediate_ecc_checkpoint(two_genre)
        sp = S.SamplingParams(temperature=0.0, max_new_tokens=10)
        gr = S.generate(ckpt, two_genre.vocab, "", "alpha", sp)
        assert gr.stop_reason == S.STOP_ECC
        assert len(gr.generated_ids) == 1
        assert gr.ecc_id == two_genre.vocab.ecc_id("alpha")

    def test_any_ecc_stops_decoding(self, two_genre):
        # The fixture plants the beta ECC behind an alpha opening code.
        ckpt = immediate_ecc_checkpoint(two_genre, category="beta")
        sp = S.SamplingParams(temperature=0.0, max_new_tokens=10)
        gr = S.generate(ckpt, two_genre.vocab, "", "alpha", sp)
        assert gr.stop_reason == S.STOP_ECC
        assert gr.ecc_id == two_genre.vocab.ecc_id("beta")

    def test_prompt_exceeding_context_rejected(self, two_genre):
        long_prompt = " ".join(["a1"] * 200)
        sp = S.SamplingParams(max_new_tokens=1)
        with pytest.raises(S.SamplingError):
            S.generate(two_genre.untrained, two_genre.vocab, long_prompt, "alpha", sp)

    @pytest.mark.parametrize("budget", [0, 3])
    def test_empty_prompt_rejected(self, two_genre, budget):
        sp = S.SamplingParams(max_new_tokens=budget)
        with pytest.raises(S.SamplingError, match=f"1 to {two_genre.config.context} tokens"):
            S.generate_batch(two_genre.untrained, [], [sp], frozenset())

    def test_window_slides_past_context(self, two_genre):
        # Budget larger than the context window: generation must not crash
        # and must respect the window length internally.
        sp = S.SamplingParams(temperature=0.9, nucleus_p=0.95,
                              max_new_tokens=100, rng_seed=3)
        gr = S.generate(two_genre.untrained, two_genre.vocab, "a1 a2", "alpha", sp)
        assert len(gr.generated_ids) <= 100

    def test_stop_invariants(self, two_genre):
        sp = S.SamplingParams(temperature=0.7, nucleus_p=0.9, max_new_tokens=30,
                              rng_seed=11)
        gr = S.generate(two_genre.trained, two_genre.vocab, "a1 a2 a3", "alpha", sp)
        if gr.stop_reason == S.STOP_ECC:
            assert gr.generated_ids[-1] in two_genre.vocab.ecc_ids
            assert gr.ecc_id == gr.generated_ids[-1]
        else:
            assert len(gr.generated_ids) == 30

    def test_body_drops_only_the_stopping_ecc(self, two_genre):
        v = two_genre.vocab
        sp = S.SamplingParams(temperature=0.0, max_new_tokens=10)
        gr = S.generate(immediate_ecc_checkpoint(two_genre), v, "", "alpha", sp)
        assert gr.generated_ids == (v.ecc_id("alpha"),)
        assert gr.body == ()
        sp = S.SamplingParams(max_new_tokens=7, rng_seed=2)
        gr = S.generate_ids(two_genre.untrained, [v.occ_id("alpha")], sp,
                            stop_ids=frozenset())
        assert gr.stop_reason == S.STOP_MAX
        assert gr.body == gr.generated_ids
        assert len(gr.body) == 7


def decode_task_answer(ckpt, prompt_ids, task_ecc, max_new_tokens):
    """Greedy task decoding as ``tasks.evaluate`` runs it."""
    sp = S.SamplingParams(temperature=0.0, max_new_tokens=max_new_tokens,
                          block_first_ecc=task_ecc)
    return S.generate_ids(ckpt, prompt_ids, sp, stop_ids=frozenset({task_ecc}))


def full_window_decode(ckpt, prompt_ids, sp, stop_ids):
    """Reference decoder: a full-window ``M.forward`` for every token and
    the per-row oracles."""
    n = ckpt.config.context
    rng = np.random.default_rng(sp.rng_seed)
    context, generated = list(prompt_ids), []
    for step in range(sp.max_new_tokens):
        logits = M.forward(ckpt, context[-n:])[-1]
        if sp.temperature == 0.0:
            scores = penalty_oracle(logits, context, sp.repetition_penalty)
            if step == 0 and sp.block_first_ecc is not None:
                scores[sp.block_first_ecc] = -np.inf
            nxt = int(np.argmax(scores))
        else:
            probs = adjust_distribution_oracle(logits, context, sp)
            nxt = int(rng.choice(len(probs), p=probs))
        context.append(nxt)
        generated.append(nxt)
        if nxt in stop_ids:
            break
    return generated


class TestKVCacheDecoding:
    @pytest.mark.parametrize("sp", [
        S.SamplingParams(temperature=0.9, nucleus_p=0.95, repetition_penalty=1.2,
                         max_new_tokens=100, rng_seed=4),
        S.SamplingParams(temperature=0.0, repetition_penalty=1.3, max_new_tokens=100),
    ], ids=["sampled", "greedy"])
    def test_stream_past_context_matches_full_window_loop(self, two_genre, sp):
        ckpt = float64_copy(two_genre.trained)
        v = two_genre.vocab
        prompt = [v.occ_id("alpha")] + encode(v, "a1 a2 a3")
        assert len(prompt) + sp.max_new_tokens > ckpt.config.context
        gr = S.generate_ids(ckpt, prompt, sp, stop_ids=frozenset())
        assert len(gr.generated_ids) == sp.max_new_tokens
        assert list(gr.generated_ids) == full_window_decode(ckpt, prompt, sp, frozenset())

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("prefill", [1, 29, 64])
    def test_prefill_and_steps_match_forward(self, two_genre, dtype, tol, prefill):
        ckpt = two_genre.trained
        if dtype == np.float64:
            ckpt = float64_copy(ckpt)
        n = ckpt.config.context
        # Training documents back to back: OCC, text, ECC, OCC, ...
        ids = np.concatenate([w.ids[:w.real_length] for w in two_genre.windows[:12]])[:n]
        assert len(ids) == n
        kv = M.kv_cache(ckpt)
        for end in range(prefill, n + 1):
            got = M.forward(ckpt, ids[:end], kv)
            assert got.shape == (1, ckpt.config.vocab_size)
            want = M.forward(ckpt, ids[:end])[-1]
            assert np.max(np.abs(got[0] - want)) <= tol

    def test_step_past_context_rejected(self, two_genre):
        cfg = two_genre.config
        kv = M.kv_cache(two_genre.trained)
        M.forward(two_genre.trained, [0] * cfg.context, kv)
        with pytest.raises(M.ModelError, match="outside the context window"):
            M.forward(two_genre.trained, [0] * (cfg.context + 1), kv)
        assert kv.ids.shape == (1, cfg.context)

    def test_one_column_per_step_until_the_window_fills(self, two_genre, computed_columns):
        ckpt, v = two_genre.trained, two_genre.vocab
        n = ckpt.config.context
        prompt = [v.occ_id("alpha")] + encode(v, "a1 a2 a3")
        sp = S.SamplingParams(temperature=0.9, max_new_tokens=n, rng_seed=3)
        context = prompt + list(S.generate_ids(ckpt, prompt, sp, frozenset()).generated_ids)
        windows = [context[:end][-n:] for end in range(len(prompt), len(context))]
        assert computed_columns[0] == len(prompt)
        filling = n - len(prompt)
        assert computed_columns[1:filling + 1] == [1] * filling
        # Once the window slides, a step reuses only what still lines up.
        assert len(computed_columns) == len(windows)
        for prev, window, width in zip(windows, windows[1:], computed_columns[1:]):
            assert width == len(window) - min(common_prefix(prev, window), len(window) - 1)


def batch_case(name, v):
    """(prompt, sampling params, stop ids) of one ``generate_batch`` case."""
    sampled = dict(temperature=1.0, nucleus_p=0.95, repetition_penalty=1.2)
    if name == "different-stops":  # short documents: most rows stop at an ECC
        sps = [S.SamplingParams(max_new_tokens=30, rng_seed=seed, **sampled)
               for seed in range(6)]
        return [v.occ_id("alpha")], sps, v.ecc_ids
    prompt = [v.occ_id("beta")] + encode(v, "b1 b2")
    if name == "window-slides":
        sps = [S.SamplingParams(max_new_tokens=100, rng_seed=4, **sampled),
               S.SamplingParams(temperature=0.0, repetition_penalty=1.3, max_new_tokens=90),
               S.SamplingParams(temperature=0.7, max_new_tokens=75, rng_seed=9)]
        return prompt, sps, frozenset()
    if name == "greedy-and-sampled":  # after a full text the ECC is the argmax; row 0 blocks it
        alpha = v.ecc_id("alpha")
        sps = [S.SamplingParams(temperature=0.0, max_new_tokens=12, block_first_ecc=alpha),
               S.SamplingParams(max_new_tokens=20, rng_seed=6, **sampled),
               S.SamplingParams(temperature=0.0, repetition_penalty=1.6, max_new_tokens=20),
               S.SamplingParams(temperature=0.4, max_new_tokens=20, rng_seed=7),
               S.SamplingParams(temperature=0.0, max_new_tokens=16),
               S.SamplingParams(nucleus_p=0.6, repetition_penalty=2.0, max_new_tokens=20,
                                rng_seed=8)]
        return [v.occ_id("alpha")] + encode(v, "a1 a2 a3 a4 a5 a6 a7 a8 a9 a10"), sps, v.ecc_ids
    if name == "zero-budget":
        sps = [S.SamplingParams(max_new_tokens=0, rng_seed=1),
               S.SamplingParams(max_new_tokens=5, rng_seed=2, **sampled),
               S.SamplingParams(max_new_tokens=0, rng_seed=3)]
        return prompt, sps, v.ecc_ids
    assert name == "single-row"
    return prompt, [S.SamplingParams(max_new_tokens=40, rng_seed=5, **sampled)], v.ecc_ids


class TestGenerateBatch:
    """Rows decoded in lockstep equal each row decoded alone, and each step
    is one model pass over every live row."""

    CASES = ["different-stops", "window-slides", "greedy-and-sampled", "zero-budget",
             "single-row"]

    @pytest.mark.parametrize("name", CASES)
    def test_rows_match_per_sequence_streams(self, two_genre, name):
        ckpt, v = float64_copy(two_genre.trained), two_genre.vocab
        prompt, sps, stop_ids = batch_case(name, v)
        got = S.generate_batch(ckpt, prompt, sps, stop_ids)
        assert got == [S.generate_ids(ckpt, prompt, sp, stop_ids) for sp in sps]
        for gr, sp in zip(got, sps):
            assert list(gr.generated_ids) == full_window_decode(ckpt, prompt, sp, stop_ids)
        lengths = [len(gr.generated_ids) for gr in got]
        if name == "different-stops":
            ecc_stops = {n for n, gr in zip(lengths, got) if gr.stop_reason == S.STOP_ECC}
            assert len(ecc_stops) >= 3
        if name == "window-slides":
            assert lengths == [sp.max_new_tokens for sp in sps]
            assert len(prompt) + max(lengths) > ckpt.config.context
        if name == "greedy-and-sampled":
            assert got[0].generated_ids[0] != got[4].generated_ids[0] == v.ecc_id("alpha")
            assert lengths[0] > 1 == lengths[4]
        if name == "zero-budget":
            assert lengths == [0, 5, 0] and got[0].stop_reason == S.STOP_MAX
            assert S.generate_batch(ckpt, prompt, sps[::2], stop_ids) == [got[0]] * 2

    @pytest.mark.parametrize("name", CASES)
    def test_cache_holds_only_the_columns_a_row_reaches(self, two_genre, monkeypatch, name):
        ckpt, cfg = two_genre.trained, two_genre.config
        prompt, sps, stop_ids = batch_case(name, two_genre.vocab)
        shapes = []
        kv_cache = M.kv_cache

        def recording(*args):
            kv = kv_cache(*args)
            shapes.append(kv.layers[0][0].shape)
            return kv

        monkeypatch.setattr(M, "kv_cache", recording)
        S.generate_batch(ckpt, prompt, sps, stop_ids)
        longest = max(sp.max_new_tokens for sp in sps)
        rows = sum(sp.max_new_tokens > 0 for sp in sps)
        columns = min(cfg.context, len(prompt) + longest)
        assert shapes == [(rows, cfg.heads, columns, cfg.head_dim)]

    def test_rows_that_move_down_keep_their_own_keys_and_values(self, two_genre):
        # The first rows stop first, so every drop moves the later rows down
        # the cache; on random weights each row's logits follow its history.
        ckpt = perturbed_checkpoint(two_genre.config)
        prompt = [two_genre.vocab.occ_id("alpha")]
        sps = [S.SamplingParams(temperature=0.8, max_new_tokens=n, rng_seed=n)
               for n in (2, 5, 9, 14, 20)]
        got = S.generate_batch(ckpt, prompt, sps, frozenset())
        for gr, sp in zip(got, sps):
            assert list(gr.generated_ids) == full_window_decode(ckpt, prompt, sp, frozenset())

    @pytest.mark.parametrize("name", CASES)
    def test_rows_past_the_byte_budget_go_to_further_batches(self, two_genre, monkeypatch,
                                                            name):
        ckpt, cfg = two_genre.trained, two_genre.config
        prompt, sps, stop_ids = batch_case(name, two_genre.vocab)
        want = S.generate_batch(ckpt, prompt, sps, stop_ids)
        columns = min(cfg.context, len(prompt) + max(sp.max_new_tokens for sp in sps))
        row_bytes = 40 * cfg.vocab_size + 4 * columns * 2 * cfg.layers * cfg.model_dim
        monkeypatch.setattr(S, "BATCH_BYTES", 2 * row_bytes + row_bytes // 2)
        shapes = []
        kv_cache = M.kv_cache

        def recording(*args):
            kv = kv_cache(*args)
            shapes.append(kv.layers[0][0].shape[0])
            return kv

        monkeypatch.setattr(M, "kv_cache", recording)
        assert S.generate_batch(ckpt, prompt, sps, stop_ids) == want
        # Batches of two rows, or one and two, each with its own cache.
        parts = np.array_split(np.arange(len(sps)), -(-len(sps) // 2))
        assert shapes == [sum(sps[i].max_new_tokens > 0 for i in part) for part in parts]

    def test_batch_arrays_stay_within_the_byte_budget(self, monkeypatch):
        # A large vocabulary: a sampling step's (rows, vocab) arrays are most
        # of a row's bytes, and 24 nucleus rows would take six budgets.
        cfg = M.ModelConfig(layers=1, heads=1, model_dim=8, inner_dim=8, context=16,
                            vocab_size=20_000)
        ckpt = perturbed_checkpoint(cfg, dtype=np.float32)
        sps = [S.SamplingParams(nucleus_p=0.9, repetition_penalty=1.2, max_new_tokens=3,
                                rng_seed=seed) for seed in range(24)]
        row_bytes = 80 * cfg.vocab_size + 4 * 4 * 2 * cfg.layers * cfg.model_dim
        monkeypatch.setattr(S, "BATCH_BYTES", 4 * row_bytes)
        tracemalloc.start()
        try:
            S.generate_batch(ckpt, [1], sps, frozenset())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert S.BATCH_BYTES / 2 < peak <= S.BATCH_BYTES

    @pytest.mark.parametrize("name", CASES)
    def test_one_pass_per_step_over_the_live_rows(self, two_genre, computed_columns,
                                                  monkeypatch, name):
        ckpt, v = two_genre.trained, two_genre.vocab
        prompt, sps, stop_ids = batch_case(name, v)
        rows = []
        forward = M.forward

        def recording(ckpt, ids, kv=None):
            rows.append(len(kv.ids))
            return forward(ckpt, ids, kv)

        monkeypatch.setattr(M, "forward", recording)
        lengths = [len(gr.generated_ids) for gr in S.generate_batch(ckpt, prompt, sps, stop_ids)]
        steps = max(lengths)
        # The prompt in every live row, then each step a row still decoding.
        assert rows == [sum(n > step for n in lengths) for step in range(steps)]
        n = ckpt.config.context
        filling = min(steps, n - len(prompt) + 1)
        assert computed_columns[:filling] == [len(prompt)] + [1] * (filling - 1)
        assert len(computed_columns) == steps


class TestGreedyAnswer:
    def test_nan_logits_rejected(self, two_genre):
        # A diverged model must fail, not answer with argmax(nan) = id 0.
        ckpt = float64_copy(two_genre.trained)
        ckpt.weights["lnf.g"][:] = np.nan
        v = two_genre.vocab
        with pytest.raises(S.SamplingError, match="logits must be finite"):
            decode_task_answer(ckpt, [v.occ_id("alpha")], v.ecc_id("alpha"), 3)

    def test_first_step_ecc_masked(self, two_genre):
        # The fixture would answer with the alpha ECC right away; blocking it
        # forces the runner-up token first.
        ckpt = immediate_ecc_checkpoint(two_genre, category="alpha")
        v = two_genre.vocab
        ecc = v.ecc_id("alpha")
        prompt = [v.occ_id("alpha")]
        gr = decode_task_answer(ckpt, prompt, ecc, max_new_tokens=4)
        assert gr.generated_ids[0] != ecc

    def test_deterministic(self, two_genre):
        v = two_genre.vocab
        prompt = [v.occ_id("alpha")] + encode(v, "a1 a2")
        a = decode_task_answer(two_genre.trained, prompt, v.ecc_id("alpha"), 16)
        b = decode_task_answer(two_genre.trained, prompt, v.ecc_id("alpha"), 16)
        assert a == b

    def test_matches_exhaustive_argmax_oracle(self, two_genre):
        # Independent re-walk: argmax over raw logits with the first-step
        # mask, token by token.
        v = two_genre.vocab
        ckpt = two_genre.trained
        ecc = v.ecc_id("alpha")
        prompt = [v.occ_id("alpha")] + encode(v, "a3 a4")
        budget = 12
        expected = []
        ctx = list(prompt)
        for step in range(budget):
            logits = M.forward(ckpt, ctx[-ckpt.config.context:])[-1].astype(np.float64)
            if step == 0:
                logits[ecc] = -np.inf
            best = max(range(len(logits)), key=lambda i: logits[i])
            expected.append(best)
            ctx.append(best)
            if best == ecc:
                break
        gr = decode_task_answer(ckpt, prompt, ecc, budget)
        assert list(gr.generated_ids) == expected

    def test_stops_only_at_task_ecc(self, two_genre):
        # The beta ECC is the argmax, but greedy task decoding only stops at
        # the task's own ECC, so decoding runs to the budget.
        ckpt = immediate_ecc_checkpoint(two_genre, category="beta")
        v = two_genre.vocab
        gr = decode_task_answer(ckpt, [v.occ_id("alpha")], v.ecc_id("alpha"), 5)
        assert gr.stop_reason == S.STOP_MAX
        assert len(gr.generated_ids) == 5

    def test_other_ecc_mid_stream_stays_in_body(self, two_genre):
        ckpt = immediate_ecc_checkpoint(two_genre, category="beta")
        v = two_genre.vocab
        gr = decode_task_answer(ckpt, [v.occ_id("alpha")], v.ecc_id("alpha"), 5)
        assert gr.body == gr.generated_ids
        assert v.ecc_id("beta") in gr.body[:-1]
