import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from ctrlkit import (corpus, evaluation as E, model as M, ngram, sampler as S,
                     tokenizer as T, trainer)
from ctrlkit.sampler import STOP_ECC, STOP_MAX, GenerationResult
from tests.conftest import WORDS, float64_copy, held_out_prompts, perturbed_checkpoint


def brute_force_loops(seq, v, max_phrase=5):
    """Independent enumerator for the loop definition: maximal left-extended
    runs of a primitive phrase, repeated at least twice."""
    seq = tuple(seq)
    n = len(seq)
    loops, excluded = [], 0
    for length in range(1, max_phrase + 1):
        for start in range(n - 2 * length + 1):
            phrase = seq[start:start + length]
            if any(
                length % q == 0 and phrase == phrase[:q] * (length // q)
                for q in range(1, length)
            ):
                continue  # not primitive
            repeats = 1
            while seq[start + repeats * length: start + (repeats + 1) * length] == phrase:
                repeats += 1
            if repeats < 2:
                continue
            if start >= 1 and seq[start - 1] == seq[start - 1 + length]:
                continue  # extendable left: counted at an earlier start
            if all(T.decode(v, [t]).isdecimal() for t in phrase):
                excluded += 1
            else:
                loops.append((start, phrase, repeats))
    loops.sort(key=lambda item: (item[0], len(item[1])))
    return loops, excluded


def numeral_vocab():
    table = corpus.table_from_names(["alpha"])
    docs = [corpus.Document(0, "1 2 3 x y z", table["alpha"], "manual")]
    return T.train_bpe(docs, 1, vocab_size=8)


def letter_vocab():
    """One token per letter of x y z w v, so a text's length is its token
    count."""
    table = corpus.table_from_names(["alpha"])
    docs = [corpus.Document(0, "x y z w v", table["alpha"], "manual")]
    return T.train_bpe(docs, 1, vocab_size=6)


def letters(n, seed=0):
    return "".join(np.random.default_rng(seed).choice(list("xyzwv"), size=n))


def letter_model(v, context=16, model_dim=8):
    return perturbed_checkpoint(M.ModelConfig(
        layers=2, heads=2, model_dim=model_dim, inner_dim=2 * model_dim,
        context=context, vocab_size=len(v.token_to_id)))


def per_window_perplexity(ckpt, ids, w):
    """Reference for the stacked windows: one full ``forward`` per scored
    position over at most w-1 preceding tokens, its last row read."""
    nll = 0.0
    for i in range(1, len(ids)):
        logits = M.forward(ckpt, ids[max(0, i - w + 1):i])[-1]
        nll -= M.log_softmax(logits)[ids[i]]
    return math.exp(nll / (len(ids) - 1))


class TestStackedWindows:
    CONTEXT = 16

    @pytest.mark.parametrize("w, length", [
        (w, length) for w in (2, 3, 8, CONTEXT)
        for length in ("shorter", "w", "w+1", "two-chunks")
        if (w, length) != (2, "shorter")  # a text needs 2 tokens
    ])
    def test_matches_per_window_oracle(self, w, length):
        chunk = max(1, self.CONTEXT // (w - 1))
        n = {"shorter": w - 1, "w": w, "w+1": w + 1, "two-chunks": w + chunk + 1}[length]
        v = letter_vocab()
        ckpt = letter_model(v, self.CONTEXT)
        text = letters(n, seed=w)
        ids = T.encode(v, text)
        assert len(ids) == n
        res = E.sliding_perplexity(ckpt, v, text, w)
        want = per_window_perplexity(ckpt, ids, w)
        assert abs(res.value - want) <= 1e-12 * want
        assert res.token_count == n - 1

    @pytest.mark.parametrize("w, n", [(4, 30), (4, 9), (2, 40), (16, 20), (8, 8)])
    def test_one_pass_per_chunk(self, monkeypatch, w, n):
        # A fall back to one pass per position would make n - w + 1 passes.
        passes = []
        forward_batch = M._forward_batch

        def counting(ckpt, ids, *args, **kwargs):
            passes.append(ids.shape)
            return forward_batch(ckpt, ids, *args, **kwargs)

        monkeypatch.setattr(M, "_forward_batch", counting)
        v = letter_vocab()
        E.sliding_perplexity(letter_model(v, self.CONTEXT), v, letters(n), w)
        chunk = max(1, self.CONTEXT // (w - 1))
        assert len(passes) == 1 + math.ceil(max(0, n - w) / chunk)
        assert all(b * t <= self.CONTEXT for b, t in passes)

    def test_chunk_peak_memory_within_one_full_context_forward(self):
        v = letter_vocab()
        context = 64
        ckpt = letter_model(v, context, model_dim=32)
        text = letters(400)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        full = peak(lambda: M.forward(ckpt, T.encode(v, text)[:context]))
        for w in (4, 9, context):
            assert peak(lambda: E.sliding_perplexity(ckpt, v, text, w)) <= full, w


class TestSlidingPerplexity:
    def test_uniform_model_gives_vocab_size(self, two_genre):
        ckpt = M.init_model(two_genre.config, seed=0)
        ckpt.weights["tok_emb"][:] = 0.0
        res = E.sliding_perplexity(ckpt, two_genre.vocab, "a1 a2 a3", w=8)
        npt.assert_allclose(res.value, two_genre.config.vocab_size, atol=1e-6)

    def test_oracle_model_gives_one(self):
        # One-token vocabulary: probability 1 on every true token.
        table = corpus.table_from_names(["alpha"])
        docs = [corpus.Document(0, "a", table["alpha"], "manual")]
        v = T.train_bpe(docs, 1, vocab_size=1)
        cfg = M.ModelConfig(layers=1, heads=1, model_dim=4, inner_dim=8,
                            context=8, vocab_size=1)
        res = E.sliding_perplexity(M.init_model(cfg, seed=0), v, "aaaa", w=4)
        assert res.value == 1.0

    def test_three_token_chain_rule(self, two_genre):
        # Direct product of conditionals, computed from raw forward calls.
        # In float64 the 2-row forward inside ``sliding_perplexity`` agrees
        # with these 1-row forwards to rounding.
        v, ckpt = two_genre.vocab, float64_copy(two_genre.trained)
        text = "a1 a2"
        ids = T.encode(v, text)
        assert len(ids) == 3

        def logp(context, target):
            row = M.forward(ckpt, context)[-1].astype(np.float64)
            probs = np.exp(row - row.max())
            probs /= probs.sum()
            return math.log(probs[target])

        expected_full = math.exp(-(logp(ids[:1], ids[1]) + logp(ids[:2], ids[2])) / 2)
        res = E.sliding_perplexity(ckpt, v, text, w=8)
        npt.assert_allclose(res.value, expected_full, rtol=1e-9)
        assert res.token_count == 2

        # w=2 limits the second conditional to a single context token
        expected_w2 = math.exp(-(logp(ids[:1], ids[1]) + logp(ids[1:2], ids[2])) / 2)
        res2 = E.sliding_perplexity(ckpt, v, text, w=2)
        npt.assert_allclose(res2.value, expected_w2, rtol=1e-9)

    @pytest.mark.parametrize("w", [8, 2])
    def test_float32_chain_rule_matches_float64(self, two_genre, w):
        v, text = two_genre.vocab, "a1 a2"
        narrow = E.sliding_perplexity(two_genre.trained, v, text, w=w)
        wide = E.sliding_perplexity(float64_copy(two_genre.trained), v, text, w=w)
        npt.assert_allclose(narrow.value, wide.value, rtol=1e-5)

    def test_float32_matches_float64_on_long_text(self, two_genre):
        # The float tolerance the benchmark checks its perplexity against.
        v = two_genre.vocab
        text = " ".join(held_out_prompts("alpha", 8, n_words=6))
        narrow = E.sliding_perplexity(two_genre.trained, v, text, w=16)
        wide = E.sliding_perplexity(float64_copy(two_genre.trained), v, text, w=16)
        assert narrow.token_count > 16
        assert abs(narrow.value - wide.value) <= 1e-4 * wide.value

    def test_window_equals_context_matches_lm_loss(self, two_genre):
        v, ckpt = two_genre.vocab, two_genre.trained
        n = ckpt.config.context
        rng = np.random.default_rng(17)
        words = [w for ws in ("alpha", "beta") for w in
                 [f"a{i}" for i in range(12)] + [f"b{i}" for i in range(12)]]
        for _ in range(10):
            text = " ".join(rng.choice(words, size=rng.integers(2, 8)))
            ids = T.encode(v, text)
            if len(ids) < 2 or len(ids) >= n:
                continue
            window = trainer.Window(ids=np.asarray(ids), mask=np.ones(len(ids), bool))
            loss = trainer.lm_loss(ckpt, window)
            res = E.sliding_perplexity(ckpt, v, text, w=n)
            npt.assert_allclose(res.value, math.exp(loss), rtol=1e-6)

    def test_short_text_rejected(self, two_genre):
        with pytest.raises(E.EvaluationError):
            E.sliding_perplexity(two_genre.trained, two_genre.vocab, "a1", w=4)


class TestDetectLoops:
    def test_alternating_phrase(self):
        v = numeral_vocab()
        x, y = v.token_to_id["x"], v.token_to_id["y"]
        report = E.detect_loops([x, y, x, y, x, y], v)
        assert len(report.loops) == 1
        loop = report.loops[0]
        assert loop.phrase == (x, y)
        assert loop.repeats == 3
        assert loop.start == 0

    def test_all_distinct_tokens(self):
        v = numeral_vocab()
        ids = [v.token_to_id[c] for c in "xyz"]
        report = E.detect_loops(ids, v)
        assert report.loops == ()

    def test_numeral_run_excluded(self):
        v = numeral_vocab()
        two = v.token_to_id["2"]
        report = E.detect_loops([two, two], v)
        assert report.loops == ()
        assert report.numeral_excluded_count == 1

    def test_mixed_numeral_letter_run_kept(self):
        v = numeral_vocab()
        two, x = v.token_to_id["2"], v.token_to_id["x"]
        report = E.detect_loops([two, x, two, x], v)
        assert len(report.loops) == 1

    def test_matches_brute_force_enumeration(self):
        v = numeral_vocab()
        base_ids = [v.token_to_id[c] for c in ("1", "2", "3", "x", "y")]
        rng = np.random.default_rng(0)
        for _ in range(300):
            length = rng.integers(0, 65)
            seq = [base_ids[i] for i in rng.integers(0, 5, size=length)]
            report = E.detect_loops(seq, v)
            got = [(l.start, l.phrase, l.repeats) for l in report.loops]
            want, excluded = brute_force_loops(seq, v)
            assert got == want
            assert report.numeral_excluded_count == excluded


class TestEccOutcome:
    def test_correct(self, two_genre):
        v = two_genre.vocab
        gr = GenerationResult((v.ecc_id("alpha"),), STOP_ECC)
        out = E.ecc_outcome(gr, "alpha", v)
        assert out.kind == E.OUTCOME_CORRECT
        assert out.category == "alpha"

    def test_wrong_carries_reached_category(self, two_genre):
        v = two_genre.vocab
        gr = GenerationResult((v.ecc_id("beta"),), STOP_ECC)
        out = E.ecc_outcome(gr, "alpha", v)
        assert out.kind == E.OUTCOME_WRONG
        assert out.category == "beta"

    def test_unknown_occ_rejected(self, two_genre):
        gr = GenerationResult((1,), STOP_MAX)
        with pytest.raises(E.EvaluationError, match="category 'gamma' has no control codes"):
            E.ecc_outcome(gr, "gamma", two_genre.vocab)

    def test_max_length_is_none(self, two_genre):
        gr = GenerationResult((1, 2, 3), STOP_MAX)
        out = E.ecc_outcome(gr, "alpha", two_genre.vocab)
        assert out == E.EccOutcome(E.OUTCOME_NONE, None)

    def test_confusion_keys(self, two_genre):
        # One correct, one wrong and one none text under the alpha OCC, each
        # recorded the way grid_search records it.
        v = two_genre.vocab
        records = []
        for gr in (GenerationResult((v.ecc_id("alpha"),), STOP_ECC),
                   GenerationResult((v.ecc_id("beta"),), STOP_ECC),
                   GenerationResult((1, 2), STOP_MAX)):
            records.append(E.CellRecord.of(v, "", "alpha", S.SamplingParams(), gr, None))
        cell = E.summarize_cell(v, "alpha", (1.0, 1.0, 1.0), records)
        rep = E.GridReport(cells=(cell,))
        assert rep.confusion == {
            ("alpha", "alpha"): 1, ("alpha", "beta"): 1, ("alpha", "none"): 1,
        }


RECORD_KEYS = {"prompt", "text", "stop_reason", "outcome", "reached", "token_ids", "params"}


def assert_record_of(rec: E.CellRecord, gr: GenerationResult, occ: str, v) -> None:
    """``rec`` holds what the sampler returned for it: its stop reason, ids
    and ECC outcome, and the decoding of its ids without the stopping ECC."""
    out = E.ecc_outcome(gr, occ, v)
    assert (rec.stop_reason, rec.token_ids) == (gr.stop_reason, gr.generated_ids)
    assert (rec.outcome, rec.reached) == (out.kind, out.category)
    body = rec.token_ids[:-1] if rec.stop_reason == STOP_ECC else rec.token_ids
    assert rec.text == T.decode(v, body)


class TestCellRecord:
    def test_record_of_each_stop(self, two_genre):
        v = two_genre.vocab
        sp = S.SamplingParams(temperature=0.5, nucleus_p=0.9, repetition_penalty=1.2,
                              max_new_tokens=3, rng_seed=11)
        a1, a2 = v.token_to_id["a1"], v.token_to_id["a2"]
        for gr in (GenerationResult((a1, v.ecc_id("alpha")), STOP_ECC),
                   GenerationResult((a2, v.ecc_id("beta")), STOP_ECC),
                   GenerationResult((a1, a2, a1), STOP_MAX)):
            rec = E.CellRecord.of(v, "a2", "alpha", sp, gr, "M2")
            assert_record_of(rec, gr, "alpha", v)
            assert rec.prompt == "a2"
            assert rec.params == {"T": 0.5, "p": 0.9, "r": 1.2, "max_new_tokens": 3,
                                  "seed": 11, "preset": "M2"}

    def test_json_round_trip_has_exactly_the_fields(self, two_genre):
        v = two_genre.vocab
        gr = GenerationResult((v.token_to_id["a1"], v.ecc_id("beta")), STOP_ECC)
        rec = E.CellRecord.of(v, "å \"x\"", "alpha", S.SamplingParams(rng_seed=2**63), gr, None)
        line = rec.to_json()
        assert set(json.loads(line)) == RECORD_KEYS
        assert "å" in line and "\n" not in line
        assert E.CellRecord.from_json(line) == rec
        assert E.CellRecord.from_json(line).to_json() == line

    @pytest.mark.parametrize("edit", [
        lambda d: [d], lambda d: None, lambda d: "x", lambda d: 3,
        lambda d: {k: x for k, x in d.items() if k != "params"},
        lambda d: {k: x for k, x in d.items() if k != "token_ids"},
        lambda d: {**d, "span": "a1"},
        lambda d: {**d, "token_ids": "12"},
        lambda d: {**d, "token_ids": [1, 2.0]},
        lambda d: {**d, "token_ids": [1, True]},
    ], ids=["list", "null", "string", "number", "no-params", "no-ids", "extra-key",
            "ids-string", "float-id", "bool-id"])
    def test_line_not_a_record_rejected(self, two_genre, edit):
        v = two_genre.vocab
        gr = GenerationResult((v.token_to_id["a1"],), STOP_MAX)
        data = json.loads(E.CellRecord.of(v, "", "alpha", S.SamplingParams(), gr, None).to_json())
        with pytest.raises(E.EvaluationError, match="a generated-text record is an object"):
            E.CellRecord.from_json(json.dumps(edit(data)))

    @pytest.mark.parametrize("line", ["", "{", '{"prompt": "a"} x'])
    def test_line_not_json_rejected(self, line):
        with pytest.raises(E.EvaluationError, match="a generated-text record is not JSON"):
            E.CellRecord.from_json(line)


class TestBleu4:
    def test_identical_texts(self):
        assert E.bleu4("w1 w2 w3 w4", ["w1 w2 w3 w4"]) == pytest.approx(1.0)

    def test_worksheet_three_quarters_overlap(self):
        # p1=3/4, p2=2/3, p3=1/2, p4 smoothed to 1/2; BP=1
        score = E.bleu4("a b c d", ["a b c e"])
        assert score == pytest.approx((3 / 4 * 2 / 3 * 1 / 2 * 1 / 2) ** 0.25, abs=1e-9)

    def test_worksheet_brevity_penalty(self):
        # all precisions 1; candidate 4 tokens vs reference 6: BP = e^(1-6/4)
        score = E.bleu4("a b c d", ["a b c d e f"])
        assert score == pytest.approx(math.exp(-0.5), abs=1e-9)

    def test_disjoint_vocabulary_near_zero(self):
        score = E.bleu4("a b c d", ["x y z w"])
        # every order smoothed: (1/5 * 1/4 * 1/3 * 1/2)^(1/4)
        assert score == pytest.approx((1 / 120) ** 0.25, abs=1e-9)
        assert score < 0.35

    def test_self_bleu_worksheet(self):
        scores = E.self_bleu4(["a b c d", "a b c d", "e f g h"])
        assert scores[0] == pytest.approx(1.0)
        assert scores[1] == pytest.approx(1.0)
        assert scores[2] == pytest.approx((1 / 120) ** 0.25, abs=1e-9)

    def test_reference_permutation_invariance(self):
        refs = ["a b c d", "a c b d", "x y a b"]
        cand = "a b c x"
        base = E.bleu4(cand, refs)
        assert E.bleu4(cand, refs[::-1]) == pytest.approx(base, abs=1e-12)
        assert E.bleu4(cand, [refs[1], refs[0], refs[2]]) == pytest.approx(base, abs=1e-12)

    def test_needs_a_reference(self):
        with pytest.raises(E.EvaluationError, match="at least one reference"):
            E.bleu4("a b c d", [])

    def test_needs_two_texts(self):
        with pytest.raises(E.EvaluationError):
            E.self_bleu4(["only one"])


class TestGridSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(r_values=()), dict(p_values=(), t_values=()),
    ], ids=["no-r", "no-p-or-T"])
    def test_no_cells_rejected(self, kwargs):
        with pytest.raises(E.EvaluationError, match="no cells"):
            E.GridSpec(**kwargs)


@pytest.fixture(scope="module")
def report(two_genre):
    grid = E.GridSpec(p_values=(0.8,), t_values=(0.0,), r_values=(1.0, 1.6))
    idx = ngram.build_index(two_genre.docs)
    return E.grid_search(
        two_genre.trained, two_genre.vocab, ["alpha", "beta"], grid,
        texts_per_cell=3, max_new_tokens=24, idx=idx, base_seed=7,
    ), grid, idx


@pytest.fixture(scope="module")
def long_report(two_genre):
    """A grid with nonzero 13-gram overlap.  A copy of the trained model,
    trained further on 14-20-word documents, writes greedy texts; the index
    holds the greedy texts of a first run of the same grid.  A greedy text
    that stops at an ECC before 13 words (alpha at r = 1.6 writes 9) has no
    13-gram, so its cell reads 0.0 while the longer ones read 100.0."""
    rng = np.random.default_rng(5)
    docs = [corpus.Document(i, " ".join(rng.choice(WORDS[genre], size=rng.integers(14, 21))),
                            two_genre.table[genre], "manual")
            for i, genre in enumerate(["alpha", "beta"] * 30)]
    trained = two_genre.trained
    ckpt = M.Checkpoint(trained.config, {n: w.copy() for n, w in trained.weights.items()},
                        trained.step, trained.seed)
    trainer.train(ckpt, docs, two_genre.vocab,
                  trainer.TrainingConfig(batch_size=16, lr=2e-3, epochs=3, seed=3))
    grid = E.GridSpec(p_values=(0.8,), t_values=(0.0,), r_values=(1.0, 1.6))

    def run(idx):
        return E.grid_search(ckpt, two_genre.vocab, ["alpha", "beta"], grid,
                             texts_per_cell=3, max_new_tokens=32, idx=idx, base_seed=7)

    plain = run(None)
    idx = ngram.build_index([
        corpus.Document(i, cell.records[0].text, two_genre.table[cell.category], "manual")
        for i, cell in enumerate(plain.cells) if cell.temperature == 0.0
    ])
    return run(idx), plain, idx


class TestGridSearch:
    def test_cell_inventory(self, report):
        rep, grid, _ = report
        assert len(rep.cells) == 2 * len(grid.cells())
        keys = [c.key for c in rep.cells]
        assert keys == sorted(keys)
        # the (p, r) family includes the M1 combination
        assert ("alpha", 1.0, 0.8, 1.6) in keys

    def test_greedy_cells_are_constant(self, report):
        rep, _, _ = report
        for cell in rep.cells:
            if cell.temperature == 0.0:
                texts = {rec.text for rec in cell.records}
                assert len(texts) == 1

    def test_confusion_rows_match_text_counts(self, report):
        rep, grid, _ = report
        per_category = len(grid.cells()) * 3
        for occ in ("alpha", "beta"):
            row = sum(n for (o, _), n in rep.confusion.items() if o == occ)
            assert row == per_category

    def test_aggregates_recomputable_from_dump(self, report, long_report, two_genre):
        for rep, _, idx in (report, long_report):
            for cell in rep.cells:
                dumped = [E.CellRecord.from_json(rec.to_json()) for rec in cell.records]
                redone = E.summarize_cell(
                    two_genre.vocab, cell.category,
                    (cell.temperature, cell.nucleus_p, cell.repetition_penalty),
                    dumped, idx,
                )
                assert redone == cell

    def test_index_fills_only_the_overlap_column(self, long_report):
        rep, plain, _ = long_report
        for cell, bare in zip(rep.cells, plain.cells):
            assert replace(cell, median_overlap13=None) == bare
            if cell.temperature == 0.0:  # its text is in the index
                # A text of fewer than 13 words has no 13-gram to match.
                words = len(cell.records[0].text.split())
                assert cell.median_overlap13 == (100.0 if words >= 13 else 0.0)
        assert any(cell.median_overlap13 == 100.0 for cell in rep.cells)

    def test_csv_shape(self, report):
        rep, _, _ = report
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == E.GridReport.CSV_HEADER
        assert len(lines) == 1 + len(rep.cells)
        for line in lines[1:]:
            assert len(line.split(",")) == 11

    def test_no_categories_rejected(self, two_genre):
        with pytest.raises(E.EvaluationError, match="at least one category"):
            E.grid_search(two_genre.trained, two_genre.vocab, [])

    def test_unregistered_category_rejected(self, two_genre):
        with pytest.raises(E.EvaluationError, match="category 'gamma' has no control codes"):
            E.grid_search(two_genre.trained, two_genre.vocab, ["alpha", "gamma"])

    def test_index_of_another_k_rejected_before_decoding(self, two_genre, monkeypatch):
        calls = []
        monkeypatch.setattr(E, "generate_batch", lambda *args: calls.append(args))
        idx = ngram.build_index(two_genre.docs, k=3)
        with pytest.raises(E.EvaluationError, match="needs a 13-gram index, not 3-grams"):
            E.grid_search(two_genre.trained, two_genre.vocab, ["alpha"],
                          E.GridSpec(p_values=(0.8,), t_values=(), r_values=(1.0,)),
                          texts_per_cell=1, idx=idx)
        assert calls == []

    def test_sample_does_not_depend_on_texts_per_cell(self, two_genre):
        # Sample s keeps its own cell_seed stream, also when the rows before
        # it stop early.
        grid = E.GridSpec(p_values=(0.9,), t_values=(), r_values=(1.2,))
        cell = [E.grid_search(two_genre.trained, two_genre.vocab, ["alpha"], grid,
                              texts_per_cell=n, max_new_tokens=24, base_seed=7).cells[0]
                for n in (3, 5)]
        assert cell[1].records[:3] == cell[0].records
        assert len({rec.n_tokens for rec in cell[1].records}) > 1

    def test_cell_does_not_depend_on_the_cells_in_its_batch(self, two_genre, monkeypatch):
        # A category's cells share one batch, whose rows stop at different
        # steps; each cell equals the same cell run alone, and the report
        # is the same when every row is a batch of its own.
        grid = E.GridSpec(p_values=(0.7, 0.9), t_values=(0.0, 0.5), r_values=(1.0, 1.4))
        rep = E.grid_search(two_genre.trained, two_genre.vocab, ["beta", "alpha"], grid,
                            texts_per_cell=4, max_new_tokens=20, base_seed=3)
        for cell in rep.cells:
            alone = E.GridSpec(p_values=(cell.nucleus_p,) if cell.temperature == 1.0 else (),
                               t_values=(cell.temperature,) if cell.nucleus_p == 1.0 else (),
                               r_values=(cell.repetition_penalty,))
            assert E.grid_search(two_genre.trained, two_genre.vocab, [cell.category], alone,
                                 texts_per_cell=4, max_new_tokens=20, base_seed=3).cells == (cell,)
        lengths = {rec.n_tokens for cell in rep.cells for rec in cell.records}
        assert len(lengths) > 3 and 20 in lengths
        assert {c.temperature for c in rep.cells} == {0.0, 0.5, 1.0}
        monkeypatch.setattr(S, "BATCH_BYTES", 1)
        assert E.grid_search(two_genre.trained, two_genre.vocab, ["beta", "alpha"], grid,
                             texts_per_cell=4, max_new_tokens=20, base_seed=3) == rep

    def test_grid_values_with_one_label_rejected(self):
        # Dump names and report rows print T, p and r at two decimals.
        grid = E.GridSpec(p_values=(0.901, 0.902), t_values=(), r_values=(1.0,))
        with pytest.raises(E.EvaluationError, match="share the label T1.00_p0.90_r1.00"):
            E.check_grid(["alpha"], grid, 1, 8)
        with pytest.raises(E.EvaluationError, match="share the label"):
            E.check_grid(["alpha"], E.GridSpec(p_values=(), t_values=(0.999, 1.0)), 1, 8)
        E.check_grid(["alpha"], E.GridSpec(p_values=(0.9, 0.91), t_values=()), 1, 8)

    def test_trained_model_reaches_correct_ecc_in_greedy_cells(self, report):
        rep, _, _ = report
        greedy = [c for c in rep.cells if c.temperature == 0.0
                  and c.repetition_penalty == 1.0]
        assert greedy
        for cell in greedy:
            assert cell.ecc_correct == len(cell.records)
