import re
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from ctrlkit import agreement, corpus, model as M, tasks, tokenizer as T, trainer
from tests.conftest import common_prefix, perturbed_checkpoint


def char_word_vocab():
    """Single-character words so token counts are easy to reason about."""
    table = corpus.table_from_names(["alpha"])
    docs = [corpus.Document(0, "x y z w v", table["alpha"], "manual")]
    return T.add_control_codes(T.train_bpe(docs, 1, vocab_size=10), table)


TOY_TASK = tasks.TaskSpec(
    name="toy",
    template="{text}",
    kind=tasks.LABEL,
    labels=("x", "y"),
    metrics=("alpha_nominal", "accuracy"),
)


def with_toy_task(v, d=8):
    cfg = M.ModelConfig(layers=1, heads=2, model_dim=d, inner_dim=2 * d,
                        context=256, vocab_size=len(v))
    ckpt = M.init_model(cfg, seed=0)
    return tasks.add_task_tokens(v, ckpt, TOY_TASK)


class TestTaskSpec:
    @pytest.mark.parametrize("fields, match", [
        (dict(kind="choice", labels=("x", "y"), metrics=("accuracy",)),
         "unknown task kind 'choice'"),
        (dict(kind=tasks.LABEL, labels=("x",), metrics=("accuracy",)), "at least 2 labels"),
        (dict(kind=tasks.LABEL, labels=("x", "y"), metrics=("accuracy", "acuracy")),
         "unknown metric 'acuracy'"),
        (dict(kind=tasks.LABEL, labels=("x", "y"), metrics=("accuracy", "alpha_nominal"),
              group_field="group"),
         "answer-selection task 't' names metric 'alpha_nominal'"),
    ])
    def test_invalid_spec_rejected_when_made(self, fields, match):
        with pytest.raises(tasks.TaskError, match=match):
            tasks.TaskSpec(name="t", template="{text}", **fields)


class TestPromptBudget:
    def test_comfortable_prompt_keeps_cap(self):
        assert tasks.PromptBudget().limit(100, 5) == 245

    def test_long_prompt_formula(self):
        assert tasks.PromptBudget().limit(300, 20) == 256 - 5 - 20 - 2 == 229


class TestBuildPrompt:
    def test_untruncated_prompt_unchanged(self):
        v = with_toy_task(char_word_vocab())[0]
        dp = {"text": "x y z", "label": "x"}
        ids = tasks.build_prompt(dp, TOY_TASK, v, tasks.PromptBudget())
        assert ids[0] == v.occ_id("toy")
        assert ids[1:] == T.encode(v, "x y z")

    def test_truncation_head_tail_around_separator(self):
        v = with_toy_task(char_word_vocab())[0]
        # 150 single-char words -> 299 prompt tokens; label " x y ... y"
        # of 10 words -> 20 tokens, so the limit is 229 and each side
        # keeps floor(229/2) = 114 tokens.
        words = ["x", "y", "z", "w", "v"] * 30
        dp = {"text": " ".join(words), "label": "x y x y x y x y x y"}
        budget = tasks.PromptBudget()
        p_ids = T.encode(v, dp["text"])
        assert len(p_ids) == 299
        assert tasks.label_token_len(TOY_TASK, dp, v) == 20
        ids = tasks.build_prompt(dp, TOY_TASK, v, budget)
        sep_ids = T.encode(v, budget.separator)
        assert ids[1:115] == p_ids[:114]
        assert ids[115:115 + len(sep_ids)] == sep_ids
        assert ids[115 + len(sep_ids):] == p_ids[-114:]
        # label + ECC always fit afterwards
        assert len(ids) <= budget.context - 20 - 1

    def test_training_ids_order_and_fit(self):
        v = with_toy_task(char_word_vocab())[0]
        dp = {"text": "x y z", "label": "y"}
        ids = tasks.training_ids(dp, TOY_TASK, v, tasks.PromptBudget())
        assert ids[0] == v.occ_id("toy")
        assert ids[-1] == v.ecc_id("toy")
        assert ids[-3:-1] == T.encode(v, " y")
        assert len(ids) <= 256

    def test_oversized_label_rejected(self):
        v = with_toy_task(char_word_vocab())[0]
        dp = {"text": "x", "label": "x y " * 200}
        with pytest.raises(tasks.TaskError, match="label"):
            tasks.build_prompt(dp, TOY_TASK, v, tasks.PromptBudget())

    def test_vocab_without_task_tokens_rejected(self):
        v = char_word_vocab()
        with pytest.raises(tasks.TaskError, match="call add_task_tokens first"):
            tasks.build_prompt({"text": "x", "label": "y"}, TOY_TASK, v, tasks.PromptBudget())

    def test_missing_template_field_rejected(self):
        v = with_toy_task(char_word_vocab())[0]
        with pytest.raises(tasks.TaskError, match="missing field 'text' for task toy"):
            tasks.build_prompt({"label": "x"}, TOY_TASK, v, tasks.PromptBudget())

    def test_swedn_example_rendering(self):
        spec = tasks.get_task("swedn")
        dp = {"text": "Artikeln text", "label": "Sammanfattningen"}
        rendered = spec.render_example(dp)
        assert rendered == (
            ":swedn: Artikeln text Sammanfattning: Sammanfattningen :swedn:$"
        )

    def test_builtin_templates_cover_table(self):
        assert len(tasks.BUILTIN_TASKS) == 11
        assert tasks.get_task("SweNLI").template.startswith("Situation:")
        with pytest.raises(tasks.TaskError):
            tasks.get_task("nosuch")


class TestLoadDatapoints:
    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "task.jsonl"
        path.write_text('{"text": "x", "label": "y"}\n\n  \n{"text": "z", "label": "x"}\n',
                        encoding="utf-8")
        assert tasks.load_datapoints(path) == [{"text": "x", "label": "y"},
                                               {"text": "z", "label": "x"}]

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"', "3", "null"])
    def test_non_object_line_rejected(self, tmp_path, line):
        path = tmp_path / "task.jsonl"
        path.write_text('{"text": "x", "label": "y"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(tasks.TaskError, match=re.escape(f"{path}:2: expected a JSON object")):
            tasks.load_datapoints(path)

    def test_invalid_utf8_reports_line(self, tmp_path):
        path = tmp_path / "task.jsonl"
        path.write_bytes(b'{"text": "x", "label": "y"}\n{"text": "\xff", "label": "y"}\n')
        with pytest.raises(tasks.TaskError, match=re.escape(f"{path}:2: byte 0xff is not valid")):
            tasks.load_datapoints(path)


class TestParseLabel:
    def test_prefix_match(self):
        spec = tasks.get_task("dalaj-ged")
        assert tasks.parse_label("Ja, det stämmer", spec) == "Ja"
        assert tasks.parse_label("  nej alls", spec) == "Nej"
        assert tasks.parse_label("kanske", spec) is None

    def test_longest_prefix_wins(self):
        spec = tasks.TaskSpec(name="t2", template="{x}", kind=tasks.LABEL,
                              labels=("Ja", "Ja visst"), metrics=("accuracy",))
        assert tasks.parse_label("ja visst det", spec) == "Ja visst"
        assert tasks.parse_label("ja det", spec) == "Ja"

    def test_score_extraction(self):
        spec = tasks.get_task("absabank-imm")
        assert tasks.parse_label("Känsloläge: 3.5", spec) == 3.5
        assert tasks.parse_label("ungefär 4,25 tror jag", spec) == 4.25
        assert tasks.parse_label("-2 grader", spec) == -2.0
        assert tasks.parse_label("kanske imorgon", spec) is None

    def test_summary_up_to_ecc(self):
        spec = tasks.get_task("swedn")
        text = "En kort sammanfattning. :swedn:$ resten ignoreras"
        assert tasks.parse_label(text, spec) == "En kort sammanfattning."
        assert tasks.parse_label("   ", spec) is None


class TestBaselines:
    def test_majority_counts(self):
        preds, value = tasks.majority_baseline(["Ja", "Ja", "Nej"])
        assert preds == ["Ja", "Ja", "Ja"]
        assert value == pytest.approx(2 / 3)

    def test_tie_breaks_to_first_seen(self):
        preds, _ = tasks.majority_baseline(["Nej", "Ja", "Ja", "Nej"])
        assert preds[0] == "Nej"

    def test_balanced_fixture_gives_negative_alpha(self):
        # Hand check with N=10 per label: o[a,a]=20, o[a,b]=o[b,a]=10,
        # n_a=30, n_b=10, D_o = 1/2, D_e = 600/1560 = 5/13,
        # alpha = 1 - 13/10 = -0.3.
        gold = ["a", "b"] * 10
        preds, value = tasks.majority_baseline(
            gold,
            metric=lambda g, p: agreement.krippendorff_alpha(g, p, "nominal"),
        )
        assert agreement.accuracy(gold, preds) == pytest.approx(0.5)
        assert value == pytest.approx(-0.3, abs=1e-9)

    def test_empty_inputs_rejected(self):
        with pytest.raises(tasks.TaskError, match="non-empty label list"):
            tasks.majority_baseline([])
        with pytest.raises(tasks.TaskError, match="empty text"):
            tasks.first_sentence_baseline("")

    def test_first_sentence_splits(self):
        assert tasks.first_sentence_baseline("A b c. D e.") == "A b c."
        assert tasks.first_sentence_baseline("inga meningar här") == "inga meningar här"

    def test_first_sentence_needs_uppercase_after_space(self):
        # the rule, not linguistics: lowercase after the period keeps going
        assert tasks.first_sentence_baseline("Mr. smith went. Hello") == "Mr. smith went."
        assert tasks.first_sentence_baseline("Slut.") == "Slut."
        # '?' is followed by '!', not whitespace, so '!' is the split point
        assert tasks.first_sentence_baseline("Va?! Ja.") == "Va?!"


class TestTaskTokens:
    def test_ids_appended_and_embedding_grown(self):
        v = char_word_vocab()
        v2, ckpt2 = with_toy_task(v)
        assert v2.occ_id("toy") == len(v)
        assert v2.ecc_id("toy") == len(v) + 1
        assert ckpt2.config.vocab_size == len(v) + 2
        assert ckpt2.weights["tok_emb"].shape[0] == len(v) + 2

    def test_new_rows_seeded_identically(self):
        v = char_word_vocab()
        _, a = with_toy_task(v)
        _, b = with_toy_task(v)
        npt.assert_array_equal(a.weights["tok_emb"][-2:], b.weights["tok_emb"][-2:])

    def test_existing_weights_untouched(self):
        v = char_word_vocab()
        cfg = M.ModelConfig(layers=1, heads=2, model_dim=8, inner_dim=16,
                            context=32, vocab_size=len(v))
        ckpt = M.init_model(cfg, seed=0)
        _, ckpt2 = tasks.add_task_tokens(v, ckpt, TOY_TASK)
        npt.assert_array_equal(ckpt2.weights["tok_emb"][:len(v)],
                               ckpt.weights["tok_emb"])

    def test_collision_rejected(self):
        v = char_word_vocab()
        v2, ckpt2 = with_toy_task(v)
        with pytest.raises(T.TokenizerError):
            tasks.add_task_tokens(v2, ckpt2, TOY_TASK)

    def test_size_mismatch_rejected(self):
        v = char_word_vocab()
        _, ckpt2 = with_toy_task(v)
        with pytest.raises(tasks.TaskError, match="disagree on the vocabulary size"):
            tasks.add_task_tokens(v, ckpt2, TOY_TASK)

    def test_extended_vocab_survives_serialization(self, tmp_path):
        # Task ids live beyond pad/unk; the file format must preserve the
        # exact id layout, not recompute it.
        v2 = with_toy_task(char_word_vocab())[0]
        path = tmp_path / "vocab.txt"
        T.save_vocab(path, v2)
        loaded = T.load_vocab(path)
        assert loaded.token_to_id == v2.token_to_id
        assert loaded.control_ids == v2.control_ids
        assert (loaded.pad_id, loaded.unk_id) == (v2.pad_id, v2.unk_id)

    def test_slash_in_task_name_survives_serialization(self, tmp_path):
        spec = tasks.TaskSpec(name="qa/yes", template="{text}", kind=tasks.LABEL,
                              labels=("x", "y"), metrics=("accuracy",))
        v = char_word_vocab()
        cfg = M.ModelConfig(layers=1, heads=2, model_dim=8, inner_dim=16,
                            context=32, vocab_size=len(v))
        v2, _ = tasks.add_task_tokens(v, M.init_model(cfg, seed=0), spec)
        path = tmp_path / "vocab.txt"
        T.save_vocab(path, v2)
        loaded = T.load_vocab(path)
        assert loaded == v2
        ids = list(v2.control_ids["qa/yes"])
        assert T.decode(loaded, ids) == T.decode(v2, ids) == spec.occ_text + spec.ecc_text


def toy_datapoints(n=8):
    rng = np.random.default_rng(0)
    dps = []
    for i in range(n):
        words = rng.choice(["x", "y", "z", "w"], size=4)
        dps.append({"text": " ".join(words), "label": "x" if i % 2 else "y"})
    return dps


class TestFinetuneEvaluate:
    def test_finetune_reports_each_epoch(self):
        v2, ft = with_toy_task(char_word_vocab())
        tc = trainer.TrainingConfig(batch_size=4, lr=1e-3, epochs=3)
        seen = []
        tasks.finetune(ft, v2, TOY_TASK, toy_datapoints(), tc,
                       on_epoch=lambda epoch, ck: seen.append((epoch, ck.step, ck)))
        assert [(epoch, step) for epoch, step, _ in seen] == [(1, 2), (2, 4), (3, 6)]
        assert all(ck is ft for _, _, ck in seen)
        assert ft.step == 6

    def test_finetune_deterministic(self):
        v = char_word_vocab()
        tc = trainer.TrainingConfig(batch_size=4, lr=1e-3, epochs=1)
        finals = []
        for _ in range(2):
            v2, ckpt = with_toy_task(v)
            tasks.finetune(ckpt, v2, TOY_TASK, toy_datapoints(), tc)
            finals.append(ckpt)
        for name in M.param_shapes(finals[0].config):
            npt.assert_array_equal(finals[0].weights[name], finals[1].weights[name])

    @pytest.mark.parametrize("grown_vocab, match", [
        (False, "has no control tokens in the vocabulary; call add_task_tokens first"),
        (True, "disagree on the vocabulary size"),
    ])
    def test_finetune_rejects_a_model_not_ready_for_the_task(self, grown_vocab, match):
        v = char_word_vocab()
        cfg = M.ModelConfig(layers=1, heads=2, model_dim=8, inner_dim=16,
                            context=256, vocab_size=len(v))
        ckpt = M.init_model(cfg, seed=0)
        before = {name: w.copy() for name, w in ckpt.weights.items()}
        if grown_vocab:
            v = tasks.add_task_tokens(v, ckpt, TOY_TASK)[0]
        epochs = []
        tc = trainer.TrainingConfig(batch_size=4, lr=1e-3, epochs=1)
        with pytest.raises(tasks.TaskError, match=match):
            tasks.finetune(ckpt, v, TOY_TASK, toy_datapoints(), tc,
                           on_epoch=lambda epoch, ck: epochs.append(epoch))
        assert epochs == [] and ckpt.step == 0
        for name in M.param_shapes(cfg):
            npt.assert_array_equal(ckpt.weights[name], before[name])

    @pytest.mark.parametrize("entry, spec", [
        ("evaluate", TOY_TASK),
        ("evaluate", tasks.get_task("swefaq")),
        ("answer_selection_accuracy", tasks.get_task("swefaq")),
    ], ids=["evaluate-greedy", "evaluate-selection", "answer_selection_accuracy"])
    def test_grown_vocab_with_ungrown_checkpoint_rejected(self, monkeypatch, entry, spec):
        v = char_word_vocab()
        cfg = M.ModelConfig(layers=1, heads=2, model_dim=8, inner_dim=16,
                            context=256, vocab_size=len(v))
        ckpt = M.init_model(cfg, seed=0)
        v2 = tasks.add_task_tokens(v, ckpt, spec)[0]
        calls = []
        monkeypatch.setattr(tasks.sampler, "generate_ids", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(M, "sequence_logprob", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(M, "forward", lambda *a, **k: calls.append(a))
        dps = [{"text": "x y", "question": "x", "answer": "y", "label": label, "group": 1}
               for label in spec.labels]
        with pytest.raises(tasks.TaskError, match="disagree on the vocabulary size"):
            getattr(tasks, entry)(ckpt, v2, spec, dps)
        assert calls == []

    def test_no_datapoints_rejected(self):
        v2, ckpt = with_toy_task(char_word_vocab())
        tc = trainer.TrainingConfig(batch_size=4, lr=1e-3, epochs=1)
        with pytest.raises(tasks.TaskError, match="no datapoints to fine-tune on"):
            tasks.finetune(ckpt, v2, TOY_TASK, [], tc)
        with pytest.raises(tasks.TaskError, match="no datapoints to evaluate"):
            tasks.evaluate(ckpt, v2, TOY_TASK, [])

    def test_evaluate_produces_metrics_and_missing_stats(self):
        v2, ft = with_toy_task(char_word_vocab())
        tc = trainer.TrainingConfig(batch_size=4, lr=1e-3, epochs=1)
        tasks.finetune(ft, v2, TOY_TASK, toy_datapoints(), tc)
        result = tasks.evaluate(ft, v2, TOY_TASK, toy_datapoints(4), max_new_tokens=4)
        assert set(result.metrics) == {"alpha_nominal", "accuracy"}
        assert 0.0 <= result.n_missing_pct <= 100.0
        again = tasks.evaluate(ft, v2, TOY_TASK, toy_datapoints(4), max_new_tokens=4)
        assert result == again

    @pytest.mark.parametrize("label", ["hög", "nan", "inf"])
    def test_non_numeric_gold_score_rejected_before_decoding(self, monkeypatch, label):
        spec = tasks.get_task("sweparaphrase")
        v = char_word_vocab()
        cfg = M.ModelConfig(layers=1, heads=2, model_dim=8, inner_dim=16,
                            context=256, vocab_size=len(v))
        v2, ckpt = tasks.add_task_tokens(v, M.init_model(cfg, seed=0), spec)
        datapoints = [{"sentence1": "x y", "sentence2": "y x", "label": score}
                      for score in ("3.5", label, "1")]
        calls = []
        monkeypatch.setattr(tasks.sampler, "generate_ids",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(tasks.TaskError, match=f"datapoint 2: gold score '{label}'"):
            tasks.evaluate(ckpt, v2, spec, datapoints)
        assert calls == []

    def test_small_context_model_truncates_prompts(self, monkeypatch):
        # 12 words -> 23 prompt tokens; with label and control codes the
        # sequence would need 27 of the model's 16 positions.
        v = char_word_vocab()
        cfg = M.ModelConfig(layers=1, heads=2, model_dim=8, inner_dim=16,
                            context=16, vocab_size=len(v))
        ckpt = M.init_model(cfg, seed=0)
        dps = [{"text": "x y z w " * 3, "label": label} for label in ("x", "y")]
        seen = []
        real_train = trainer.train

        def recording_train(*args, windows, **kwargs):
            seen.extend(windows)
            return real_train(*args, windows=windows, **kwargs)

        monkeypatch.setattr(trainer, "train", recording_train)
        tc = trainer.TrainingConfig(batch_size=2, lr=1e-3, epochs=1)
        v2, ft = tasks.add_task_tokens(v, ckpt, TOY_TASK)
        tasks.finetune(ft, v2, TOY_TASK, dps, tc)
        assert len(seen) == len(dps)
        for w in seen:
            assert w.ids[w.real_length - 1] == v2.ecc_id("toy")
        result = tasks.evaluate(ft, v2, TOY_TASK, dps, max_new_tokens=4)
        assert set(result.metrics) == {"alpha_nominal", "accuracy"}


class TestAnswerSelection:
    def test_oracle_scorer_drives_selection(self):
        spec = tasks.get_task("swefaq")
        datapoints = [
            {"question": "q1", "answer": "rätt", "label": "Ja", "group": 1, "s": 2.0},
            {"question": "q1", "answer": "fel", "label": "Nej", "group": 1, "s": 1.0},
            {"question": "q2", "answer": "fel", "label": "Nej", "group": 2, "s": 5.0},
            {"question": "q2", "answer": "rätt", "label": "Ja", "group": 2, "s": 0.0},
        ]
        acc = tasks.answer_selection_accuracy(
            None, None, spec, datapoints, scorer=lambda dp: dp["s"]
        )
        assert acc == 0.5  # group 1 picked right, group 2 picked wrong

    def test_missing_group_field_rejected(self):
        spec = tasks.get_task("swefaq")
        datapoints = [{"question": "q", "answer": "a", "label": "Ja"}]
        with pytest.raises(tasks.TaskError, match="datapoint has no 'group' field"):
            tasks.answer_selection_accuracy(None, None, spec, datapoints,
                                            scorer=lambda dp: 0.0)

    def test_no_datapoints_rejected(self):
        with pytest.raises(tasks.TaskError, match="no datapoints"):
            tasks.answer_selection_accuracy(None, None, tasks.get_task("swefaq"), [],
                                            scorer=lambda dp: 0.0)

    def test_task_without_groups_rejected(self):
        with pytest.raises(tasks.TaskError, match="'swewinograd' is not an answer-selection"):
            tasks.answer_selection_accuracy(None, None, tasks.get_task("swewinograd"),
                                            [{"group": 1}], scorer=lambda dp: 0.0)

    def test_missing_label_raises_task_error(self):
        spec = tasks.get_task("swefaq")
        datapoints = [{"question": "q", "answer": "a", "group": 1}]
        with pytest.raises(tasks.TaskError, match="label"):
            tasks.answer_selection_accuracy(None, None, spec, datapoints,
                                            scorer=lambda dp: 0.0)

    def test_small_context_model_truncates_prompts(self):
        v = char_word_vocab()
        spec = tasks.get_task("swefaq")
        cfg = M.ModelConfig(layers=1, heads=2, model_dim=8, inner_dim=16,
                            context=16, vocab_size=len(v))
        v2, ckpt2 = tasks.add_task_tokens(v, M.init_model(cfg, seed=0), spec)
        datapoints = [
            {"question": "x y z w x y", "answer": a, "label": label, "group": 1}
            for a, label in (("z", "Ja"), ("w", "Nej"))
        ]
        assert tasks.answer_selection_accuracy(ckpt2, v2, spec, datapoints) in (0.0, 1.0)

    def test_model_path_runs_deterministically(self):
        v = char_word_vocab()
        spec = tasks.get_task("swefaq")
        cfg = M.ModelConfig(layers=1, heads=2, model_dim=8, inner_dim=16,
                            context=256, vocab_size=len(v))
        ckpt = M.init_model(cfg, seed=0)
        v2, ckpt2 = tasks.add_task_tokens(v, ckpt, spec)
        datapoints = [
            {"question": "x y", "answer": "z", "label": "Ja", "group": 1},
            {"question": "x y", "answer": "w", "label": "Nej", "group": 1},
        ]
        a = tasks.answer_selection_accuracy(ckpt2, v2, spec, datapoints)
        b = tasks.answer_selection_accuracy(ckpt2, v2, spec, datapoints)
        assert a == b
        assert a in (0.0, 1.0)

    def test_evaluate_reports_pseudo_alpha(self):
        spec = tasks.get_task("swefaq")
        v = char_word_vocab()
        cfg = M.ModelConfig(layers=1, heads=2, model_dim=8, inner_dim=16,
                            context=256, vocab_size=len(v))
        ckpt = M.init_model(cfg, seed=0)
        v2, ckpt2 = tasks.add_task_tokens(v, ckpt, spec)
        datapoints = [
            {"question": "x", "answer": "y", "label": "Ja", "group": 1},
            {"question": "x", "answer": "z", "label": "Nej", "group": 1},
        ]
        result = tasks.evaluate(ckpt2, v2, spec, datapoints)
        acc = result.metrics["accuracy"]
        assert result.metrics["pseudo_alpha"] == pytest.approx(
            agreement.pseudo_alpha(acc)
        )

    @pytest.mark.parametrize("metrics", [
        ("accuracy",), ("pseudo_alpha",), ("accuracy", "pseudo_alpha"),
        ("pseudo_alpha", "accuracy"),
    ])
    def test_evaluate_reports_exactly_the_spec_metrics(self, metrics):
        spec = replace(tasks.get_task("swefaq"), metrics=metrics)
        v = char_word_vocab()
        cfg = M.ModelConfig(layers=1, heads=2, model_dim=8, inner_dim=16,
                            context=256, vocab_size=len(v))
        v2, ckpt2 = tasks.add_task_tokens(v, M.init_model(cfg, seed=0), spec)
        datapoints = [
            {"question": "x", "answer": "y", "label": "Ja", "group": 1},
            {"question": "x", "answer": "z", "label": "Nej", "group": 1},
        ]
        result = tasks.evaluate(ckpt2, v2, spec, datapoints)
        assert tuple(result.metrics) == metrics
        acc = tasks.answer_selection_accuracy(ckpt2, v2, spec, datapoints)
        expected = {"accuracy": acc, "pseudo_alpha": agreement.pseudo_alpha(acc)}
        assert result.metrics == {m: expected[m] for m in metrics}


def float64_selection_model(v, context=256):
    return perturbed_checkpoint(M.ModelConfig(layers=2, heads=2, model_dim=8, inner_dim=16,
                                              context=context, vocab_size=len(v)))


class TestSharedPrefixSelection:
    """Candidates scored in turn through one cache give each candidate's
    ``sequence_logprob``, and each computes only the columns past the prefix
    it shares with the candidate before it."""

    def check_scores(self, ckpt, prompts, cont, got, widths):
        want = [M.sequence_logprob(ckpt, p + cont, start=len(p)) for p in prompts]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * abs(w)
        # Candidate i's pass: len(p_i) + len(cont) - 1 columns, minus the
        # prefix it shares with what candidate i-1 left in the cache.
        held = [[]] + [(p + cont)[:-1] for p in prompts]
        assert widths == [
            len(p) + len(cont) - 1 - min(common_prefix(before, p + cont), len(p) - 1)
            for before, p in zip(held, prompts)
        ]

    @pytest.mark.parametrize("prompts", [
        [[9, 3, 4, 5, 0, 2]],
        [[9, 3, 4, 0, 5], [9, 4, 3], [9, 5, 5, 5, 5, 5, 0]],
        [[9, 3, 0, 4], [9, 3, 0, 4, 0, 2, 1], [9, 3, 0, 4, 0]],
        [[9, 3, 0, 4, 1], [9, 3, 0, 4, 1], [9, 3, 0, 4, 2]],
        [[9, 3, 0], [9]],  # the OCC alone is scored, so nothing is reused
    ], ids=["single-candidate", "only-the-occ", "prompt-is-a-prefix", "repeated-prompt",
            "occ-only-prompt"])
    def test_matches_per_candidate_scores(self, computed_columns, prompts):
        v = char_word_vocab()
        ckpt, cont = float64_selection_model(v), [0, 4]
        kv = M.kv_cache(ckpt)
        got = [M.sequence_logprob(ckpt, p + cont, start=len(p), kv=kv) for p in prompts]
        widths = computed_columns[:]
        self.check_scores(ckpt, prompts, cont, got, widths)

    def test_prompts_cut_at_the_separator(self, monkeypatch, computed_columns):
        table = corpus.table_from_names(["alpha"])
        docs = [corpus.Document(0, "Fråga: x y z w v Svar: Passar? [...] Ja Nej",
                                table["alpha"], "manual")]
        v = T.add_control_codes(T.train_bpe(docs, 1, vocab_size=40), table)
        spec = tasks.get_task("swefaq")
        v2, ckpt = tasks.add_task_tokens(v, float64_selection_model(v, context=40), spec)
        budget = tasks.PromptBudget().fit(ckpt)
        dps = [{"question": "x y z w v " * 4, "answer": a, "label": label, "group": 1}
               for a, label in (("z w v x y z", "Nej"), ("v v v", "Ja"), ("x", "Nej"))]
        prompts = [tasks.build_prompt(dp, spec, v2, budget) for dp in dps]
        for p in prompts:  # the shared head, the separator, then each own tail
            assert T.decode(v2, p).startswith(":swefaq:Fråga: x y z w v x y[...]")
        assert len({tuple(p) for p in prompts}) == 3
        got = []
        sequence_logprob = M.sequence_logprob

        def recording(*args, **kwargs):
            got.append(sequence_logprob(*args, **kwargs))
            return got[-1]

        monkeypatch.setattr(M, "sequence_logprob", recording)
        tasks.answer_selection_accuracy(ckpt, v2, spec, dps)
        widths = computed_columns[:]
        monkeypatch.undo()
        self.check_scores(ckpt, prompts, T.encode(v2, " Ja"), got, widths)

    def test_selection_picks_the_per_candidate_argmax(self):
        spec = tasks.get_task("swefaq")
        v = char_word_vocab()
        v2, ckpt = tasks.add_task_tokens(v, float64_selection_model(v), spec)
        budget = tasks.PromptBudget().fit(ckpt)
        cont = T.encode(v2, " Ja")
        dps = [{"question": q, "answer": a, "label": label, "group": q}
               for q in ("x y", "z w x", "v")
               for a, label in (("z", "Ja"), ("w x", "Nej"), ("y y", "Nej"))]

        def per_candidate(dp):
            prompt = tasks.build_prompt(dp, spec, v2, budget)
            return M.sequence_logprob(ckpt, prompt + cont, start=len(prompt))

        assert (tasks.answer_selection_accuracy(ckpt, v2, spec, dps)
                == tasks.answer_selection_accuracy(ckpt, v2, spec, dps, scorer=per_candidate))


class TestScorePredictions:
    def test_missing_percentage(self):
        spec = tasks.get_task("dalaj-ged")
        result = tasks.score_predictions(spec, ["Ja", "Nej", "Ja", "Nej"],
                                         ["Ja", None, "Ja", "Nej"])
        assert result.n_missing_pct == 25.0
        assert result.metrics["accuracy"] == 1.0

    def test_all_missing_reports_none(self):
        spec = tasks.get_task("dalaj-ged")
        result = tasks.score_predictions(spec, ["Ja", "Nej"], [None, None])
        assert result.metrics["alpha_nominal"] is None
        assert result.n_missing_pct == 100.0

    def test_pseudo_alpha_rescales_accuracy(self):
        result = tasks.score_predictions(tasks.get_task("swefaq"), ["Ja", "Nej"], ["Ja", "Ja"])
        assert result.metrics == {"pseudo_alpha": agreement.pseudo_alpha(0.5),
                                  "accuracy": 0.5}

    def test_spearman_matches_agreement(self):
        spec = tasks.get_task("absabank-imm")
        golds, preds = [1.0, 2.0, 3.0, 4.0, 5.0], [1.5, 3.0, None, 2.0, 4.5]
        result = tasks.score_predictions(spec, golds, preds)
        assert result.metrics["spearman"] == agreement.spearman_rho(golds, preds)

    def test_rouge_l_is_mean_over_non_missing_pairs(self):
        spec = tasks.get_task("swedn")
        golds = ["en kort text", "vädret är bra", "sport och idrott"]
        preds = ["en text", None, "idrott och sport"]
        result = tasks.score_predictions(spec, golds, preds)
        expected = (agreement.rouge_l("en text", "en kort text")
                    + agreement.rouge_l("idrott och sport", "sport och idrott")) / 2
        assert result.metrics["rouge_l"] == pytest.approx(expected)
        assert 0.0 < expected < 1.0

    def test_results_csv_format(self):
        csv = tasks.results_csv([
            ("swedn", "E1", "rouge_l", 0.5, 0.0),
            ("swenli", "E3", "alpha_nominal", None, 12.345),
        ])
        lines = csv.strip().split("\n")
        assert lines[0] == "task,epoch,metric,value,N_missing%"
        assert lines[1] == "swedn,E1,rouge_l,0.500000,0.00"
        assert lines[2] == "swenli,E3,alpha_nominal,,12.35"
