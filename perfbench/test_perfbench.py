"""Self-test of the benchmark: every workload at reduced size, untraced and
traced.  Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "generate", "score")
SEED = 3

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

# The end-to-end metric of each verb, on the workload that runs it.
VERB_METRICS = {
    "train": ["train_tokenizer.merges_per_s", "index_build.ngrams_per_s",
              "train.tokens_per_s", "train.final_loss", "finetune.tokens_per_s"],
    "generate": ["generate.tokens_per_s", "grid.tokens_per_s"],
    "score": ["perplexity.tokens_per_s", "eval_task.greedy.datapoints_per_s",
              "eval_task.select.datapoints_per_s", "index_overlap.ngrams_per_s",
              "index_search.queries_per_s"],
}
COMMON = ["setup_s", "peak_rss_mb", "failed_share", "round_s"]

LINE = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)$")


def _run(work_dir, workload: str, trace: int):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--small",
           "--work-dir", str(work_dir)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        match = LINE.match(line)
        if match:
            name, value, unit, n = match.groups()
            printed[name] = (float(value), unit, int(n))
    return printed, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    work = tmp_path_factory.mktemp("perfbench")
    return {(w, t): _run(work, w, t) for w in WORKLOADS for t in (0, 1)}, work


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_unit_and_count(runs, workload):
    printed, last = runs[0][workload, 0]
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0
        _, unit, n = printed[m["name"]]
        assert unit == m["unit"] and n >= 1
    for name in VERB_METRICS[workload] + COMMON:
        assert printed[name][2] >= 1, name
    assert printed["failed_share"][0] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_per_layer_metrics(runs, workload):
    printed, last = runs[0][workload, 1]
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["per_layer"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        _, unit, n = printed[m["name"]]
        assert unit == m["unit"] and n >= 1
    # Tracing never shares a run with the end-to-end measurements.
    assert not set(VERB_METRICS[workload]) & set(printed)


def test_every_wrapped_function_emits_a_span(runs):
    from_run, work = runs
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from spans import SPAN_NAMES

    seen = set()
    for workload in WORKLOADS:
        with open(os.path.join(work, "results", f"{workload}-seed{SEED}-trace1.spans.json"),
                  encoding="utf-8") as fh:
            dump = json.load(fh)
        assert dump["not_wrapped"] == []
        spans = dump["spans"]
        seen.update(s[0] for s in spans)
        # Self times of a call's spans add up to the call's wall time, less
        # the few microseconds of opening and closing the root span.
        own = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
                assert spans[s[3]][1] <= s[1] <= s[2] <= spans[s[3]][2]
        for i, call in enumerate(dump["calls"]):
            total = sum(t for s, t in zip(spans, own) if s[4] == i)
            assert 0 <= call["wall_ns"] - total < 1_000_000
    assert set(SPAN_NAMES) <= seen
    assert {"cli.train-tokenizer", "cli.generate", "cli.perplexity"} <= seen
