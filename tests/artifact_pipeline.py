"""Run every ctrlkit CLI verb on seeded inputs and fingerprint what it writes.

    PYTHONPATH=src python tests/artifact_pipeline.py OUT [--small]
    python tests/artifact_pipeline.py --compare A B

A run writes its inputs, every verb's outputs and one log per verb call
(exit code, standard output, standard error) under the new directory OUT,
then ``OUT/MANIFEST.sha256``: one ``<sha256>  <path>`` line per file, in
path order.  The verbs run in process through ``ctrlkit.cli.main`` with OUT
as the working directory, so no artifact holds an absolute path.
``ctrlkit`` is imported from ``PYTHONPATH``, which picks the checkout under
test; the inputs are written by this script, not by ``ctrlkit``.  The run
fails unless every verb of ``cli.build_parser()`` ran and exited 0.

The cases: ``index-build`` at k 1, 3 and 13 over a corpus with a non-ASCII
document and one shorter than k, and over an empty corpus; ``index-search``
with missing words; ``index-overlap`` with and without ``--unique``;
greedy, sampled and preset ``generate`` past the context window; ``grid
--idx`` at 2 texts per cell over the default grid, at 10 texts per cell
with windows that slide, rows stopping at different steps, and at 4 (3 with
``--small``) texts per cell over a grid that mixes greedy (T 0) cells with
sampled ones in one batch; ``perplexity``;
``finetune`` + ``eval-task`` for a generation task (swewinograd) and an
answer-selection task (swefaq).  ``--small`` shrinks the corpus, the model
and the grids, for the test suite.

``--compare A B`` reads both manifests and names every artifact that
differs or exists on one side only.  For a float-only artifact
(``FLOAT_ONLY``) it adds the largest relative difference of its numbers.
It exits 0 when the manifests are equal, else 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

MANIFEST = "MANIFEST.sha256"
FLOAT_ONLY = ("ppl.csv", "ppl-window8.csv")  # perplexities may move by float reassociation

# Per scale: documents per category, model flags, generate's budget, and per
# grid its texts per cell, grid flags (none: the default grid) and budget.
SCALES = {
    "full": dict(docs=120, epochs=4, new_tokens=60,
                 model=["--layers", "2", "--dim", "32", "--inner", "64", "--context", "48"],
                 grids=[(2, [], 24),
                        (10, ["--p-grid", "0.9,1.0", "--t-grid", "0.5", "--r-grid", "1.0,1.6"],
                         50),
                        (4, ["--p-grid", "0.8", "--t-grid", "0.0,0.7", "--r-grid", "1.0,1.4"],
                         40)]),
    "small": dict(docs=30, epochs=1, new_tokens=30,
                  model=["--layers", "1", "--dim", "16", "--inner", "32", "--context", "24"],
                  grids=[(2, ["--p-grid", "1.0", "--t-grid", "0.5", "--r-grid", "1.0,1.6"], 12),
                         (10, ["--p-grid", "0.9", "--t-grid", "", "--r-grid", "1.3"], 26),
                         (3, ["--p-grid", "0.8", "--t-grid", "0.0", "--r-grid", "1.0,1.4"], 16)]),
}

WORDS = {"alpha": [f"a{i}" for i in range(12)], "beta": [f"b{i}" for i in range(12)]}


def write_inputs(docs: int) -> None:
    """The corpus, the evaluation texts and the task data, from seed 0."""
    rng = np.random.default_rng(0)
    lines = []
    for i in range(2 * docs):
        cat = "alpha" if i % 2 == 0 else "beta"
        url = f"https://example.org/{cat}/{i}" if i % 3 == 0 else "-"
        text = " ".join(rng.choice(WORDS[cat], size=int(rng.integers(6, 11))))
        provenance = "a" if i % 5 == 0 else "m"
        lines.append(f"{cat}\t{provenance}\t{url}\t{text}")
    lines.append("alpha\tm\t-\ta1 smörgås räksmörgås naïve – a2 a3")
    lines.append("beta\ta\t-\tb4 b5")  # shorter than k 3 and 13
    Path("corpus.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    Path("empty.tsv").write_text("", encoding="utf-8")
    evals = [lines[0].split("\t")[3], lines[3].split("\t")[3] + " a1 b1",
             "a1 smörgås räksmörgås naïve", "b7", "zz yy a3 a4 a5"]
    Path("eval.txt").write_text("\n".join(evals) + "\n", encoding="utf-8")
    winograd = [{"text": " ".join(rng.choice(["a1", "a2", "b1", "b2"], size=3)),
                 "word1": "a1", "word2": "b1", "label": "Ja" if i % 2 else "Nej"}
                for i in range(8)]
    faq = [{"question": " ".join(rng.choice(WORDS["alpha"], size=3)),
            "answer": " ".join(rng.choice(WORDS["beta"], size=2)),
            "group": g, "label": "Ja" if c == g % 3 else "Nej"}
           for g in range(4) for c in range(3)]
    for name, rows in (("winograd.jsonl", winograd), ("swefaq.jsonl", faq)):
        Path(name).write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
                              encoding="utf-8")


def calls(scale: dict) -> list[list[str]]:
    """Every verb call of a run, in order."""
    model = ["--ckpt", f"run/ckpt-epoch{scale['epochs']:02d}/model.ckpt", "--vocab", "vocab.txt"]
    out = [
        ["train-tokenizer", "--corpus", "corpus.tsv", "--vocab-size", "90",
         "--fraction", "1.0", "--out", "vocab.txt"],
        ["train", "--corpus", "corpus.tsv", "--vocab", "vocab.txt", *scale["model"],
         "--epochs", str(scale["epochs"]), "--batch-size", "8", "--lr", "0.003",
         "--seed", "11", "--out", "run"],
    ]
    for k in ("1", "3", "13"):
        out.append(["index-build", "--corpus", "corpus.tsv", "--k", k,
                    "--out", f"idx-k{k}.jsonl"])
    out.append(["index-build", "--corpus", "empty.tsv", "--k", "3", "--out", "idx-empty.jsonl"])
    for i, (idx, query) in enumerate([("k3", "a1 a2"), ("k3", "zz a1 qq"), ("k1", "smörgås"),
                                      ("k13", "a1"), ("empty", "a1 a2 a3")]):
        out.append(["index-search", "--idx", f"idx-{idx}.jsonl", "--query", query,
                    "--out", f"search-{i}.tsv"])
    for idx, extra in [("k3", []), ("k3", ["--unique"]), ("k13", ["--threshold", "1,2"]),
                       ("k1", ["--threshold", "3"]), ("empty", [])]:
        name = f"overlap-{idx}{'-unique' if extra == ['--unique'] else ''}.csv"
        out.append(["index-overlap", "--idx", f"idx-{idx}.jsonl", "--eval", "eval.txt",
                    *extra, "--out", name])
    # The first epoch's model seldom ends a text, so its samples slide.
    early = ["--ckpt", "run/ckpt-epoch01/model.ckpt", "--vocab", "vocab.txt"]
    n = str(scale["new_tokens"])
    for name, ckpt, extra in [
            ("sampled", model, ["--top-p", "0.9", "--rep-penalty", "1.2", "--num", "3"]),
            ("greedy", model, ["--temperature", "0", "--rep-penalty", "1.3"]),
            ("preset", model, ["--preset", "M1", "--num", "2", "--seed", "7"]),
            ("sampled-early", early, ["--temperature", "0.3", "--num", "2"]),
            ("greedy-early", early, ["--temperature", "0", "--rep-penalty", "1.3"])]:
        out.append(["generate", *ckpt, "--occ", "alpha", "--prompt", "a1 a2",
                    "--max-new-tokens", n, *extra, "--out", f"gen-{name}.jsonl"])
    out.append(["generate", *model, "--occ", "beta", "--max-new-tokens", n, "--seed", "3",
                "--out", "gen-beta.jsonl"])
    for texts, grid, tokens in scale["grids"]:
        out.append(["grid", *model, "--categories", "beta,alpha", "--idx", "idx-k13.jsonl",
                    "--texts-per-cell", str(texts), "--max-new-tokens", str(tokens), *grid,
                    "--seed", "5", "--out", f"grid-{texts}"])
    out.append(["perplexity", *model, "--text-file", "eval.txt", "--out", "ppl.csv"])
    out.append(["perplexity", *model, "--text-file", "eval.txt", "--window", "8",
                "--out", "ppl-window8.csv"])
    for task, data in (("swewinograd", "winograd.jsonl"), ("swefaq", "swefaq.jsonl")):
        out.append(["finetune", *model, "--task", task, "--data", data, "--epochs", "1",
                    "--batch-size", "4", "--lr", "0.001", "--seed", "2", "--out", f"ft-{task}"])
        out.append(["eval-task", "--ckpt", f"ft-{task}/ckpt-epoch01/model.ckpt",
                    "--vocab", f"ft-{task}/vocab.txt", "--task", task, "--data", data,
                    "--max-new-tokens", "4", "--epoch", "E1", "--out", f"eval-{task}.csv"])
    return out


def run(out, small: bool = False) -> list[list[str]]:
    """Run every call into the new directory ``out`` and write its manifest;
    returns the calls made."""
    from ctrlkit import cli

    scale = SCALES["small" if small else "full"]
    out = Path(out)
    out.mkdir(parents=True)
    made = calls(scale)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        write_inputs(scale["docs"])
        Path("logs").mkdir()
        for i, argv in enumerate(made):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
            Path(f"logs/{i:02d}-{argv[0]}.txt").write_text(
                f"{' '.join(argv)}\nexit {rc}\n--- stdout\n{stdout.getvalue()}"
                f"--- stderr\n{stderr.getvalue()}", encoding="utf-8")
            if rc != 0:
                raise SystemExit(f"{argv[0]} exited {rc}: {stderr.getvalue().strip()}")
    finally:
        os.chdir(cwd)
    missing = set(cli_verbs(cli)) - {argv[0] for argv in made}
    if missing:
        raise SystemExit(f"verbs never run: {', '.join(sorted(missing))}")
    write_manifest(out)
    return made


def write_manifest(root: Path) -> None:
    """``MANIFEST.sha256`` of every file under ``root``, in path order."""
    files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    (root / MANIFEST).write_text("".join(
        f"{hashlib.sha256((root / f).read_bytes()).hexdigest()}  {f}\n"
        for f in files if f != MANIFEST))


def cli_verbs(cli) -> list[str]:
    """The subcommands of ``cli.build_parser()``."""
    return [verb for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction) for verb in action.choices]


def read_manifest(root: Path) -> dict[str, str]:
    """Path -> sha256 of one run's manifest."""
    lines = (root / MANIFEST).read_text().splitlines()
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def largest_relative_difference(a: Path, b: Path) -> float | None:
    """The largest |x - y| / max(|x|, |y|) over the numbers of two files
    that differ only in their numbers, else None."""
    split = re.compile(r"([,\s])")
    fa, fb = split.split(a.read_text()), split.split(b.read_text())
    if len(fa) != len(fb):
        return None
    worst = 0.0
    for x, y in zip(fa, fb):
        if x == y:
            continue
        try:
            x, y = float(x), float(y)
        except ValueError:
            return None
        if x != y:  # not "0" against "0.0"
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def compare(a, b) -> list[str]:
    """One line per artifact that differs between runs ``a`` and ``b``."""
    a, b = Path(a), Path(b)
    ma, mb = read_manifest(a), read_manifest(b)
    lines = []
    for path in sorted(ma.keys() | mb.keys()):
        if path not in mb or path not in ma:
            lines.append(f"only in {a if path in ma else b}: {path}")
        elif ma[path] != mb[path]:
            note = ""
            if path in FLOAT_ONLY:
                rel = largest_relative_difference(a / path, b / path)
                note = (" (not only in its numbers)" if rel is None
                        else f" (largest relative difference {rel:.3g})")
            lines.append(f"differs: {path}{note}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="directory to create for a run")
    parser.add_argument("--small", action="store_true", help="the test suite's configuration")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare the manifests of two runs")
    args = parser.parse_args(argv)
    if args.compare:
        diffs = compare(*args.compare)
        print("\n".join(diffs) if diffs else
              f"{len(read_manifest(Path(args.compare[0])))} artifacts, all equal")
        return 1 if diffs else 0
    if not args.out:
        parser.error("give a directory for the run, or --compare A B")
    import ctrlkit

    print(f"ctrlkit from {os.path.dirname(ctrlkit.__file__)}")
    made = run(args.out, args.small)
    print(f"{len(made)} calls; {len(read_manifest(Path(args.out)))} artifacts in "
          f"{Path(args.out) / MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
