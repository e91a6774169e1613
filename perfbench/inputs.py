"""Seeded synthetic inputs for the ctrlkit benchmark.

Every function here is a pure function of the numpy ``Generator`` it is
given, so one workload seed always yields byte-identical input files.  The
module imports nothing from ``ctrlkit`` or from the repository's tests: a
refactor of either cannot change what the benchmark feeds the program.

Text comes from a Zipf lexicon of multi-character words.  A Zipf lexicon
keeps BPE supplied with frequent pairs long after the alphabet is merged,
so ``train-tokenizer`` reaches its vocabulary target instead of running out
of pairs.  Each category ranks the lexicon in its own order, which makes
the categories distinguishable the way the control codes assume.
"""

from __future__ import annotations

import json

import numpy as np

LETTERS = "abdefghijklmnoprstuvyåäö"
CATEGORIES = ("news", "news/sport", "wiki", "forum", "blogs")
# Words of the two task templates, mixed into every corpus so that BPE
# learns them and task prompts tokenize the way real prompts would.
TEMPLATE_WORDS = ("Fråga:", "Svar:", "Syftar", "till", "Ja", "Nej", "Passar?")
ZIPF_EXPONENT = 1.1
K = 13  # k of the provenance index, as passed to index-build


class Lexicon:
    """A fixed word list with one Zipf ranking per category."""

    def __init__(self, rng: np.random.Generator, size: int):
        words: set[str] = set()
        while len(words) < size:
            n = int(rng.integers(2, 10))
            words.add("".join(rng.choice(list(LETTERS), size=n)))
        self.words = sorted(words) + list(TEMPLATE_WORDS)
        weights = np.arange(1, len(self.words) + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        weights /= weights.sum()
        self._p = {
            cat: weights[np.argsort(rng.permutation(len(self.words)))]
            for cat in CATEGORIES
        }

    def sample(self, rng: np.random.Generator, category: str, n: int) -> list[str]:
        idx = rng.choice(len(self.words), size=n, p=self._p[category])
        return [self.words[i] for i in idx]


def boilerplate(rng: np.random.Generator, lex: Lexicon, count: int) -> list[str]:
    """Fixed phrases longer than k words, repeated across documents so the
    index holds k-grams with term frequency above 1."""
    return [
        " ".join(lex.sample(rng, CATEGORIES[i % len(CATEGORIES)], K + 3))
        for i in range(count)
    ]


def documents(
    rng: np.random.Generator,
    lex: Lexicon,
    n_docs: int,
    short_words: tuple[int, int],
    long_words: tuple[int, int],
    long_share: float,
    phrases: list[str],
    categories: tuple[str, ...] = CATEGORIES,
) -> list[tuple[str, str]]:
    """(category, text) pairs; a ``long_share`` of them is long and carries
    a boilerplate phrase, the rest are short."""
    docs = []
    for i in range(n_docs):
        cat = categories[int(rng.integers(len(categories)))]
        if rng.random() < long_share:
            n = int(rng.integers(*long_words))
            words = lex.sample(rng, cat, n)
            at = int(rng.integers(0, n))
            words[at:at] = phrases[int(rng.integers(len(phrases)))].split()
        else:
            words = lex.sample(rng, cat, int(rng.integers(*short_words)))
        docs.append((cat, " ".join(words)))
    return docs


def write_corpus(path, docs: list[tuple[str, str]]) -> None:
    """Corpus TSV: category, provenance, url-or-dash, text."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (cat, text) in enumerate(docs):
            prov = "m" if i % 3 else "a"
            url = f"https://example.org/{i}" if i % 5 == 0 else "-"
            fh.write(f"{cat}\t{prov}\t{url}\t{text}\n")


def write_lines(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_jsonl(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


def winograd(
    rng: np.random.Generator, lex: Lexicon, n: int, text_words: tuple[int, int]
) -> list[dict]:
    """swewinograd datapoints: a text, two of its words, a Ja/Nej label."""
    out = []
    for i in range(n):
        cat = CATEGORIES[i % len(CATEGORIES)]
        words = lex.sample(rng, cat, int(rng.integers(*text_words)))
        w1, w2 = (words[int(j)] for j in rng.integers(0, len(words), size=2))
        out.append({"text": " ".join(words), "word1": w1, "word2": w2,
                    "label": "Ja" if rng.random() < 0.5 else "Nej"})
    return out


def fitted(words: list[str], count, budget: int) -> str:
    """The longest prefix of ``words``, joined by spaces, that ``count``
    measures at no more than ``budget``.  Sizing texts in tokens rather than
    words keeps the work of a verb call the same for every seed."""
    text = ""
    for i in range(1, len(words) + 1):
        longer = " ".join(words[:i])
        if count(longer) > budget:
            break
        text = longer
    return text


def fitted_texts(
    rng: np.random.Generator, lex: Lexicon, n: int, budget: int, count
) -> list[str]:
    """Texts of at most ``budget`` tokens each, as ``count`` measures them;
    no word is shorter than a token, so ``budget`` words always suffice."""
    return [
        fitted(lex.sample(rng, CATEGORIES[i % len(CATEGORIES)], budget), count, budget)
        for i in range(n)
    ]


def faq(
    rng: np.random.Generator,
    lex: Lexicon,
    groups: int,
    candidates: int,
    question_tokens: int,
    answer_tokens: int,
    count,
) -> list[dict]:
    """swefaq answer-selection groups: one question, several candidate
    answers, exactly one labelled Ja.  Candidates of a group share the
    question as a prompt prefix."""
    out = []
    for g in range(groups):
        cat = CATEGORIES[g % len(CATEGORIES)]
        question = fitted(lex.sample(rng, cat, question_tokens), count, question_tokens)
        gold = int(rng.integers(candidates))
        for c in range(candidates):
            answer = fitted(lex.sample(rng, cat, answer_tokens), count, answer_tokens)
            out.append({"group": g, "question": question, "answer": answer,
                        "label": "Ja" if c == gold else "Nej"})
    return out


def fresh_texts(
    rng: np.random.Generator, lex: Lexicon, n: int, words: int
) -> list[str]:
    return [
        " ".join(lex.sample(rng, CATEGORIES[i % len(CATEGORIES)], words))
        for i in range(n)
    ]


def copied_spans(
    rng: np.random.Generator, docs: list[tuple[str, str]], n: int, words: int
) -> list[str]:
    """Spans of ``words`` words copied out of documents at least that long,
    so the overlap statistics have hits as well as misses."""
    pool = [text.split() for _, text in docs if len(text.split()) >= words]
    out = []
    for _ in range(n):
        doc = pool[int(rng.integers(len(pool)))]
        at = int(rng.integers(0, len(doc) - words + 1))
        out.append(" ".join(doc[at:at + words]))
    return out


def kgram_count(texts: list[str], k: int = K) -> int:
    """Word k-gram occurrences, counted the way the index counts them."""
    return sum(max(0, len(t.split()) - k + 1) for t in texts)


def shared_prefix(groups: list[list[list[int]]]) -> tuple[int, int]:
    """(tokens in the prefix all prompts of a group share, tokens in all
    prompts), summed over groups of tokenized candidate prompts."""
    shared = total = 0
    for prompts in groups:
        lcp = 0
        while all(len(p) > lcp for p in prompts) and len({p[lcp] for p in prompts}) == 1:
            lcp += 1
        shared += lcp * len(prompts)
        total += sum(map(len, prompts))
    return shared, total
