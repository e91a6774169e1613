import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctrlkit import corpus, ngram


def docs_from_texts(texts, category="alpha"):
    table = corpus.table_from_names(["alpha", "beta"])
    return [
        corpus.Document(i, t, table[category], "manual", f"http://x/{i}")
        for i, t in enumerate(texts)
    ]


def brute_force_counts(texts, k):
    counts, postings = {}, {}
    for doc_id, text in enumerate(texts):
        words = text.split()
        for i in range(len(words) - k + 1):
            ng = tuple(words[i:i + k])
            counts[ng] = counts.get(ng, 0) + 1
            postings.setdefault(ng, set()).add(doc_id)
    return counts, postings


def brute_force_overlap(eval_texts, train_texts, k, threshold):
    counts, _ = brute_force_counts(train_texts, k)
    total, hits, short = 0, 0, 0
    for text in eval_texts:
        words = text.split()
        if len(words) < k:
            short += 1
            continue
        for i in range(len(words) - k + 1):
            total += 1
            if counts.get(tuple(words[i:i + k]), 0) >= threshold:
                hits += 1
    pct = 100.0 * hits / total if total else 0.0
    short_pct = 100.0 * short / len(eval_texts) if eval_texts else 0.0
    return pct, short_pct


def scan_search(texts, k, query):
    """Reference search over the raw texts: every k-gram holding the query
    words as a run, with its tf and the url of its lowest-id document, as
    ``docs_from_texts`` sets them."""
    counts, postings = brute_force_counts(texts, k)
    words = tuple(query.split())
    m = len(words)
    hits = [
        ngram.SearchHit(ng, tf, "alpha", "manual", f"http://x/{min(postings[ng])}")
        for ng, tf in counts.items()
        if any(ng[i:i + m] == words for i in range(k - m + 1))
    ]
    return sorted(hits, key=lambda h: h.ngram)


def random_texts(rng, n, vocab=20, max_len=25):
    words = [f"w{i}" for i in range(vocab)]
    return [
        " ".join(rng.choice(words, size=rng.integers(1, max_len)))
        for _ in range(n)
    ]


class TestKgrams:
    def test_contiguous_runs_in_order(self):
        assert ngram.kgrams(["a", "b", "c"], 2) == [("a", "b"), ("b", "c")]

    def test_empty_when_k_exceeds_word_count(self):
        assert ngram.kgrams(["a", "b", "c"], 4) == []
        assert ngram.kgrams([], 1) == []


class TestBuildIndex:
    def test_thirteen_word_doc_single_entry(self):
        text = " ".join(f"w{i}" for i in range(13))
        idx = ngram.build_index(docs_from_texts([text]), k=13)
        assert len(idx) == 1
        assert idx.tf(tuple(text.split())) == 1

    def test_duplicate_document_doubles_tf(self):
        text = "x y z x y"
        idx = ngram.build_index(docs_from_texts([text, text]), k=3)
        ng = ("x", "y", "z")
        tf, postings = idx.entries[ng]
        assert tf == 2
        assert postings == (0, 1)

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(0)
        texts = random_texts(rng, 200)
        for k in (2, 5):
            idx = ngram.build_index(docs_from_texts(texts), k=k)
            counts, postings = brute_force_counts(texts, k)
            assert set(idx.entries) == set(counts)
            for ng, (tf, post) in idx.entries.items():
                assert tf == counts[ng]
                assert post == tuple(sorted(postings[ng]))

    def test_k_below_one_rejected(self):
        with pytest.raises(ngram.NGramIndexError):
            ngram.build_index([], k=0)

    def test_duplicate_document_id_rejected(self):
        docs = docs_from_texts(["a b c", "d e f"])
        docs[1] = corpus.Document(0, "d e f", docs[1].category, "manual")
        with pytest.raises(ngram.NGramIndexError, match="id 0 is listed twice"):
            ngram.build_index(docs, k=2)

    def test_postings_sorted_whatever_the_document_order(self):
        docs = docs_from_texts(["a b", "a b", "a b c"])
        idx = ngram.build_index(docs[::-1], k=2)
        assert idx.entries[("a", "b")] == (3, (0, 1, 2))
        assert idx.entries[("b", "c")] == (1, (2,))


class TestOverlap:
    def test_indexed_text_full_overlap(self):
        text = "a b c d e f g h i j"
        idx = ngram.build_index(docs_from_texts([text]), k=7)
        res = ngram.overlap([text], idx, threshold=1)
        assert res.overlap_pct == 100.0

    def test_hand_enumeration_half(self):
        # Eval text has two 7-grams; the index holds only the first.
        idx = ngram.build_index(docs_from_texts(["a b c d e f g"]), k=7)
        res = ngram.overlap(["a b c d e f g h"], idx, threshold=1)
        assert res.overlap_pct == 50.0

    def test_short_texts_reported_separately(self):
        idx = ngram.build_index(docs_from_texts(["a b c d e f g"]), k=7)
        res = ngram.overlap(["a b", "a b c d e f g"], idx, threshold=1)
        assert res.short_text_pct == 50.0
        assert res.overlap_pct == 100.0  # only the long text counts

    def test_zero_threshold_rejected(self):
        idx = ngram.build_index(docs_from_texts(["a b c"]), k=2)
        with pytest.raises(ngram.NGramIndexError, match="threshold must be >= 1, got 0"):
            ngram.overlap(["a b c"], idx, threshold=0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        train = random_texts(rng, 100, vocab=8)
        eval_texts = random_texts(rng, 30, vocab=8)
        idx = ngram.build_index(docs_from_texts(train), k=2)
        values = [ngram.overlap(eval_texts, idx, threshold=f).overlap_pct
                  for f in (1, 10, 100)]
        assert values[0] >= values[1] >= values[2]

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            train = random_texts(rng, 40, vocab=10)
            eval_texts = random_texts(rng, 15, vocab=10)
            k = int(rng.choice([2, 7, 13]))
            f = int(rng.choice([1, 10, 100]))
            idx = ngram.build_index(docs_from_texts(train), k=k)
            res = ngram.overlap(eval_texts, idx, threshold=f)
            pct, short = brute_force_overlap(eval_texts, train, k, f)
            assert res.overlap_pct == pct
            assert res.short_text_pct == short

    def test_unique_type_variant(self):
        # "a b" occurs twice in the eval text but is one type.
        idx = ngram.build_index(docs_from_texts(["a b"]), k=2)
        eval_texts = ["a b a b c"]  # bigrams: ab, ba, ab, bc
        multiset = ngram.overlap(eval_texts, idx, threshold=1)
        unique = ngram.overlap(eval_texts, idx, threshold=1, unique=True)
        assert multiset.overlap_pct == 50.0
        assert unique.overlap_pct == pytest.approx(100.0 / 3)


class TestSearch:
    def test_exact_indexed_ngram(self):
        text = " ".join(f"w{i}" for i in range(13))
        idx = ngram.build_index(docs_from_texts([text]), k=13)
        hits = ngram.search(idx, text)
        assert len(hits) == 1
        assert hits[0].category == "alpha"
        assert hits[0].provenance == "manual"
        assert hits[0].url == "http://x/0"

    def test_substring_of_indexed_ngram(self):
        text = " ".join(f"w{i}" for i in range(13))
        idx = ngram.build_index(docs_from_texts([text]), k=13)
        hits = ngram.search(idx, "w3 w4 w5")
        assert len(hits) == 1
        assert hits[0].ngram == tuple(text.split())

    def test_absent_query_empty(self):
        idx = ngram.build_index(docs_from_texts(["a b c d"]), k=2)
        assert ngram.search(idx, "zz qq") == []

    def test_word_order_respected(self):
        idx = ngram.build_index(docs_from_texts(["a b c"]), k=3)
        assert ngram.search(idx, "b a") == []
        assert len(ngram.search(idx, "a b")) == 1

    def test_query_from_a_large_corpus_finds_its_document(self):
        rng = np.random.default_rng(3)
        texts = random_texts(rng, 150, vocab=30)
        idx = ngram.build_index(docs_from_texts(texts), k=3)
        assert len(idx) >= 64
        query = texts[0].split()[:2]
        hits = ngram.search(idx, " ".join(query))
        assert all(
            any(h.ngram[i:i + 2] == tuple(query) for i in range(len(h.ngram) - 1))
            for h in hits
        )
        assert hits  # the query came from an indexed document

    def test_query_longer_than_k_or_empty_rejected(self):
        # No k-gram can contain a longer query, so an empty result would
        # falsely say the phrase is not in the indexed documents.
        idx = ngram.build_index(docs_from_texts(["ett två tre fyra fem"]), k=3)
        assert len(ngram.search(idx, "två tre fyra")) == 1
        with pytest.raises(ngram.NGramIndexError, match="query has 4 words.* 1 to 3 words"):
            ngram.search(idx, "två tre fyra fem")
        with pytest.raises(ngram.NGramIndexError, match="query has 0 words"):
            ngram.search(idx, " ")

    @pytest.mark.parametrize("n_texts", [3, 150])
    def test_matches_scan_of_texts(self, n_texts):
        rng = np.random.default_rng(6)
        texts = random_texts(rng, n_texts, vocab=30)
        idx = ngram.build_index(docs_from_texts(texts), k=3)
        assert (len(idx) < 64) == (n_texts == 3)
        words = texts[0].split()
        queries = [
            words[0], words[-1], "w29",
            " ".join(words[:2]), " ".join(words[1:4]), " ".join(words[:3]),
            " ".join(reversed(words[:3])), "w0 w0 w0", "zz", "w1 zz",
        ]
        for query in queries:
            assert ngram.search(idx, query) == scan_search(texts, 3, query), query

    def test_stable_across_rebuilds(self):
        rng = np.random.default_rng(4)
        texts = random_texts(rng, 80, vocab=12)
        a = ngram.build_index(docs_from_texts(texts), k=2)
        b = ngram.build_index(docs_from_texts(texts), k=2)
        assert ngram.search(a, "w1 w2") == ngram.search(b, "w1 w2")


class TestPackedKeys:
    """The sorted-array index against brute force over the raw texts."""

    # Non-ASCII words, and words holding U+0085 or U+2028, which str.split()
    # splits at, on both sides of the comparison.
    ODD_WORDS = ["ö", "Åsa", "naïve", "x\x85y", " z", "ä "]

    @staticmethod
    def corpus(seed, k, vocab, n_docs, short):
        """Seeded texts with repeats; ``short`` keeps every text below k words.

        With 300 or more words, two extra texts end a k-gram in the words of
        id 0 and id 256 (ids are ranks in str order, and every lexicon word
        is indexed), whose packed keys end in NUL bytes."""
        rng = np.random.default_rng(seed)
        lexicon = [f"w{i:03d}" for i in range(vocab)] + TestPackedKeys.ODD_WORDS
        top = k - 1 if short else 2 * k + 3
        texts = [" ".join(" ".join(rng.choice(lexicon, size=top)).split()
                          [:rng.integers(0, top + 1)]) or " "
                 for _ in range(n_docs)]
        if vocab >= 300 and not short:
            ranked = sorted(set(" ".join(lexicon).split()))
            texts.append(" ".join(ranked))
            for last in (ranked[0], ranked[256]):
                texts.append(" ".join([*rng.choice(lexicon, size=k - 1), last]))
        return lexicon, texts

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 3, 13]),
           vocab=st.sampled_from([4, 30, 300]), n_docs=st.integers(0, 25),
           short=st.booleans())
    def test_matches_brute_force(self, seed, k, vocab, n_docs, short):
        lexicon, texts = self.corpus(seed, k, vocab, n_docs, short)
        idx = ngram.build_index(docs_from_texts(texts), k=k)
        counts, _ = brute_force_counts(texts, k)
        assert len(idx) == len(counts)
        if short:
            assert len(idx) == 0
        for ng, tf in counts.items():
            assert idx.tf(ng) == tf
        rng = np.random.default_rng(seed + 1)
        missing = ["zz", "ÿ", lexicon[0] + "!"]
        eval_texts = [" ".join(rng.choice(lexicon + missing, size=rng.integers(1, 2 * k + 4)))
                      for _ in range(6)] + texts[:3]
        for text in eval_texts:
            assert idx.tf(tuple(text.split()[:k])) == counts.get(tuple(text.split()[:k]), 0)
        grams = [tuple(w[i:i + k]) for w in (t.split() for t in eval_texts)
                 for i in range(len(w) - k + 1)]
        for unique in (False, True):
            counted = list(dict.fromkeys(grams)) if unique else grams
            for threshold in (1, 2, 5):
                res = ngram.overlap(eval_texts, idx, threshold=threshold, unique=unique)
                hits = sum(counts.get(g, 0) >= threshold for g in counted)
                assert res.n_grams == len(counted)
                assert res.overlap_pct == (100.0 * hits / len(counted) if counted else 0.0)
        queries = missing + [lexicon[0], f"{lexicon[0]} zz"]
        for text in texts[:4] + eval_texts[:2]:
            words = text.split()
            for m in range(1, min(k, len(words)) + 1):
                start = int(rng.integers(len(words) - m + 1))
                queries.append(" ".join(words[start:start + m]))
        for query in (q for q in queries if len(q.split()) <= k):
            assert ngram.search(idx, query) == scan_search(texts, k, query), query

    def test_keys_ending_in_nul_bytes(self):
        # w000 has id 0 and w256 id 256: their big-endian keys end in NULs.
        words = [f"w{i:03d}" for i in range(300)]
        idx = ngram.build_index(docs_from_texts([" ".join(words)]), k=1)
        assert (len(idx), idx.tf(("w000",)), idx.tf(("w256",))) == (300, 1, 1)
        assert [h.ngram for h in ngram.search(idx, "w000")] == [("w000",)]
        text = " ".join(words) + " w001 w000 w255 w256"
        idx = ngram.build_index(docs_from_texts([text]), k=2)
        assert len(idx) == 302
        assert (idx.tf(("w001", "w000")), idx.tf(("w255", "w256"))) == (1, 2)
        assert [h.ngram for h in ngram.search(idx, "w000")] == [
            ("w000", "w001"), ("w000", "w255"), ("w001", "w000")]
        res = ngram.overlap(["w001 w000 w001 w000", "w000 w000"], idx, threshold=1,
                            unique=True)
        assert (res.n_grams, res.overlap_pct) == (3, 100.0 * 2 / 3)

    def test_no_verb_builds_entries(self, tmp_path):
        texts = random_texts(np.random.default_rng(7), 20)
        path = tmp_path / "idx.jsonl"
        ngram.save_index(path, ngram.build_index(docs_from_texts(texts), k=2))
        idx = ngram.load_index(path)
        ngram.overlap(texts, idx, threshold=2, unique=True)
        ngram.search(idx, texts[0].split()[0])
        assert idx.tf(tuple(texts[0].split()[:2])) >= 1
        assert len(idx) > 0
        assert "entries" not in vars(idx)
        assert len(idx.entries) == len(idx)
        assert "entries" in vars(idx)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        texts = random_texts(rng, 30, vocab=10)
        idx = ngram.build_index(docs_from_texts(texts), k=3)
        path = tmp_path / "idx.jsonl"
        ngram.save_index(path, idx)
        loaded = ngram.load_index(path)
        assert loaded.k == idx.k
        assert loaded.entries == idx.entries
        assert loaded.doc_meta == idx.doc_meta

    def test_file_holds_the_documents(self, tmp_path):
        texts = ["ett två\ttre", 'fyra "fem" sex\\']
        idx = ngram.build_index(docs_from_texts(texts), k=2)
        path = tmp_path / "idx.jsonl"
        ngram.save_index(path, idx)
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert lines == [
            {"format": "ctrlkit-ngram-2", "k": 2, "documents": 2},
            [0, "alpha", "manual", "http://x/0", texts[0]],
            [1, "alpha", "manual", "http://x/1", texts[1]],
        ]
        assert ngram.load_index(path).texts == dict(enumerate(texts))

    def test_v1_file_rejected_with_rebuild_message(self, tmp_path):
        path = tmp_path / "idx.jsonl"
        path.write_text(V1_INDEX, encoding="utf-8")
        with pytest.raises(ngram.NGramIndexError, match="rebuild it .* index-build"):
            ngram.load_index(path)

    def test_failed_save_keeps_the_previous_file(self, tmp_path):
        docs = docs_from_texts(["a b c d", "b c d e"])
        path = tmp_path / "idx.jsonl"
        ngram.save_index(path, ngram.build_index(docs, k=2))
        before = path.read_bytes()
        # The last document's url cannot be serialized, after the header and
        # every other document went out.
        docs.append(corpus.Document(2, "c d e f", docs[0].category, "manual", object()))
        with pytest.raises(TypeError):
            ngram.save_index(path, ngram.build_index(docs, k=2))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["idx.jsonl"]

    def test_byte_identical_rewrite(self, tmp_path):
        texts = ["a b c d", "b c d e"]
        idx = ngram.build_index(docs_from_texts(texts), k=2)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ngram.save_index(p1, idx)
        ngram.save_index(p2, ngram.load_index(p1))
        assert p1.read_bytes() == p2.read_bytes()


V1_INDEX = ('{"docs": {"0": ["alpha", "manual", null]}, "format": "ctrlkit-ngram-1", "k": 2}\n'
            '[["a", "b"], 1, [0]]\n')
HEADER = '{"format": "ctrlkit-ngram-2", "k": 2, "documents": 1}'
DOC = '[0, "alpha", "manual", null, "a b c"]'


def _doc_line(*fields):
    return HEADER + "\n" + "[" + ", ".join(fields) + "]\n"


MALFORMED_INDEX = {
    "empty": "",
    "header_not_json": "not json\n",
    "header_not_object": "[1, 2]\n",
    "missing_k": '{"format": "ctrlkit-ngram-2", "documents": 1}\n' + DOC + "\n",
    "k_not_integer": HEADER.replace('"k": 2', '"k": "2"') + "\n" + DOC + "\n",
    "k_boolean": HEADER.replace('"k": 2', '"k": true') + "\n" + DOC + "\n",
    "k_zero": HEADER.replace('"k": 2', '"k": 0') + "\n" + DOC + "\n",
    "v1_header": V1_INDEX,
    "blank_entry_line": HEADER + "\n\n" + DOC + "\n",
    "bad_entry_json": HEADER + "\n" + '[0, "alpha",' + "\n",
    "document_not_list": HEADER + "\n" + '{"id": 0, "text": "a b c"}' + "\n",
    "short_entry": _doc_line("0", '"alpha"', '"manual"', '"a b c"'),
    "long_document_line": _doc_line("0", '"alpha"', '"manual"', "null", '"a b c"', "1"),
    "id_boolean": _doc_line("false", '"alpha"', '"manual"', "null", '"a b c"'),
    "id_string": _doc_line('"0"', '"alpha"', '"manual"', "null", '"a b c"'),
    "category_not_string": _doc_line("0", "null", '"manual"', "null", '"a b c"'),
    "provenance_not_string": _doc_line("0", '"alpha"', "1", "null", '"a b c"'),
    "url_number": _doc_line("0", '"alpha"', '"manual"', "7", '"a b c"'),
    "text_not_string": _doc_line("0", '"alpha"', '"manual"', "null", '["a", "b"]'),
    "repeated_id": HEADER.replace('"documents": 1', '"documents": 2') + "\n"
                   + DOC + "\n" + DOC + "\n",
    "count_missing": '{"format": "ctrlkit-ngram-2", "k": 2}\n' + DOC + "\n",
    "count_boolean": HEADER.replace('"documents": 1', '"documents": true') + "\n" + DOC + "\n",
    "cut_at_a_line_boundary": HEADER.replace('"documents": 1', '"documents": 2') + "\n"
                              + DOC + "\n",
    "more_documents_than_counted": HEADER + "\n" + DOC + "\n"
                                   + DOC.replace("[0,", "[1,") + "\n",
}


def test_invalid_utf8_in_index_file_reports_line(tmp_path):
    path = tmp_path / "idx.jsonl"
    doc = DOC.replace("a b c", "a \xe5 c").encode("latin-1")
    path.write_bytes((HEADER + "\n").encode() + doc)
    with pytest.raises(ngram.NGramIndexError,
                       match=f"^{path}:2: byte 0xe5 is not valid UTF-8$"):
        ngram.load_index(path)


@pytest.mark.parametrize("text", MALFORMED_INDEX.values(), ids=MALFORMED_INDEX.keys())
def test_malformed_index_file_raises_index_error(tmp_path, text):
    path = tmp_path / "idx.jsonl"
    path.write_text(HEADER + "\n" + DOC + "\n", encoding="utf-8")
    assert ngram.load_index(path).tf(("a", "b")) == 1
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ngram.NGramIndexError):
        ngram.load_index(path)
