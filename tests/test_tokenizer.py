from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ctrlkit import corpus, tokenizer as T


def make_docs(texts, category="alpha"):
    table = corpus.table_from_names(["alpha", "beta"])
    return [
        corpus.Document(i, t, table[category], "manual")
        for i, t in enumerate(texts)
    ], table


SWEDISH_SAMPLE = [
    "det här är en text om vädret i stockholm",
    "en annan text om sport och idrott",
    "vädret i göteborg är bättre än i stockholm",
    "sport är bra för hälsan säger experterna",
    "experterna är inte överens om vädret",
]


def full_recount_bpe(docs, fraction, vocab_size):
    """The reference trainer: recount every pair of every piece after each
    merge.  Returns the merge list and ``token_to_id``."""
    pieces: Counter = Counter()
    for doc in T.sample_fraction(docs, fraction):
        pieces.update(T._PIECE_RE.findall(doc.text))
    words = {tuple(piece): freq for piece, freq in pieces.items()}
    alphabet = sorted({ch for word in words for ch in word})
    token_to_id = {ch: i for i, ch in enumerate(alphabet)}
    merges = []
    while len(token_to_id) < vocab_size:
        counts: Counter = Counter()
        for word, freq in words.items():
            for pair in zip(word, word[1:]):
                counts[pair] += freq
        if not counts:
            break
        best_count = max(counts.values())
        pair = min(p for p, c in counts.items() if c == best_count)
        merges.append(pair)
        token_to_id[pair[0] + pair[1]] = len(token_to_id)
        words = {T._merge_word(w, pair): f for w, f in words.items()}
    return tuple(merges), token_to_id


@st.composite
def tie_heavy_corpora(draw):
    """Documents over 2-5 symbols, space and newline among the candidates,
    written as runs such as ``aaaa`` so that pairs overlap and tie."""
    symbols = draw(st.lists(st.sampled_from("ab \nä"), min_size=2, max_size=5, unique=True))
    runs = st.lists(st.tuples(st.sampled_from(symbols), st.integers(1, 6)),
                    min_size=1, max_size=8)
    texts = draw(st.lists(runs.map(lambda rs: "".join(ch * n for ch, n in rs)),
                          min_size=1, max_size=6))
    return texts, draw(st.sampled_from([1, 1 / 2, 1 / 3])), draw(st.integers(0, 40))


class TestTrainBpe:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=tie_heavy_corpora())
    @example(case=(["aaaa"], 1, 5))
    @example(case=(["ab ab ba", "\n\n \n"], 1 / 2, 40))
    def test_equals_full_recount_oracle(self, case):
        texts, fraction, extra = case
        docs, _ = make_docs(texts)
        vocab_size = len(set("".join(texts))) + extra
        v = T.train_bpe(docs, fraction, vocab_size)
        assert (v.merges, v.token_to_id) == full_recount_bpe(docs, fraction, vocab_size)

    def test_merge_that_lowers_a_neighbour_below_a_rival(self):
        # Before: (a,b) 5, (b,c) 4, (d,e) 3.  Merging (a,b) takes the two
        # (b,c) inside "abc", so (b,c) falls to 2 and (d,e) goes next; the
        # heap's entry for (b,c) at 4 is stale.  (ab,c) 2 then wins its tie
        # with (b,c) 2, and (b,c) still comes last.
        docs, _ = make_docs(["abc abc bc bc ab ab ab de de de"])
        v = T.train_bpe(docs, 1, vocab_size=100)
        assert v.merges == (("a", "b"), ("d", "e"), ("ab", "c"), ("b", "c"))
        assert (v.merges, v.token_to_id) == full_recount_bpe(docs, 1, 100)

    def test_hand_traced_merge_order(self):
        docs, _ = make_docs(["aaaa"])
        v = T.train_bpe(docs, 1, vocab_size=1 + 2)
        assert v.merges == (("a", "a"), ("aa", "aa"))
        assert v.base_size == 3

    def test_fraction_one_is_identity(self):
        docs, _ = make_docs(["hello world hello world"])
        v_full = T.train_bpe(docs, 1, vocab_size=20)
        v_again = T.train_bpe(docs, 1.0, vocab_size=20)
        assert v_full.merges == v_again.merges
        assert v_full.token_to_id == v_again.token_to_id

    def test_fraction_strides_documents(self):
        docs, _ = make_docs(["aa bb", "cc dd", "ee ff", "gg hh", "ii jj", "kk ll"])
        sampled = T.sample_fraction(docs, 1 / 3)
        assert [d.id for d in sampled] == [0, 3]

    def test_merges_exhaust_below_vocab_size(self):
        docs, _ = make_docs(["ab"])
        v = T.train_bpe(docs, 1, vocab_size=100)
        assert v.base_size == 3  # a, b, ab: nothing left to merge

    def test_vocab_size_below_alphabet_rejected(self):
        docs, _ = make_docs(["abcdef"])
        with pytest.raises(T.TokenizerError):
            T.train_bpe(docs, 1, vocab_size=3)

    def test_no_documents_rejected(self):
        with pytest.raises(T.TokenizerError, match="empty document list"):
            T.train_bpe([], 1, vocab_size=10)

    def test_empty_sampled_text_rejected(self):
        # Document rejects empty text; train_bpe reads only each doc's text.
        with pytest.raises(T.TokenizerError, match="sampled text is empty"):
            T.train_bpe([SimpleNamespace(text="")], 1, vocab_size=10)

    def test_deterministic_retraining_byte_identical(self, tmp_path):
        docs, table = make_docs(SWEDISH_SAMPLE)
        paths = []
        for run in range(2):
            v = T.train_bpe(docs, 1 / 2, vocab_size=60)
            v = T.add_control_codes(v, table)
            path = tmp_path / f"v{run}.txt"
            T.save_vocab(path, v)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_monotone_coverage(self):
        # More merges never lengthen the encoding of a fixed text.
        docs, _ = make_docs(SWEDISH_SAMPLE)
        text = SWEDISH_SAMPLE[0]
        sizes = [30, 40, 50, 60, 80]
        lengths = []
        for size in sizes:
            v = T.train_bpe(docs, 1, vocab_size=size)
            lengths.append(len(T.encode(v, text)))
        assert lengths == sorted(lengths, reverse=True)


class TestEncodeDecode:
    def test_unseen_symbol_without_unk_rejected(self):
        docs, _ = make_docs(["ab"])
        v = T.train_bpe(docs, 1, vocab_size=5)
        with pytest.raises(T.TokenizerError, match="symbol 'z' not in vocabulary and no unk"):
            T.encode(v, "az")

    def test_empty_text(self):
        docs, _ = make_docs(["ab"])
        v = T.train_bpe(docs, 1, vocab_size=5)
        assert T.encode(v, "") == []
        assert T.decode(v, []) == ""

    def test_trained_text_has_no_unk(self):
        docs, table = make_docs(SWEDISH_SAMPLE)
        v = T.add_control_codes(T.train_bpe(docs, 1, vocab_size=60), table)
        for text in SWEDISH_SAMPLE:
            assert v.unk_id not in T.encode(v, text)

    def test_unseen_symbol_maps_to_unk(self):
        docs, table = make_docs(["abc"])
        v = T.add_control_codes(T.train_bpe(docs, 1, vocab_size=6), table)
        ids = T.encode(v, "abz")
        assert v.unk_id in ids

    def test_round_trip_on_corpus_sample(self):
        docs, table = make_docs(SWEDISH_SAMPLE)
        v = T.add_control_codes(T.train_bpe(docs, 1, vocab_size=70), table)
        rng = np.random.default_rng(11)
        words = " ".join(SWEDISH_SAMPLE).split()
        for _ in range(200):
            n = rng.integers(1, 12)
            text = " ".join(rng.choice(words, size=n))
            assert T.decode(v, T.encode(v, text)) == text

    def test_round_trip_preserves_whitespace_runs(self):
        docs, _ = make_docs(["a  b\tc\nd   e"])
        v = T.train_bpe(docs, 1, vocab_size=12)
        text = "a \t b\n  c"
        assert T.decode(v, T.encode(v, text)) == text

    def test_ids_round_trip_for_canonical_encodings(self):
        # encode(decode(ids)) == ids whenever ids came from encode itself.
        docs, _ = make_docs(SWEDISH_SAMPLE)
        v = T.train_bpe(docs, 1, vocab_size=70)
        rng = np.random.default_rng(5)
        words = " ".join(SWEDISH_SAMPLE).split()
        for _ in range(100):
            text = " ".join(rng.choice(words, size=rng.integers(1, 10)))
            ids = T.encode(v, text)
            assert T.encode(v, T.decode(v, ids)) == ids

    def test_decode_rejects_out_of_range(self):
        docs, _ = make_docs(["ab"])
        v = T.train_bpe(docs, 1, vocab_size=5)
        with pytest.raises(T.TokenizerError):
            T.decode(v, [999])


class TestControlCodes:
    def test_appended_on_top(self):
        docs, _ = make_docs(SWEDISH_SAMPLE)
        table = corpus.default_category_table()
        base = T.train_bpe(docs, 1, vocab_size=60)
        v = T.add_control_codes(base, table)
        assert len(v) == len(base) + 2 * 37 + 2
        first_control = min(occ for occ, _ in v.control_ids.values())
        assert first_control == len(base)
        # base ids unchanged
        for token, idx in base.token_to_id.items():
            assert v.token_to_id[token] == idx

    def test_decode_of_control_ids(self):
        docs, table = make_docs(["x"])
        v = T.add_control_codes(T.train_bpe(docs, 1, vocab_size=2), table)
        assert T.decode(v, [v.occ_id("alpha")]) == ":alpha:"
        assert T.decode(v, [v.ecc_id("alpha")]) == ":alpha:$"

    def test_collision_rejected(self):
        docs, table = make_docs([":alpha: text mentioning a control code"])
        base = T.train_bpe(docs, 1, vocab_size=200)
        if ":alpha:" not in base.token_to_id:
            pytest.skip("merge budget did not reproduce the surface")
        with pytest.raises(T.TokenizerError, match="collides"):
            T.add_control_codes(base, table)

    def test_special_token_collision_rejected(self):
        docs, table = make_docs(["x"])
        base = T.train_bpe(docs, 1, vocab_size=2)
        base = replace(base, token_to_id={**base.token_to_id, T.PAD_TOKEN: len(base)})
        with pytest.raises(T.TokenizerError, match="special token '<pad>' collides"):
            T.add_control_codes(base, table)

    def test_ecc_ids_and_category_lookup(self):
        docs, table = make_docs(["x"])
        v = T.add_control_codes(T.train_bpe(docs, 1, vocab_size=2), table)
        assert v.ecc_id("beta") in v.ecc_ids
        assert v.category_of_ecc_id(v.ecc_id("beta")) == "beta"
        with pytest.raises(T.TokenizerError, match="is not an ECC id"):
            v.category_of_ecc_id(v.occ_id("beta"))


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        docs, table = make_docs(SWEDISH_SAMPLE)
        v = T.add_control_codes(T.train_bpe(docs, 1 / 3, vocab_size=50), table)
        path = tmp_path / "vocab.txt"
        T.save_vocab(path, v)
        v2 = T.load_vocab(path)
        assert v2.token_to_id == v.token_to_id
        assert v2.merges == v.merges
        assert (v2.pad_id, v2.unk_id) == (v.pad_id, v.unk_id)
        assert v2.control_ids == v.control_ids
        text = SWEDISH_SAMPLE[2]
        assert T.encode(v2, text) == T.encode(v, text)

    def test_equal_after_encoding(self, tmp_path):
        docs, table = make_docs(SWEDISH_SAMPLE)
        path = tmp_path / "vocab.txt"
        T.save_vocab(path, T.add_control_codes(T.train_bpe(docs, 1, vocab_size=50), table))
        a, b = T.load_vocab(path), T.load_vocab(path)
        T.encode(a, SWEDISH_SAMPLE[0])
        assert a == b

    # U+0085, U+2028 and U+2029 are saved raw; JSON escapes the other two.
    @pytest.mark.parametrize("sep", ["\u0085", "\u2028", "\u2029", "\x1c", "\r"])
    def test_line_separator_characters_round_trip(self, tmp_path, sep):
        docs, table = make_docs([f"slut{sep}x ett", f"ett{sep}{sep}två", "två ett"])
        v = T.add_control_codes(T.train_bpe(docs, 1, vocab_size=20), table)
        assert any(sep in left + right for left, right in v.merges)
        path = tmp_path / "vocab.txt"
        T.save_vocab(path, v)
        assert T.load_vocab(path) == v

    def test_invalid_utf8_reports_line(self, tmp_path):
        docs, table = make_docs(SWEDISH_SAMPLE)
        path = tmp_path / "vocab.txt"
        T.save_vocab(path, T.add_control_codes(T.train_bpe(docs, 1, vocab_size=50), table))
        lines = path.read_bytes().split(b"\n")
        lines[4] = lines[4][:1] + b"\xff" + lines[4][1:]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(T.TokenizerError,
                           match=f"^{path}:5: byte 0xff is not valid UTF-8$"):
            T.load_vocab(path)

    def test_header_format(self, tmp_path):
        docs, _ = make_docs(["ab ab"])
        v = T.train_bpe(docs, 1, vocab_size=6)
        path = tmp_path / "vocab.txt"
        T.save_vocab(path, v)
        first = path.read_text().splitlines()[0]
        assert first == f"bpe-v1 {v.base_size}"


class TestEncodeCache:
    def test_cache_stays_within_bound(self, monkeypatch):
        docs, table = make_docs(SWEDISH_SAMPLE)
        v = T.add_control_codes(T.train_bpe(docs, 1, vocab_size=50), table)
        words = " ".join(SWEDISH_SAMPLE).split()
        assert len(set(words)) > 4
        expected = [T.encode(v, word) for word in words]  # unbounded memo
        bounded = T.add_control_codes(T.train_bpe(docs, 1, vocab_size=50), table)
        monkeypatch.setattr(T, "ENCODE_CACHE_SIZE", 4)
        for word, ids in zip(words, expected):
            assert T.encode(bounded, word) == ids
            assert len(bounded._cache) <= 4


def _replace_line(lines, index, line):
    return lines[:index] + [line] + lines[index + 1:]


# Edits of a valid vocab file's lines, each leaving the file malformed.
MALFORMED_VOCAB = {
    "empty": lambda lines: [],
    "header_only": lambda lines: lines[:1],
    "cut_in_alphabet": lambda lines: lines[:3],
    "cut_in_controls": lambda lines: lines[:-2],
    "header_without_size": lambda lines: _replace_line(lines, 0, "bpe-v1"),
    "size_disagrees_with_merges": lambda lines: _replace_line(
        lines, 0, f"bpe-v1 {int(lines[0].split()[1]) + 1}"),
    "non_numeric_size": lambda lines: _replace_line(lines, 0, "bpe-v1 many"),
    "non_numeric_count": lambda lines: _replace_line(lines, 1, "alphabet many"),
    "bad_json_symbol": lambda lines: _replace_line(lines, 2, "{"),
    # Line 1 is "alphabet <count>"; the first merge follows the merges line.
    "merge_without_tab": lambda lines: _replace_line(
        lines, 3 + int(lines[1].split()[1]), '"a"'),
    "specials_without_unk": lambda lines: lines[:-1] + ["specials pad=54"],
    "specials_without_value": lambda lines: lines[:-1] + ["specials pad"],
    # A unique id past the end of the vocab still leaves a gap in 0..len-1.
    "special_id_out_of_range": lambda lines: lines[:-1] + [
        "specials pad=9999 " + lines[-1].split(" ")[2]],
}


@pytest.mark.parametrize("edit", MALFORMED_VOCAB.values(), ids=MALFORMED_VOCAB.keys())
def test_malformed_vocab_file_raises_tokenizer_error(tmp_path, edit):
    docs, table = make_docs(SWEDISH_SAMPLE)
    v = T.add_control_codes(T.train_bpe(docs, 1, vocab_size=50), table)
    path = tmp_path / "vocab.txt"
    T.save_vocab(path, v)
    lines = edit(path.read_text(encoding="utf-8").splitlines())
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(T.TokenizerError):
        T.load_vocab(path)


def test_failed_save_keeps_the_previous_file(tmp_path):
    docs, table = make_docs(SWEDISH_SAMPLE)
    v = T.add_control_codes(T.train_bpe(docs, 1, vocab_size=50), table)
    path = tmp_path / "vocab.txt"
    T.save_vocab(path, v)
    before = path.read_bytes()
    # A control name JSON cannot encode fails after the alphabet and merges.
    occ, ecc = len(v), len(v) + 1
    broken = replace(v, control_ids={**v.control_ids, object(): (occ, ecc)})
    with pytest.raises(TypeError):
        T.save_vocab(path, broken)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]


def test_full_scale_vocab_constant():
    assert T.FULL_SCALE_VOCAB_SIZE == 256_000
