"""Property tests: a loader given a corrupted file either loads it or raises
its own module's error, never anything else, and one that is not UTF-8
names the line; every file format round-trips what it saved; and the
tokenizer round-trips any text over its trained alphabet.

Each loader example applies one to three byte-level edits (flip, delete,
insert) to a valid toy file.  The runs are derandomized and keep no example
database, so the suite stays deterministic and writes nothing outside
``tmp_path``.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ctrlkit import corpus, model as M, ngram, tasks, tokenizer as T
from ctrlkit.cli import _load_docs

PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def byte_edits(draw):
    """A function applying one to three byte-level edits to a file's bytes."""
    edits = draw(st.lists(
        st.tuples(st.sampled_from(["flip", "delete", "insert"]),
                  st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
        min_size=1, max_size=3,
    ))

    def apply(data: bytes) -> bytes:
        out = bytearray(data)
        for kind, where, byte in edits:
            if kind == "insert" or not out:
                out.insert(int(where * (len(out) + 1)), byte)
            elif kind == "flip":
                out[int(where * len(out))] ^= byte
            else:
                del out[int(where * len(out))]
        return bytes(out)

    return apply


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    # Tiny tensors, so most edits land in the magic line or the header.
    cfg = M.ModelConfig(layers=1, heads=1, model_dim=2, inner_dim=2, context=2,
                        vocab_size=3)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    M.save_checkpoint(path, M.init_model(cfg, seed=0))
    return path.read_bytes()


@pytest.fixture(scope="module")
def vocab_bytes(tmp_path_factory):
    table = corpus.table_from_names(["news", "wiki"])
    docs = [corpus.Document(0, "ett två tre två ett", table["news"], "manual"),
            corpus.Document(1, "fyra \"fem\" sex\\", table["wiki"], "manual")]
    path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
    T.save_vocab(path, T.add_control_codes(T.train_bpe(docs, 1, vocab_size=20), table))
    return path.read_bytes()


def _toy_docs():
    table = corpus.table_from_names(["news", "wiki", "news/sport"])
    return [corpus.Document(0, "ett två tre två ett", table["news"], "manual"),
            corpus.Document(1, "fyra \"fem\" sex\\ och\nsju", table["wiki"], "auto",
                            "https://example.org/sv"),
            corpus.Document(2, "åtta nio tio elva tolv", table["news/sport"], "manual")]


@pytest.fixture(scope="module")
def corpus_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.tsv"
    corpus.save_corpus(path, _toy_docs())
    return path.read_bytes()


@pytest.fixture(scope="module")
def index_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("index") / "index.jsonl"
    ngram.save_index(path, ngram.build_index(_toy_docs(), k=2))
    return path.read_bytes()


@pytest.fixture(scope="module")
def datapoints_bytes():
    points = [{"text": "Kalle såg Lisa.", "pronoun": "han", "candidate": "Kalle",
               "label": "ja"},
              {"text": "Det regnar.", "pronoun": "det", "candidate": "vädret",
               "label": "nej"}]
    return "".join(json.dumps(p, ensure_ascii=False) + "\n" for p in points).encode("utf-8")


def _docs_read_with(table):
    def load(path):
        docs, categories = _load_docs(str(path), table)
        return list(map(_fields, docs)), [c.name for c in categories]
    return load


def _index_fields(path):
    idx = ngram.load_index(path)
    return idx.k, idx.entries, idx.doc_meta, idx.texts


# Each text loader, the file it reads, and what of the read it compares.
BOM_LOADERS = {
    "corpus-auto": ("corpus_bytes", _docs_read_with("auto")),
    "corpus-default": ("corpus_bytes", _docs_read_with("default")),
    "texts": ("corpus_bytes", corpus.load_texts),
    "datapoints": ("datapoints_bytes", tasks.load_datapoints),
    "vocab": ("vocab_bytes", T.load_vocab),
    "index": ("index_bytes", _index_fields),
}


@pytest.mark.parametrize("name", BOM_LOADERS)
def test_leading_byte_order_mark_is_not_data(tmp_path, request, name):
    fixture, load = BOM_LOADERS[name]
    data = request.getfixturevalue(fixture)
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(data)
    marked.write_bytes("\ufeff".encode("utf-8") + data)
    assert load(marked) == load(plain)


def test_any_other_byte_order_mark_is_data(tmp_path):
    path = tmp_path / "texts.txt"
    path.write_text("\ufeff\ufeffa b\nc\ufeff\n\ufeffd\n", encoding="utf-8")
    assert corpus.load_texts(path) == ["\ufeffa b", "c\ufeff", "\ufeffd"]


def test_bad_utf8_after_a_byte_order_mark_names_its_line(tmp_path):
    path = tmp_path / "texts.txt"
    path.write_bytes("\ufeffa\nb".encode("utf-8") + b"\xff\n")
    with pytest.raises(corpus.CorpusError) as info:
        corpus.load_texts(path)
    assert str(info.value) == f"{path}:2: byte 0xff is not valid UTF-8"


@PROPERTY_SETTINGS
@given(edit=byte_edits())
def test_edited_checkpoint_loads_or_raises_model_error(tmp_path, checkpoint_bytes, edit):
    path = tmp_path / "model.ckpt"
    path.write_bytes(edit(checkpoint_bytes))
    try:
        M.load_checkpoint(path)
    except M.ModelError:
        pass


def _bad_utf8_message(path, data: bytes) -> str | None:
    """The error a text loader must raise for ``data``, naming the line of
    its first byte that is not UTF-8; None when ``data`` is UTF-8."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return f"{path}:{line}: byte {data[exc.start]:#04x} is not valid UTF-8"
    return None


@PROPERTY_SETTINGS
@given(edit=byte_edits())
def test_edited_vocab_loads_or_raises_tokenizer_error(tmp_path, vocab_bytes, edit):
    path = tmp_path / "vocab.txt"
    data = edit(vocab_bytes)
    path.write_bytes(data)
    bad = _bad_utf8_message(path, data)
    try:
        T.load_vocab(path)
    except T.TokenizerError as exc:
        assert bad is None or str(exc) == bad
    else:
        assert bad is None


@PROPERTY_SETTINGS
@given(edit=byte_edits())
def test_edited_index_loads_or_raises_index_error(tmp_path, index_bytes, edit):
    path = tmp_path / "index.jsonl"
    data = edit(index_bytes)
    path.write_bytes(data)
    bad = _bad_utf8_message(path, data)
    try:
        ngram.load_index(path)
    except ngram.NGramIndexError as exc:
        assert bad is None or str(exc) == bad
    else:
        assert bad is None


# Texts with tabs, newlines, backslashes, quotes and non-ASCII, some shorter
# than k words or with no word at all.
index_texts = st.text(
    alphabet=st.sampled_from(["a", "b", "å", "\u2028", " ", "\t", "\n", "\\", '"', "\r"]),
    min_size=1,
)


@PROPERTY_SETTINGS
@given(texts=st.dictionaries(st.integers(-5, 1000), index_texts, min_size=1, max_size=6),
       k=st.integers(1, 6))
def test_index_round_trips_through_its_file(tmp_path, texts, k):
    table = corpus.table_from_names(["news", "wiki"])
    docs = [corpus.Document(i, text, table["news" if i % 2 else "wiki"],
                            "auto" if i % 3 else "manual", None if i % 2 else f"u{i}")
            for i, text in texts.items()]
    idx = ngram.build_index(docs, k=k)
    path, again = tmp_path / "index.jsonl", tmp_path / "again.jsonl"
    ngram.save_index(path, idx)
    loaded = ngram.load_index(path)
    assert loaded.k == idx.k
    assert loaded.entries == idx.entries
    assert (loaded.doc_meta, loaded.texts) == (idx.doc_meta, idx.texts)
    ngram.save_index(again, loaded)
    assert again.read_bytes() == path.read_bytes()


# Characters JSON leaves raw that str.splitlines() would split at, beside
# the tab, quote and backslash that the file formats escape or separate on.
LINE_BREAK_ALPHABET = ["a", "å", " ", "\t", "\u0085", "\u2028", "\u2029", '"', "\\"]


@PROPERTY_SETTINGS
@given(texts=st.lists(st.text(alphabet=st.sampled_from(LINE_BREAK_ALPHABET), min_size=1),
                      min_size=1, max_size=5),
       extra=st.integers(0, 20))
def test_vocab_round_trips_through_its_file(tmp_path, texts, extra):
    table = corpus.table_from_names(["news", "wiki"])
    docs = [corpus.Document(i, text, table["news" if i % 2 else "wiki"], "manual")
            for i, text in enumerate(texts)]
    v = T.add_control_codes(
        T.train_bpe(docs, 1, vocab_size=len(set("".join(texts))) + extra), table)
    path = tmp_path / "vocab.txt"
    T.save_vocab(path, v)
    assert T.load_vocab(path) == v


corpus_texts = st.text(alphabet=st.sampled_from(
    [c for c in LINE_BREAK_ALPHABET if c != "\t"] + ["\n", "\x00"]), min_size=1)


def _fields(d: corpus.Document) -> tuple:
    return d.id, d.category.name, d.provenance, d.source_url, d.text


@PROPERTY_SETTINGS
@given(docs=st.lists(st.tuples(
    corpus_texts, st.sampled_from(["news", "wiki", "news/sport"]),
    st.sampled_from(["manual", "auto"]),
    st.none() | corpus_texts.filter(lambda u: "\n" not in u).map(lambda u: "u:" + u),
), min_size=1, max_size=6))
def test_corpus_round_trips_through_its_file(tmp_path, docs):
    table = corpus.table_from_names(["news", "wiki", "news/sport"])
    saved = [corpus.Document(i, text, table[name], provenance, url)
             for i, (text, name, provenance, url) in enumerate(docs)]
    path = tmp_path / "corpus.tsv"
    corpus.save_corpus(path, saved)
    loaded = corpus.load_corpus(path, table)
    assert list(map(_fields, loaded)) == list(map(_fields, saved))


@PROPERTY_SETTINGS
@given(edit=byte_edits())
def test_edited_corpus_loads_or_raises_corpus_error(tmp_path, corpus_bytes, edit):
    path = tmp_path / "corpus.tsv"
    path.write_bytes(edit(corpus_bytes))
    for load in (lambda: _load_docs(str(path)),
                 lambda: corpus.load_corpus(path, corpus.default_category_table()),
                 lambda: corpus.load_texts(path)):
        try:
            load()
        except corpus.CorpusError:
            pass


@PROPERTY_SETTINGS
@given(edit=byte_edits())
def test_edited_datapoints_load_or_raise_task_error(tmp_path, datapoints_bytes, edit):
    path = tmp_path / "task.jsonl"
    path.write_bytes(edit(datapoints_bytes))
    try:
        tasks.load_datapoints(path)
    except tasks.TaskError:
        pass


@pytest.fixture(scope="module")
def trained_vocab():
    return T.train_bpe(_toy_docs(), 1, vocab_size=40)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_encode_decode_round_trips_text_over_the_alphabet(trained_vocab, data):
    alphabet = sorted(t for t in trained_vocab.token_to_id if len(t) == 1)
    text = data.draw(st.text(alphabet=alphabet))
    assert T.decode(trained_vocab, T.encode(trained_vocab, text)) == text
