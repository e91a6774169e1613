"""Property tests: a loader given a corrupted file either loads it or raises
its own module's error, never anything else.

Each example applies one to three byte-level edits (flip, delete, insert) to
a valid toy file.  The runs are derandomized and keep no example database,
so the suite stays deterministic and writes nothing outside ``tmp_path``.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ctrlkit import corpus, model as M, tokenizer as T

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


@PROPERTY_SETTINGS
@given(edit=byte_edits())
def test_edited_checkpoint_loads_or_raises_model_error(tmp_path, checkpoint_bytes, edit):
    path = tmp_path / "model.ckpt"
    path.write_bytes(edit(checkpoint_bytes))
    try:
        M.load_checkpoint(path)
    except M.ModelError:
        pass


@PROPERTY_SETTINGS
@given(edit=byte_edits())
def test_edited_vocab_loads_or_raises_tokenizer_error(tmp_path, vocab_bytes, edit):
    path = tmp_path / "vocab.txt"
    path.write_bytes(edit(vocab_bytes))
    try:
        T.load_vocab(path)
    except T.TokenizerError:
        pass
