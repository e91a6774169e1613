"""Byte-pair-encoding tokenizer with control codes layered on top.

Text is pre-tokenized into alternating non-whitespace and whitespace runs;
both kinds of pieces go through the same merge table, so decoding is an
exact concatenation of token surfaces and round-trips any text whose
characters were seen during training.  No lowercasing and no Unicode
normalization is applied.

Ids ``0 .. base_size-1`` are BPE tokens (alphabet first, sorted by code
point, then merge outputs in training order).  Control-code ids and the
pad/unk specials are appended contiguously on top by
:func:`add_control_codes`; task control codes follow later through
:func:`add_control_pairs`, the one place control ids are assigned.
``encode`` never emits control or special ids for plain text; callers
splice them in explicitly.

:func:`train_bpe` merges, at each step, the adjacent pair with the highest
count (overlapping positions each count), ties going to the
lexicographically smallest pair.  It keeps the counts across steps and
updates them for the pieces that hold the merged pair only, so a merge
costs time in proportion to those pieces; the merges equal those of
recounting every pair after every merge.

A vocabulary file stores every token as a JSON string.  JSON escapes
``\\n`` and ``\\r`` but leaves U+0085, U+2028 and U+2029 raw, so
``load_vocab`` reads it through ``fileio.read_lines``, whose lines end at
``\\n``, ``\\r\\n`` or ``\\r`` only, and every token round-trips.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace

from .corpus import CategoryTable, Document, ecc_text, occ_text
from .fileio import atomic_open, parsing, read_lines

_PIECE_RE = re.compile(r"\S+|\s+")

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

# Base vocabulary size of the full-scale setup; control codes and the two
# specials sit on top of this.
FULL_SCALE_VOCAB_SIZE = 256_000

# Pieces whose encodings a Vocab memoizes before it starts over.
ENCODE_CACHE_SIZE = 65_536


class TokenizerError(ValueError):
    pass


@dataclass(frozen=True)
class Vocab:
    """Immutable BPE vocabulary; encode/decode are pure functions over it."""

    merges: tuple[tuple[str, str], ...]
    token_to_id: dict[str, int]
    base_size: int
    pad_id: int | None = None
    unk_id: int | None = None
    control_ids: dict[str, tuple[int, int]] = field(default_factory=dict)
    # Derived lookups and the encode memo; they take no part in ==.
    _id_to_token: dict[int, str] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    _ranks: dict[tuple[str, str], int] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    _cache: dict[str, tuple[int, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_id_to_token", {i: t for t, i in self.token_to_id.items()}
        )
        object.__setattr__(
            self, "_ranks", {pair: r for r, pair in enumerate(self.merges)}
        )

    def __len__(self) -> int:
        return len(self.token_to_id)

    def id_to_token(self, idx: int) -> str:
        try:
            return self._id_to_token[idx]
        except KeyError:
            raise TokenizerError(f"id {idx} out of vocabulary range") from None

    def occ_id(self, category: str) -> int:
        return self.control_ids[category][0]

    def ecc_id(self, category: str) -> int:
        return self.control_ids[category][1]

    @property
    def ecc_ids(self) -> frozenset[int]:
        return frozenset(e for _, e in self.control_ids.values())

    def category_of_ecc_id(self, idx: int) -> str:
        for name, (_, ecc) in self.control_ids.items():
            if ecc == idx:
                return name
        raise TokenizerError(f"id {idx} is not an ECC id")


def _merge_word(word: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    # Replace non-overlapping occurrences, scanning left to right.
    out = []
    i = 0
    while i < len(word):
        if i + 1 < len(word) and (word[i], word[i + 1]) == pair:
            out.append(word[i] + word[i + 1])
            i += 2
        else:
            out.append(word[i])
            i += 1
    return tuple(out)


def sample_fraction(docs: list[Document], fraction) -> list[Document]:
    """Deterministic stride sampling: every ceil(1/fraction)-th document."""
    if not 0 < fraction <= 1:
        raise TokenizerError(f"fraction must be in (0, 1], got {fraction}")
    stride = math.ceil(1 / fraction)
    return docs[::stride]


def train_bpe(docs: list[Document], fraction, vocab_size: int) -> Vocab:
    """Learn a merge table of at most ``vocab_size`` base tokens.

    Each step merges the adjacent pair with the highest count, summed over
    the distinct pieces of the sampled text weighted by their frequency;
    ties break toward the lexicographically smallest pair, so identical
    inputs give a byte-identical vocabulary.  Every adjacent position
    counts, as a full recount of the pieces would count it, so a run such
    as ``aaaa`` holds ``("a", "a")`` three times, while ``_merge_word``
    merges it without overlap.  Training stops early when no pair is left.

    The counts are kept across steps (Sennrich et al. 2016): a merge
    recounts only the pieces that hold its pair, and the next pair comes
    from a heap of ``(-count, pair)`` entries whose stale entries are
    dropped when they reach the top.  A step costs time in proportion to
    those pieces, not to the whole text.
    """
    if not docs:
        raise TokenizerError("cannot train on an empty document list")
    sampled = sample_fraction(docs, fraction)
    piece_counts: Counter = Counter()
    for doc in sampled:
        piece_counts.update(_PIECE_RE.findall(doc.text))
    if not piece_counts:
        raise TokenizerError("sampled text is empty")
    words = [tuple(piece) for piece in piece_counts]
    freqs = list(piece_counts.values())

    alphabet = sorted({ch for word in words for ch in word})
    if vocab_size < len(alphabet):
        raise TokenizerError(
            f"vocab_size {vocab_size} is below the alphabet size {len(alphabet)}"
        )

    # Pair counts and, per pair, the pieces that may hold it: a superset,
    # since a piece stays listed under a pair that a merge removed from it.
    counts: Counter = Counter()
    holders: dict[tuple[str, str], set[int]] = defaultdict(set)
    for w, (word, freq) in enumerate(zip(words, freqs)):
        for pair in zip(word, word[1:]):
            counts[pair] += freq
            holders[pair].add(w)
    heap = [(-c, pair) for pair, c in counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    token_to_id = {ch: i for i, ch in enumerate(alphabet)}
    while len(token_to_id) < vocab_size:
        # Every pair with a nonzero count has an entry holding that count.
        while heap and -heap[0][0] != counts[heap[0][1]]:
            heapq.heappop(heap)
        if not heap:
            break
        pair = heapq.heappop(heap)[1]
        merges.append(pair)
        token_to_id[pair[0] + pair[1]] = len(token_to_id)
        changed = set()
        for w in holders.pop(pair):
            word, freq = words[w], freqs[w]
            merged = _merge_word(word, pair)
            if len(merged) == len(word):
                continue
            for old in zip(word, word[1:]):
                counts[old] -= freq
                changed.add(old)
            words[w] = merged
            for new in zip(merged, merged[1:]):
                counts[new] += freq
                holders[new].add(w)
                changed.add(new)
        for p in changed:
            if counts[p]:
                heapq.heappush(heap, (-counts[p], p))

    return Vocab(
        merges=tuple(merges),
        token_to_id=token_to_id,
        base_size=len(token_to_id),
    )


def _bpe_piece(v: Vocab, piece: str) -> list[str]:
    symbols = list(piece)
    while len(symbols) > 1:
        ranked = [
            (v._ranks[pair], i)
            for i, pair in enumerate(zip(symbols, symbols[1:]))
            if pair in v._ranks
        ]
        if not ranked:
            break
        best_rank = min(r for r, _ in ranked)
        pair = v.merges[best_rank]
        symbols = list(_merge_word(tuple(symbols), pair))
    return symbols


def encode(v: Vocab, text: str) -> list[int]:
    """Greedy merge application in training order; unseen symbols -> unk."""
    ids: list[int] = []
    for piece in _PIECE_RE.findall(text):
        cached = v._cache.get(piece)
        if cached is None:
            piece_ids = []
            for sym in _bpe_piece(v, piece):
                idx = v.token_to_id.get(sym)
                if idx is None:
                    if v.unk_id is None:
                        raise TokenizerError(
                            f"symbol {sym!r} not in vocabulary and no unk token "
                            "registered (call add_control_codes first)"
                        )
                    # Unknown merged symbols cannot occur: merges only produce
                    # known tokens, so this is always a single unseen char.
                    idx = v.unk_id
                piece_ids.append(idx)
            cached = tuple(piece_ids)
            if len(v._cache) >= ENCODE_CACHE_SIZE:
                v._cache.clear()
            v._cache[piece] = cached
        ids.extend(cached)
    return ids


def decode(v: Vocab, ids: list[int]) -> str:
    """Concatenate token surfaces; whitespace tokens restore spacing exactly."""
    return "".join(v.id_to_token(i) for i in ids)


def add_control_pairs(v: Vocab, names: list[str]) -> Vocab:
    """Append an OCC and an ECC id for each name after the last id.

    Existing ids, control pairs and specials are kept; a surface that is
    already a token raises TokenizerError.
    """
    token_to_id = dict(v.token_to_id)
    control_ids = dict(v.control_ids)
    for name in names:
        for surface in (occ_text(name), ecc_text(name)):
            if surface in token_to_id:
                raise TokenizerError(
                    f"control token {surface!r} collides with an existing token"
                )
            token_to_id[surface] = len(token_to_id)
        control_ids[name] = (len(token_to_id) - 2, len(token_to_id) - 1)
    return replace(v, token_to_id=token_to_id, control_ids=control_ids)


def add_control_codes(v: Vocab, table: CategoryTable) -> Vocab:
    """Append one OCC and one ECC id per category, then pad and unk.

    Base ids are unchanged; the first control id equals ``base_size``.
    """
    v = add_control_pairs(v, [cat.name for cat in table])
    token_to_id = dict(v.token_to_id)
    for surface in (PAD_TOKEN, UNK_TOKEN):
        if surface in token_to_id:
            raise TokenizerError(
                f"special token {surface!r} collides with an existing token"
            )
        token_to_id[surface] = len(token_to_id)
    return replace(v, token_to_id=token_to_id, pad_id=len(token_to_id) - 2,
                   unk_id=len(token_to_id) - 1)


VOCAB_MAGIC = "bpe-v1"


def save_vocab(path, v: Vocab) -> None:
    """Text serialization: header, alphabet, merges, control/special blocks,
    written atomically (``fileio.atomic_open``)."""
    alphabet = [
        v.id_to_token(i) for i in range(v.base_size - len(v.merges))
    ]
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{VOCAB_MAGIC} {v.base_size}\n")
        fh.write(f"alphabet {len(alphabet)}\n")
        for ch in alphabet:
            fh.write(json.dumps(ch, ensure_ascii=False) + "\n")
        fh.write(f"merges {len(v.merges)}\n")
        for left, right in v.merges:
            fh.write(
                json.dumps(left, ensure_ascii=False)
                + "\t"
                + json.dumps(right, ensure_ascii=False)
                + "\n"
            )
        fh.write(f"controls {len(v.control_ids)}\n")
        for name, (occ_id, ecc_id) in v.control_ids.items():
            fh.write(
                json.dumps(name, ensure_ascii=False) + f"\t{occ_id}\t{ecc_id}\n"
            )
        if v.pad_id is not None:
            fh.write(f"specials pad={v.pad_id} unk={v.unk_id}\n")


def load_vocab(path) -> Vocab:
    """Read a ``save_vocab`` file; malformed input raises TokenizerError."""
    text = read_lines(path, TokenizerError).getvalue()
    with parsing(path, TokenizerError, "vocab"):
        # The lines without their "\n"; the file's last "\n" ends a line.
        return _parse_vocab(text.removesuffix("\n").split("\n") if text else [])


def _parse_vocab(lines: list[str]) -> Vocab:
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos == len(lines):
            raise TokenizerError(f"vocab file ends early, after {pos} lines")
        line = lines[pos]
        pos += 1
        return line

    magic, base_size_s = take().split(" ")
    if magic != VOCAB_MAGIC:
        raise TokenizerError(f"unsupported vocab format {magic!r}")
    base_size = int(base_size_s)

    _, count_s = take().split(" ")
    alphabet = [json.loads(take()) for _ in range(int(count_s))]
    _, count_s = take().split(" ")
    merges = []
    for _ in range(int(count_s)):
        left_s, right_s = take().split("\t")
        merges.append((json.loads(left_s), json.loads(right_s)))
    token_to_id = {ch: i for i, ch in enumerate(alphabet)}
    for left, right in merges:
        token_to_id[left + right] = len(token_to_id)
    if len(token_to_id) != base_size:
        raise TokenizerError("vocab file is inconsistent with its header")

    _, count_s = take().split(" ")
    control_ids: dict[str, tuple[int, int]] = {}
    for _ in range(int(count_s)):
        name_s, occ_s, ecc_s = take().split("\t")
        name = json.loads(name_s)
        occ_id, ecc_id = int(occ_s), int(ecc_s)
        token_to_id[occ_text(name)] = occ_id
        token_to_id[ecc_text(name)] = ecc_id
        control_ids[name] = (occ_id, ecc_id)

    pad_id = unk_id = None
    if pos < len(lines) and lines[pos].startswith("specials "):
        fields = dict(kv.split("=") for kv in take().split(" ")[1:])
        pad_id, unk_id = int(fields["pad"]), int(fields["unk"])
        token_to_id[PAD_TOKEN] = pad_id
        token_to_id[UNK_TOKEN] = unk_id

    expected = base_size + 2 * len(control_ids) + (2 if pad_id is not None else 0)
    if sorted(token_to_id.values()) != list(range(expected)):
        raise TokenizerError(f"vocab file token ids are not exactly 0..{expected - 1}")

    return Vocab(
        merges=tuple(merges),
        token_to_id=token_to_id,
        base_size=base_size,
        pad_id=pad_id,
        unk_id=unk_id,
        control_ids=control_ids,
    )
