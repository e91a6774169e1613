"""Categorized training documents and the fixed control-code taxonomy.

Every category owns a pair of single-token markers: an opening control code
(OCC) such as ``:wiki:`` that is prepended to a document, and an ending
control code (ECC) which is always the OCC plus a trailing ``$``
(``:wiki:$``).  Category names may contain ``/`` (minor categories such as
``news/sport``); in the token surface the slash is replaced by ``_`` so the
marker stays a single unambiguous word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .fileio import atomic_open, read_lines


class CorpusError(ValueError):
    """Raised for malformed corpus files or unregistered categories."""


def occ_text(name: str) -> str:
    """Opening-control-code surface for a category name."""
    return ":" + name.replace("/", "_") + ":"


def ecc_text(name: str) -> str:
    """Ending-control-code surface: the OCC with ``$`` appended."""
    return occ_text(name) + "$"


@dataclass(frozen=True)
class ControlCategory:
    """One content category with its control-code surfaces."""

    name: str
    is_major: bool
    documents: int = 0
    tokens: int = 0
    characters: int = 0

    @property
    def occ_text(self) -> str:
        return occ_text(self.name)

    @property
    def ecc_text(self) -> str:
        return ecc_text(self.name)

    @property
    def parent(self) -> str | None:
        """Top-level prefix for minor (slash-qualified) categories."""
        return self.name.split("/", 1)[0] if "/" in self.name else None

    @property
    def is_orphan(self) -> bool:
        """An orphan category has control codes but zero documents."""
        return self.documents == 0


@dataclass(frozen=True)
class Document:
    id: int
    text: str
    category: ControlCategory
    provenance: str  # "manual" | "auto"
    source_url: str | None = None

    def __post_init__(self):
        if not self.text:
            raise CorpusError("document text must be non-empty")
        if self.provenance not in _PROVENANCE.values():
            raise CorpusError(f"unknown provenance {self.provenance!r}")


class CategoryTable:
    """Ordered, immutable registry of control categories.

    Safe for concurrent reads once constructed.
    """

    def __init__(self, categories: list[ControlCategory]):
        names = [c.name for c in categories]
        if len(set(names)) != len(names):
            raise CorpusError("category names must be unique")
        for c in categories:
            if c.parent is not None and c.parent not in names:
                raise CorpusError(
                    f"minor category {c.name!r} has no registered parent {c.parent!r}"
                )
        self._categories = tuple(categories)
        self._by_name = {c.name: c for c in categories}

    def __len__(self) -> int:
        return len(self._categories)

    def __iter__(self):
        return iter(self._categories)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> ControlCategory:
        try:
            return self._by_name[name]
        except KeyError:
            raise CorpusError(f"unregistered category {name!r}") from None

    @property
    def majors(self) -> tuple[ControlCategory, ...]:
        return tuple(c for c in self._categories if c.is_major)

    @property
    def minors(self) -> tuple[ControlCategory, ...]:
        return tuple(c for c in self._categories if not c.is_major)

    @property
    def orphans(self) -> tuple[ControlCategory, ...]:
        return tuple(c for c in self._categories if c.is_orphan)


# (name, is_major, documents, tokens, characters), in published order.
_DEFAULT_CATEGORIES = [
    ("news", True, 1_629_526, 635_179_726, 4_060_209_799),
    ("wiki", True, 412_421, 151_181_708, 1_095_556_624),
    ("news/sport", False, 358_016, 149_461_664, 903_154_064),
    ("forum", True, 316_664, 212_420_326, 1_244_181_506),
    ("blogs", True, 297_258, 205_834_053, 1_179_533_133),
    ("news/pressrelease", False, 277_017, 88_914_953, 621_764_444),
    ("ads", True, 260_959, 84_948_629, 587_084_926),
    ("news/opinion", False, 221_010, 113_723_324, 730_484_523),
    ("news/culture", False, 150_241, 66_817_491, 419_183_009),
    ("admin", True, 136_495, 169_036_110, 1_185_927_529),
    ("news/economy", False, 76_421, 26_637_789, 174_005_712),
    ("debate", True, 67_831, 68_290_441, 468_393_340),
    ("info/medical", False, 42_952, 18_829_692, 122_089_820),
    ("info", True, 34_035, 12_650_622, 82_901_241),
    ("news/tech", False, 30_004, 8_083_200, 49_342_576),
    ("review", True, 24_017, 11_614_089, 71_752_874),
    ("info/travel", False, 21_528, 7_713_750, 46_624_552),
    ("forum/law", False, 20_982, 13_007_375, 79_398_374),
    ("news/lifestyle", False, 20_978, 13_022_322, 78_661_676),
    ("blogs/sport", False, 13_134, 9_613_961, 58_007_976),
    ("info/lifestyle", False, 13_056, 5_780_355, 35_801_351),
    ("news/sustainability", False, 12_975, 3_951_222, 26_320_596),
    ("forum/sport", False, 12_649, 9_747_421, 56_947_940),
    ("forum/tech", False, 12_286, 4_899_979, 30_984_736),
    ("news/travel", False, 10_118, 6_555_937, 41_146_765),
    ("info/business", False, 8_793, 4_649_150, 28_408_960),
    ("news/politics", False, 7_683, 1_870_196, 12_544_739),
    ("news/science", False, 7_295, 2_849_480, 17_981_928),
    ("news/food", False, 5_893, 2_415_800, 14_831_815),
    ("forum/travel", False, 3_844, 1_632_462, 10_272_658),
    ("news/fashion", False, 3_278, 1_665_669, 9_610_223),
    ("news/weather", False, 841, 477_327, 2_928_822),
    ("blogs/economy", False, 672, 343_747, 2_214_424),
    ("forum/economy", False, 340, 329_584, 2_051_113),
    ("literature", True, 297, 1_992_736, 12_274_721),
    ("simple", True, 25, 9_618, 56_865),
    ("blogs/tech", False, 0, 0, 0),
]


def default_category_table() -> CategoryTable:
    """The bundled 37-category table, including the blogs/tech orphan."""
    return CategoryTable(
        [
            ControlCategory(name, major, docs, toks, chars)
            for name, major, docs, toks, chars in _DEFAULT_CATEGORIES
        ]
    )


def table_from_names(names: list[str]) -> CategoryTable:
    """Build a table for ad-hoc corpora; slash-free names count as major.

    Missing parents of minor categories are registered automatically.
    """
    full = list(dict.fromkeys(names))
    for name in names:
        parent = name.split("/", 1)[0]
        if "/" in name and parent not in full:
            full.append(parent)
    return CategoryTable(
        [ControlCategory(n, is_major="/" not in n) for n in full]
    )


_PROVENANCE = {"m": "manual", "a": "auto"}  # a corpus line's code -> Document.provenance
_ESCAPE_RE = re.compile(r"\\([\\n])")


def _unescape(text: str) -> str:
    """Undo ``_escape`` in one left-to-right pass: ``\\\\`` and ``\\n``."""
    return _ESCAPE_RE.sub(lambda m: "\n" if m[1] == "n" else "\\", text)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def load_corpus(path, table: CategoryTable) -> list[Document]:
    """Read a line-delimited corpus file.

    Each line is ``<category>\\t<provenance:m|a>\\t<url-or-dash>\\t<text>``
    with newlines in the text escaped as ``\\n`` and backslashes as ``\\\\``.
    A line ends at ``\\n``, ``\\r\\n`` or ``\\r`` (``fileio.read_lines``).
    """
    docs: list[Document] = []
    for lineno, line in enumerate(read_lines(path, CorpusError), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise CorpusError(
                f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}"
            )
        name, prov, url, text = parts
        if name not in table:
            raise CorpusError(f"{path}:{lineno}: unregistered category {name!r}")
        if prov not in _PROVENANCE:
            raise CorpusError(
                f"{path}:{lineno}: provenance must be "
                f"{' or '.join(map(repr, _PROVENANCE))}, got {prov!r}"
            )
        text = _unescape(text)
        if not text:
            raise CorpusError(f"{path}:{lineno}: empty document text")
        docs.append(
            Document(
                id=len(docs),
                text=text,
                category=table[name],
                provenance=_PROVENANCE[prov],
                source_url=None if url == "-" else url,
            )
        )
    return docs


def load_texts(path) -> list[str]:
    """The non-blank lines of a text file, corpus escapes undone."""
    return [_unescape(line.rstrip("\n"))
            for line in read_lines(path, CorpusError) if line.strip()]


def save_corpus(path, docs: list[Document]) -> None:
    """Write documents in the line format accepted by :func:`load_corpus`.
    A text holding a tab or ``\\r``, a url holding a tab or a line break, or
    a url that is empty or exactly ``-`` (the field's mark for no url) has no
    such line and raises CorpusError naming the document.  The write is atomic
    (``fileio.atomic_open``)."""
    codes = {provenance: c for c, provenance in _PROVENANCE.items()}
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for d in docs:
            prov = codes[d.provenance]
            url = d.source_url if d.source_url else "-"
            if (any(c in d.text for c in "\t\r") or any(c in url for c in "\t\n\r")
                    or d.source_url in ("", "-")):
                raise CorpusError(
                    f"document {d.id}: a corpus line cannot hold a tab or \\r in a "
                    "text, a tab or line break in a url, or a url that is empty or "
                    "exactly '-', which reads back as no url")
            fh.write(f"{d.category.name}\t{prov}\t{url}\t{_escape(d.text)}\n")
