import pytest

from ctrlkit import corpus


class TestDefaultTable:
    def test_has_37_categories(self):
        table = corpus.default_category_table()
        assert len(table) == 37

    def test_published_counts(self):
        table = corpus.default_category_table()
        assert table["news"].documents == 1_629_526
        assert table["wiki"].documents == 412_421
        assert table["blogs/tech"].documents == 0

    def test_orphan_flag(self):
        table = corpus.default_category_table()
        assert table.orphans == (table["blogs/tech"],)
        assert table["blogs/tech"].is_orphan
        assert not table["news"].is_orphan

    def test_major_minor_split(self):
        # 11 single-word top-level categories carry the major flag,
        # literature and simple included; the remaining 26 are minor.
        table = corpus.default_category_table()
        majors = {c.name for c in table.majors}
        assert majors == {
            "news", "wiki", "forum", "blogs", "ads", "admin", "debate",
            "info", "review", "literature", "simple",
        }
        assert len(table.minors) == 26

    def test_control_codes_bijective(self):
        table = corpus.default_category_table()
        occs = [c.occ_text for c in table]
        eccs = [c.ecc_text for c in table]
        assert len(set(occs)) == len(table)
        assert len(set(eccs)) == len(table)
        assert not set(occs) & set(eccs)

    def test_ecc_is_occ_plus_dollar(self):
        table = corpus.default_category_table()
        for c in table:
            assert c.ecc_text == c.occ_text + "$"
        assert table["wiki"].ecc_text == ":wiki:$"
        assert table["news/sport"].occ_text == ":news_sport:"

    def test_minor_parent_prefix(self):
        table = corpus.default_category_table()
        for c in table.minors:
            assert c.parent == c.name.split("/")[0]
            assert c.parent in table
        for c in table.majors:
            assert c.parent is None


class TestLoadCorpus:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        table = corpus.default_category_table()
        assert corpus.load_corpus(path, table) == []

    def test_two_records(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            "wiki\tm\thttps://example.org/a\tFirst article text.\n"
            "news\ta\t-\tSecond text with\\nan embedded newline.\n"
        )
        table = corpus.default_category_table()
        docs = corpus.load_corpus(path, table)
        assert len(docs) == 2
        assert docs[0].category.name == "wiki"
        assert docs[0].provenance == "manual"
        assert docs[0].source_url == "https://example.org/a"
        assert docs[1].category.name == "news"
        assert docs[1].provenance == "auto"
        assert docs[1].source_url is None
        assert docs[1].text == "Second text with\nan embedded newline."

    def test_unknown_category_named_in_error(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("nonsense\tm\t-\tsome text\n")
        with pytest.raises(corpus.CorpusError, match="nonsense"):
            corpus.load_corpus(path, corpus.default_category_table())

    def test_blank_line_skipped(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("wiki\tm\t-\tfirst\n\nnews\ta\t-\tsecond\n")
        docs = corpus.load_corpus(path, corpus.default_category_table())
        assert [(d.id, d.text) for d in docs] == [(0, "first"), (1, "second")]

    @pytest.mark.parametrize("line, match", [
        ("wiki\tx\t-\ttext", ":1: provenance must be 'm' or 'a', got 'x'"),
        ("wiki\tm\t-\t", ":1: empty document text"),
    ])
    def test_bad_field_reports_line(self, tmp_path, line, match):
        path = tmp_path / "c.tsv"
        path.write_text(line + "\n")
        with pytest.raises(corpus.CorpusError, match=match):
            corpus.load_corpus(path, corpus.default_category_table())

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("wiki\tm\t-\tok text\nwiki\tm\tmissing-text-field\n")
        with pytest.raises(corpus.CorpusError, match=":2:"):
            corpus.load_corpus(path, corpus.default_category_table())

    def test_save_load_round_trip(self, tmp_path):
        table = corpus.default_category_table()
        docs = [
            corpus.Document(0, "text with\nnewline and \\ backslash",
                            table["wiki"], "manual", "http://x"),
            corpus.Document(1, "plain", table["simple"], "auto"),
        ]
        path = tmp_path / "c.tsv"
        corpus.save_corpus(path, docs)
        loaded = corpus.load_corpus(path, table)
        assert [d.text for d in loaded] == [d.text for d in docs]
        assert [d.category.name for d in loaded] == ["wiki", "simple"]

    @pytest.mark.parametrize("text", [
        "x\x00y", "\x00\\\x00", "a\\nb", "a\\\nb", "trailing \\", "\u0085 \u2028 \u2029",
    ])
    def test_backslashes_and_nul_round_trip(self, tmp_path, text):
        table = corpus.default_category_table()
        path = tmp_path / "c.tsv"
        corpus.save_corpus(path, [corpus.Document(0, text, table["wiki"], "manual")])
        assert [d.text for d in corpus.load_corpus(path, table)] == [text]

    @pytest.mark.parametrize("text, url", [
        ("x\ty", None), ("x\ry", None), ("x\r\ny", None),
        ("ok", "http://x\ty"), ("ok", "http://x\ny"), ("ok", "http://x\ry"),
        ("ok", "-"), ("ok", ""),
    ])
    def test_save_rejects_a_field_no_line_can_hold(self, tmp_path, text, url):
        table = corpus.default_category_table()
        path = tmp_path / "c.tsv"
        corpus.save_corpus(path, [corpus.Document(0, "first", table["wiki"], "manual")])
        before = path.read_bytes()
        docs = [corpus.Document(0, "fine", table["wiki"], "manual"),
                corpus.Document(7, text, table["news"], "auto", url)]
        with pytest.raises(corpus.CorpusError, match="^document 7: "):
            corpus.save_corpus(path, docs)
        assert path.read_bytes() == before

    def test_invalid_utf8_reports_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_bytes("wiki\tm\t-\tåäö\nwiki\tm\t-\tok \xff text\n".encode("latin-1"))
        with pytest.raises(corpus.CorpusError, match=f"{path}:1: byte 0xe5 is not valid UTF-8"):
            corpus.load_corpus(path, corpus.default_category_table())
        path.write_bytes(b"wiki\tm\t-\tok text\nwiki\tm\t-\tbad \xff text\n")
        with pytest.raises(corpus.CorpusError, match=f"{path}:2: byte 0xff is not valid UTF-8"):
            corpus.load_corpus(path, corpus.default_category_table())

    def test_failed_save_keeps_the_previous_file(self, tmp_path):
        table = corpus.default_category_table()
        path = tmp_path / "c.tsv"
        corpus.save_corpus(path, [corpus.Document(0, "first", table["wiki"], "manual")])
        before = path.read_bytes()

        class FailingDocument:
            category, provenance, source_url = table["news"], "auto", None

            @property
            def text(self):
                raise OSError("disk full")

        docs = [corpus.Document(0, "second", table["news"], "auto"), FailingDocument()]
        with pytest.raises(OSError, match="disk full"):
            corpus.save_corpus(path, docs)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.tsv"]


class TestLoadTexts:
    def test_blank_lines_dropped_and_escapes_undone(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("one\\ntwo\n\n  \nthree\n", encoding="utf-8")
        assert corpus.load_texts(path) == ["one\ntwo", "three"]

    def test_invalid_utf8_reports_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"ok\n\nstill ok\nbad \xc3\x28\n")
        with pytest.raises(corpus.CorpusError, match=f"{path}:4: byte 0xc3 is not valid UTF-8"):
            corpus.load_texts(path)


class TestAdHocTables:
    def test_names_unique_enforced(self):
        with pytest.raises(corpus.CorpusError):
            corpus.CategoryTable(
                [corpus.ControlCategory("a", True), corpus.ControlCategory("a", True)]
            )

    def test_minor_without_parent_rejected(self):
        with pytest.raises(corpus.CorpusError,
                           match="minor category 'news/sport' has no registered parent 'news'"):
            corpus.CategoryTable([corpus.ControlCategory("news/sport", False)])

    def test_unknown_name_lookup_rejected(self):
        with pytest.raises(corpus.CorpusError, match="unregistered category 'nosuch'"):
            corpus.table_from_names(["alpha"])["nosuch"]

    @pytest.mark.parametrize("text, provenance, match", [
        ("", "manual", "document text must be non-empty"),
        ("text", "scraped", "unknown provenance 'scraped'"),
    ])
    def test_invalid_document_rejected(self, text, provenance, match):
        table = corpus.table_from_names(["alpha"])
        with pytest.raises(corpus.CorpusError, match=match):
            corpus.Document(0, text, table["alpha"], provenance)

    def test_auto_parent_insertion(self):
        table = corpus.table_from_names(["news/sport"])
        assert "news" in table
        assert table["news"].is_major
