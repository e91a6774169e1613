import json

from ctrlkit import cli
from tests import artifact_pipeline as AP


def test_two_small_runs_write_equal_manifests_over_every_verb(tmp_path):
    made = AP.run(tmp_path / "a", small=True)
    AP.run(tmp_path / "b", small=True)
    assert AP.compare(tmp_path / "a", tmp_path / "b") == []
    manifest = (tmp_path / "a" / AP.MANIFEST).read_text()
    assert manifest == (tmp_path / "b" / AP.MANIFEST).read_text()
    assert set(AP.cli_verbs(cli)) == {argv[0] for argv in made}
    assert "  grid-10/report.csv\n" in manifest and "  ppl.csv\n" in manifest
    # The 10-text grid's rows stop at different steps, and some slide past
    # the 24-token window.
    for cell in (tmp_path / "a" / "grid-10").glob("cell_*.jsonl"):
        records = [json.loads(line) for line in cell.read_text().splitlines()]
        assert len(records) == 10
        assert len({len(r["token_ids"]) for r in records}) > 1
        assert {r["stop_reason"] for r in records} == {"ecc_reached", "max_length"}
        assert 1 + max(len(r["token_ids"]) for r in records) > 24
    # The mixed grid decodes greedy and sampled cells in one batch.
    report = (tmp_path / "a" / "grid-3" / "report.csv").read_text().splitlines()[1:]
    assert {line.split(",")[1] for line in report} == {"0.00", "1.00"}


def test_compare_names_each_artifact_that_differs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    files = {
        "same.txt": ("x\n", "x\n"),
        "logs/out.txt": ("exit 0\n", "exit 1\n"),
        "ppl.csv": ("perplexity,window\n12.5,8\n,8\n", "perplexity,window\n12.5000125,8\n,8\n"),
        "ppl-window8.csv": ("1.0,8\n", "1.0,9,0\n"),
        "only-a.txt": ("a\n", None),
    }
    for root, side in ((a, 0), (b, 1)):
        for name, texts in files.items():
            if texts[side] is not None:
                (root / name).parent.mkdir(parents=True, exist_ok=True)
                (root / name).write_text(texts[side])
        AP.write_manifest(root)
    assert AP.compare(a, b) == [
        "differs: logs/out.txt",
        f"only in {a}: only-a.txt",
        "differs: ppl-window8.csv (not only in its numbers)",
        "differs: ppl.csv (largest relative difference 1e-06)",
    ]
    assert AP.compare(a, a) == []
    assert AP.main(["--compare", str(a), str(b)]) == 1
    assert AP.main(["--compare", str(b), str(b)]) == 0
