"""The ``ctrlkit`` names the benchmark in ``perfbench/`` reads still exist.

perfbench wraps the functions that ``spans.WRAPS`` lists and calls
``ctrlkit`` module attributes from its workloads, so renaming or deleting
one of them otherwise shows only in a benchmark run.  Its span counters
also read the wrapped functions' arguments by name and their results'
attributes.  These tests read ``perfbench/`` and change nothing in it:
``spans.py`` is imported, and every file is parsed for the ``ctrlkit``
attributes it reads.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import sys
import textwrap
import typing
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Deleted from the package while ``spans.WRAPS`` still lists them; the
# benchmark reports them as not wrapped until its table is mended.
KNOWN_MISSING = {"Checkpoint.copy", "tasks.greedy_answer", "evaluation._run_cell"}


@pytest.fixture(scope="module")
def spans():
    """``perfbench/spans.py`` imported under its own name, writing no
    bytecode there, with the benchmark's ``inputs`` module it imports taken
    out of ``sys.modules`` afterwards."""
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("inputs", None)
    return module


def _label(owner) -> str:
    return owner.__qualname__ if isinstance(owner, type) else owner.__name__.split(".")[-1]


def test_every_wrapped_name_exists(spans):
    missing = {f"{_label(owner)}.{attr}" for owner, attr, _, _ in spans.WRAPS
               if not hasattr(owner, attr)}
    assert missing <= KNOWN_MISSING


def _ctrlkit_reads(path: Path) -> set[tuple[str, str]]:
    """(module, attribute) for every ``ctrlkit`` module attribute the file
    reads: names imported ``from ctrlkit.<module>``, and ``<module>.<name>``
    where ``<module>`` was imported ``from ctrlkit``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ctrlkit":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ctrlkit."):
            reads.update((node.module.split(".", 1)[1], a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.add((modules[node.value.id], node.attr))
    return reads


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_ctrlkit_attribute_read_exists(path):
    reads = _ctrlkit_reads(path)
    if path.name == "workloads.py":
        assert ("trainer", "train") in reads  # the parse sees the workloads' calls
    missing = {f"{module}.{attr}" for module, attr in reads
               if not hasattr(importlib.import_module(f"ctrlkit.{module}"), attr)}
    assert missing <= KNOWN_MISSING


def _counter_reads(counter) -> tuple[set[str], set[str]]:
    """The string subscripts of a span counter (the arguments it reads by
    name) and the attributes it reads of ``result``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(counter)))
    subscripts, attributes = set(), set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            subscripts.add(node.slice.value)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "result"):
            attributes.add(node.attr)
    return subscripts, attributes


def test_every_counter_reads_existing_names(spans):
    """Each argument a counter reads is a parameter of the function its
    ``WRAPS`` entry wraps, and each result attribute one of the class that
    function's return annotation names."""
    checked, missing = set(), set()
    for owner, attr, _, counter in spans.WRAPS:
        if counter is None or not hasattr(owner, attr):  # KNOWN_MISSING
            continue
        fn = getattr(owner, attr)
        subscripts, attributes = _counter_reads(counter)
        parameters = inspect.signature(fn).parameters
        missing.update(f"{attr}({name})" for name in subscripts - parameters.keys())
        if attributes:
            result = typing.get_type_hints(fn)["return"]
            names = set(dir(result)) | set(typing.get_type_hints(result))
            missing.update(f"{attr}().{name}" for name in attributes - names)
        checked.update(f"{attr}({name})" for name in subscripts)
        checked.update(f"{attr}().{name}" for name in attributes)
    assert {"batch_loss(mask)", "save_index(path)", "answer_selection_accuracy(datapoints)",
            "build_index().entries", "generate_ids().stop_reason"} <= checked
    assert missing == set()
