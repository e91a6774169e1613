import ast
from pathlib import Path

import pytest

import ctrlkit
from ctrlkit import fileio

SOURCES = sorted(Path(ctrlkit.__file__).parent.glob("*.py"))


class ParseError(ValueError):
    pass


@pytest.mark.parametrize("exc", [AttributeError("a"), KeyError("k"), TypeError("t"),
                                 ValueError("v")], ids=lambda exc: type(exc).__name__)
def test_parser_exception_becomes_the_callers_error(exc):
    with pytest.raises(ParseError) as info, fileio.parsing("f.txt", ParseError, "toy"):
        raise exc
    assert str(info.value) == f"malformed toy file f.txt: {exc!r}"


def test_callers_own_error_and_other_exceptions_pass_through():
    own = ParseError("f.txt:3: bad line")
    with pytest.raises(ParseError) as info, fileio.parsing("f.txt", ParseError, "toy"):
        raise own
    assert info.value is own
    with pytest.raises(FileNotFoundError), fileio.parsing("f.txt", ParseError, "toy"):
        raise FileNotFoundError("f.txt")


def _open_mode(call: ast.Call):
    """The mode argument of an ``open(...)`` call: an AST node, or None."""
    if len(call.args) > 1:
        return call.args[1]
    return next((kw.value for kw in call.keywords if kw.arg == "mode"), None)


def test_only_fileio_opens_a_file_in_text_mode():
    """Text files are read through ``fileio.read_lines`` alone; any other
    module's ``open`` names a binary mode as a literal."""
    assert any(path.name == "fileio.py" for path in SOURCES)
    text_opens = []
    for path in SOURCES:
        if path.name == "fileio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                mode = _open_mode(node)
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and "b" in mode.value):
                    text_opens.append(f"{path.name}:{node.lineno}")
    assert text_opens == []
