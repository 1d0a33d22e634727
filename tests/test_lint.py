"""Static checks over the package source, with no linter needed."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hierbpr"
# Every Python file whose imports are checked: package modules by file
# name, tests, demos and the benchmark by path from the repository root.
LINTED = {p.name: p for p in PACKAGE.glob("*.py")} | {
    p.relative_to(ROOT).as_posix(): p
    for folder in ("tests", "demos", "bench")
    for p in (ROOT / folder).glob("*.py")}


def unused_imports(source: str, exported: bool) -> list[str]:
    """Names the source imports but never reads as a plain name (``np`` in
    ``np.zeros`` counts); with ``exported``, ``__all__`` entries count too."""
    tree = ast.parse(source)
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (exported and isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("name", sorted(LINTED))
def test_every_import_is_used(name):
    source = LINTED[name].read_text(encoding="utf-8")
    assert unused_imports(source, name == "__init__.py") == []


def test_checker_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\n"
              "from .model import ItemTable, ModelConfig\n"
              "__all__ = ['ModelConfig']\n"
              "x = np.zeros(1)\n")
    assert unused_imports(source, exported=True) == ["os", "ItemTable"]
    assert unused_imports(source, exported=False) == [
        "os", "ItemTable", "ModelConfig"]



def json_error_types() -> set[str]:
    """The names in the ``except (...)`` tuple of ``cli.main``: the types
    it turns into the one-line JSON error."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handler = next(node for node in ast.walk(main)
                   if isinstance(node, ast.ExceptHandler)
                   and isinstance(node.type, ast.Tuple))
    return {name.id for name in handler.type.elts}


JSON_ERROR_BUILTINS = json_error_types()


def stray_raises(source: str, also: frozenset = frozenset()) -> list[str]:
    """By line, each ``raise`` whose class is neither in ``hierbpr.errors``,
    nor a JSON-error builtin, nor in ``also``; a bare re-raise reads as
    ``"raise"``. The base ``HierBprError`` is never allowed, so every JSON
    error line names a specific class."""
    from hierbpr import errors
    allowed = also | JSON_ERROR_BUILTINS | {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)}
    allowed -= {errors.HierBprError.__name__}
    raises = [node for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Raise)]
    names = []
    for node in sorted(raises, key=lambda node: (node.lineno, node.col_offset)):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        names.append("raise" if exc is None
                     else getattr(exc, "id", None) or getattr(exc, "attr", "?"))
    return [name for name in names if name not in allowed]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_raise_is_a_json_error(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    # argparse prints an ArgumentTypeError from an argument's type function
    # as the usage error (exit 2), so it never reaches ``cli.main``.
    also = frozenset({"ArgumentTypeError"} if module == "cli.py" else ())
    assert stray_raises(source, also) == []


def test_checker_sees_stray_raises():
    source = ("from . import errors\n"
              "def f(x):\n"
              "    if x:\n"
              "        raise ParseError('bad')\n"
              "    try:\n"
              "        raise errors.UnknownUser\n"
              "    except KeyError:\n"
              "        raise\n"
              "    raise TypeError(x) from None\n"
              "raise OSError(2, 'gone')\n"
              "raise MemoryError\n"
              "raise HierBprError('which one?')\n"
              "raise errors.HierBprError\n")
    assert stray_raises(source) == ["raise", "TypeError", "HierBprError",
                                    "HierBprError"]
    assert stray_raises(source, frozenset({"TypeError"})) == [
        "raise", "HierBprError", "HierBprError"]


def text_reads(source: str) -> list[str]:
    """The mode of each builtin ``open`` call that may read text: its mode
    has no ``b`` and no ``w``, ``a`` or ``x`` (no mode reads as ``"r"``, a
    mode that is not a literal as ``"?"``); a ``read_text`` method call
    reads as ``"read_text"``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if getattr(node.func, "attr", None) == "read_text":
            found.append("read_text")
        elif getattr(node.func, "id", None) == "open":
            mode = (node.args[1:2] + [k.value for k in node.keywords
                                      if k.arg == "mode"]
                    or [ast.Constant("r")])[0]
            mode = mode.value if isinstance(mode, ast.Constant) else "?"
            if "b" not in mode and not set(mode) & set("wax"):
                found.append(mode)
    return found


def test_ingestion_reads_bytes_only():
    # One text reader: every input file is read as bytes and split into
    # lines by the numpy scanner, so one UTF-8 rule covers them all.
    source = (PACKAGE / "ingestion.py").read_text(encoding="utf-8")
    assert text_reads(source) == []


def test_checker_sees_text_reads():
    source = ("open(p, 'rb'); open(p, 'w', encoding='utf-8')\n"
              "open(p); open(p, 'r', encoding='utf-8'); open(p, mode='rt')\n"
              "open(p, mode); Path(p).read_text(); open(p, mode='ab')\n")
    assert text_reads(source) == ["r", "r", "rt", "?", "read_text"]
