"""Every Python file of the project parses as Python 3.10, the oldest
version the CI workflow runs, so newer syntax is caught on any interpreter,
and every text file the library reads or writes names its encoding. The
code-line counter in tools/ skips blanks, comments and docstrings."""

import ast
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_as_python_310():
    paths = sorted(p for d in ("src", "tests", "demos", "tools") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 30
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, "\n".join(failures)


def test_code_lines_skip_blanks_comments_and_docstrings():
    code_lines = runpy.run_path(str(ROOT / "tools" / "code_lines.py"))["code_lines"]
    source = (
        '"""Module\ndocstring."""\n\n# a comment\nx = 1  # code\n'
        'def f():\n    """A docstring."""\n    return """a string\n\nover three lines"""\n'
    )
    assert code_lines(source) == 5  # x, def and the three lines of the returned string


def test_sources_name_the_encoding_of_every_text_file():
    # a text-mode open, Path.read_text or Path.write_text without encoding=
    # uses the locale's codec, so its bytes would depend on where it runs
    failures = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), None)
                if isinstance(mode, ast.Constant) and "b" in str(mode.value):
                    continue
            elif name not in ("read_text", "write_text"):
                continue
            if not any(k.arg == "encoding" for k in node.keywords):
                failures.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name} without encoding=")
    assert not failures, "\n".join(failures)
