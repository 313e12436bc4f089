"""The code-line counter in ``tools/code_lines.py``."""

from __future__ import annotations

import importlib.util

_SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line

# a comment line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        with a blank line inside."""
        text = """a string that is code
spans two lines"""
        "a later string statement is code too"
        return text


async def run():
    def inner():
        """Nested docstring."""
        return (1,
                2)
    return inner
'''


def _load_tool(repo_root):
    spec = importlib.util.spec_from_file_location("code_lines", repo_root / "tools" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    return code_lines


def test_counts_code_lines_without_docstrings_comments_or_blanks(repo_root):
    code_lines = _load_tool(repo_root)
    # import, class, def, text (2 lines), later string, return, async def, def, return (2 lines), return
    assert code_lines.code_lines(_SNIPPET) == 12
    assert code_lines.code_lines("") == 0


def test_prints_each_package_module_and_the_total(repo_root, tmp_path, monkeypatch, capsys):
    code_lines = _load_tool(repo_root)
    package = tmp_path / "src" / "disambig"
    package.mkdir(parents=True)
    (package / "b.py").write_text(_SNIPPET, encoding="utf-8")
    (package / "a.py").write_text("x = 1\n", encoding="utf-8")
    (package / "notes.txt").write_text("not python\n", encoding="utf-8")
    monkeypatch.setattr(code_lines, "ROOT", tmp_path)
    assert code_lines.main() == 0
    assert capsys.readouterr().out.splitlines() == ["     1  a.py", "    12  b.py", "    13  total"]
