"""``tools/src_lines.py`` counts what the ROADMAP's line count means: code
lines, without docstrings, comments or blank lines."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SNIPPET = '''"""A module docstring
over two lines."""

# a comment
X = 1


def f():
    """A function docstring."""
    return """a string that
is code"""


class C:
    """A class docstring."""

    y = 2  # a trailing comment
'''


def test_code_lines_skips_docstrings_comments_and_blanks():
    # X = 1, def f():, the two lines of the returned string, class C:, y = 2
    assert src_lines.code_lines(SNIPPET) == 6


def test_code_lines_counts_a_string_after_the_first_statement():
    assert src_lines.code_lines('x = 1\n"""not a\ndocstring"""\n') == 3
