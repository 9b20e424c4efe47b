"""tools/code_lines.py counts code lines without blanks, comments or docstrings."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring
over two lines."""

# a comment
def double(x):  # a trailing comment keeps its line
    return 2 * x
'''


@pytest.mark.parametrize("source", [FIXTURE, 'x = """a string that is no docstring\ncounts each line"""\n'])
def test_only_the_two_code_lines_count(source):
    assert code_lines.code_lines(source) == 2


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("def f():\n    '''doc'''\n    pass\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     2  a.py", "     2  b.py", "     4  total", ""]
