"""tools/code_lines.py: which lines of a module count as code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# each line ends in a marker comment: "# code" lines must count, "# skip" lines must not;
# the docstrings and the blank line carry no marker and must not count either
MODULE = '''"""Module docstring,
over two lines."""
# a comment line  # skip

import math  # code


class Box:  # code
    """Class docstring."""

    size = 2  # code

    def area(self):  # code
        """Function docstring,

        over three lines."""
        # the next call spans three lines  # skip
        return math.prod(  # code
            (self.size,  # code
             self.size))  # code
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_code_and_leaves_out_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(MODULE, encoding="utf-8")
    lines = MODULE.splitlines()
    assert sum(line.endswith("# code") for line in lines) == 7
    assert load_tool().code_lines(path) == 7


def test_code_lines_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n", encoding="utf-8")
    assert load_tool().main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"     7  {tmp_path / 'a.py'}", f"     1  {tmp_path / 'b.py'}", "     8  total"]
