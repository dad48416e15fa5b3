"""The line counter in ``tools/loc.py``: what it counts as code."""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "loc", os.path.join(os.path.dirname(HERE), "tools", "loc.py"))
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SAMPLE = '''"""Module docstring."""
import os

# a comment line
def f(x):
    """A docstring
    on two lines."""
    return x  # a trailing comment is still code


class C:
    """One line."""
    y = """a string, not a docstring"""
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    assert loc.counts(SAMPLE) == (13, 5)


def test_every_module_of_the_package_is_counted(capsys):
    assert loc.main() == 0
    lines = capsys.readouterr().out.splitlines()
    names = sorted(n for n in os.listdir(loc.PACKAGE) if n.endswith(".py"))
    assert [line.split()[0] for line in lines[1:-1]] == names
    total = lines[-1].split()
    assert total[0] == "total"
    assert int(total[1]) == sum(int(line.split()[1]) for line in lines[1:-1])
