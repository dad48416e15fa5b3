"""The line counter in ``tools/loc.py``: what it counts as code and as a statement."""

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


def test_statements_leave_out_docstrings_and_ignore_how_lines_are_joined():
    assert loc.statements(SAMPLE) == 5
    joined, split = "x = 1; y = 2\n", "x = 1\ny = 2\n"
    assert (loc.counts(joined)[1], loc.counts(split)[1]) == (1, 2)
    assert loc.statements(joined) == loc.statements(split) == 2


def test_every_module_of_the_package_is_counted(capsys):
    assert loc.main() == 0
    lines = capsys.readouterr().out.splitlines()
    names = sorted(n for n in os.listdir(loc.PACKAGE) if n.endswith(".py"))
    assert [line.split()[0] for line in lines[1:-1]] == names
    total = lines[-1].split()
    assert total[0] == "total"
    for column in (1, 2, 3):
        assert int(total[column]) == sum(int(line.split()[column]) for line in lines[1:-1])


def test_the_package_stays_within_its_line_budget(capsys):
    loc.main()
    code = int(capsys.readouterr().out.splitlines()[-1].split()[2])
    assert code <= loc.BUDGET, (f"{code} code lines in src/restartagd, over the "
                                f"{loc.BUDGET:,} of ROADMAP item 5: cut as many lines "
                                "as a change adds")
