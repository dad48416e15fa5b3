"""The mutant runner in ``tools/mutants.py``: each mutant applies, a known one
is killed, and a change the tests cannot see survives.  The full sweep takes
minutes and stays out of these tests."""

import importlib.util
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "mutants", os.path.join(os.path.dirname(HERE), "tools", "mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_has_its_own_name_and_a_snippet_found_once():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        text = (mutants.ROOT / m.path).read_text(encoding="utf-8")
        assert text.count(m.snippet) == 1, m.name
        assert m.snippet != m.replacement and m.reason, m.name


def test_a_snippet_found_twice_is_refused(tmp_path):
    (tmp_path / "f.py").write_text("x = 1\nx = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="2 times"):
        mutants.apply(mutants.Mutant("twice", "f.py", "x = 1", "x = 2", "-"), tmp_path)
    assert (tmp_path / "f.py").read_text(encoding="utf-8") == "x = 1\nx = 1\n"


def test_a_known_mutant_is_killed(capsys):
    assert mutants.main(["gd-params-unchecked", "--tests", "tests/test_solver.py"]) == 0
    assert capsys.readouterr().out.split()[:2] == ["gd-params-unchecked", "killed"]


def test_a_change_no_test_can_see_survives_and_a_timeout_kills():
    # A docstring word of the line counter: its tests pass on the copy, so a
    # killed mutant is the mutant's doing, not the copy's.
    unseen = mutants.Mutant("unseen", "tools/loc.py", "Line counts of", "Counts of", "-")
    assert mutants.run(unseen, ["tests/test_loc.py"])[0] == "survived"
    assert mutants.run(unseen, ["tests/test_loc.py"], timeout=0.01)[0] == "killed (timeout)"


def test_the_runner_own_tests_are_left_out_of_the_copy():
    # This file checks every listed snippet is in its file, so it fails on
    # any mutated copy; were it there, every mutant would read killed.
    gd_unchecked = next(m for m in mutants.MUTANTS if m.name == "gd-params-unchecked")
    with pytest.raises(RuntimeError, match="pytest exited 4"):  # file not found
        mutants.run(gd_unchecked, ["tests/test_mutants.py"])
