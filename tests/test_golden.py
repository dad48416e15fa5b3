"""Golden trajectories: every case in ``tests/golden/corpus.py`` hashes as
recorded in ``tests/golden/hashes.txt``."""

from golden import corpus


def test_golden_trajectories_are_unchanged():
    recorded_env, expected = corpus.load()
    assert recorded_env == corpus.environment(), (
        f"golden hashes were recorded under '{recorded_env}' but this is "
        f"'{corpus.environment()}'; regenerate them on this stack with "
        "`PYTHONPATH=src python tests/golden/corpus.py` and check the diff")
    got = corpus.compute()
    assert sorted(got) == sorted(expected), "the case matrix changed; regenerate hashes.txt"
    changed = [case for case in expected if got[case] != expected[case]]
    assert not changed, f"{len(changed)} of {len(expected)} golden cases changed: {changed}"
