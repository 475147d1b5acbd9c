import json

import pytest

import golden

CORPUS = json.loads(golden.CORPUS.read_text())


def test_demos_found():
    assert len(golden.DEMOS) == 5


@pytest.mark.parametrize("demo", golden.DEMOS, ids=[d.stem for d in golden.DEMOS])
def test_demo_runs(demo):
    proc = golden.run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    if not golden.foreign(CORPUS):   # another version prints its own bytes
        assert proc.stdout == CORPUS["demos"][demo.stem]
    assert proc.stdout.strip()
