import json

import pytest

import golden

CORPUS = json.loads(golden.CORPUS.read_text())


def test_every_command_prints_the_corpus_bytes(tmp_path):
    if golden.foreign(CORPUS):
        pytest.skip(golden.foreign(CORPUS))
    commands = golden.commands(tmp_path)
    assert [label for label, _ in commands] == list(CORPUS["commands"]), \
        "the command list changed: record the corpus again with python3 tests/golden.py"
    for label, argv in commands:
        got = golden.run(argv, tmp_path)
        for key, want in CORPUS["commands"][label].items():
            if got[key] != want:
                a, b = str(got[key]).encode(), str(want).encode()
                at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
                pytest.fail(f"{label}: {key} differs at byte {at}: {a[at:at + 60]!r} here, "
                            f"{b[at:at + 60]!r} in the corpus")
