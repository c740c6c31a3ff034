import json

import pytest

from golden_cli import GOLDEN_PATH, run_corpus

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def corpus():
    return run_corpus()


def test_corpus_covers_the_same_cases(corpus):
    assert sorted(corpus) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(corpus, name):
    assert corpus[name] == GOLDEN[name]
