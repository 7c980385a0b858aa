import pytest

from golden import corpus

CASES = corpus.load_cases()


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_output_matches_the_golden_corpus(case):
    # The corpus run in process through cli.main, warnings as errors; the
    # fresh-process mode is `python tests/golden/corpus.py --compare`.
    got = corpus.render(*corpus.run_in_process(case))
    assert corpus.compare(corpus.read_expected(case), got) == []
