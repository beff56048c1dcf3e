import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from wn_fixture import build_wordnet_dir  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"

# ---------------------------------------------------------------------------
# Acceptance-criteria summary: every test class TestC<n>* in
# test_acceptance.py maps to one numbered criterion; the terminal summary
# prints one PASS/FAIL line per criterion.

ACCEPTANCE_CRITERIA = {
    1: "reference percentages kept verbatim; four paper errata pinned",
    2: "stemmer agrees with the full reference fixture in under 5s",
    3: "weights match a brute-force oracle on 200 randomized corpora",
    4: "algebraic identities of the weighting schemes hold",
    5: "selection is threshold-monotone and the joint set is contained",
    6: "lexical-category lookups against a database directory",
    7: "bundled-corpus end-to-end golden run",
    8: "pipeline logs its seven stages in order (stage 4 skippable)",
}
_acceptance_outcomes: dict[int, list[str]] = {}

_ACC_ID = re.compile(r"test_acceptance\.py::TestC(\d+)")


def pytest_runtest_logreport(report):
    m = _ACC_ID.search(report.nodeid)
    if not m:
        return
    n = int(m.group(1))
    if report.when == "call" or (report.when == "setup" and report.outcome == "failed"):
        if report.outcome != "skipped":
            _acceptance_outcomes.setdefault(n, []).append(report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for n, title in sorted(ACCEPTANCE_CRITERIA.items()):
        outcomes = _acceptance_outcomes.get(n)
        if not outcomes:
            status = "NOT RUN"
        elif all(o == "passed" for o in outcomes):
            status = "PASS"
        else:
            failed = sum(1 for o in outcomes if o != "passed")
            status = f"FAIL ({failed}/{len(outcomes)} checks failed)"
        terminalreporter.write_line(f"criterion {n}: {status} - {title}")


@pytest.fixture(scope="session", autouse=True)
def wordnet_cache_home(tmp_path_factory):
    """Point the WordNet cache at a per-session directory, never the real home."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(scope="session")
def wordnet_dir(tmp_path_factory) -> Path:
    return build_wordnet_dir(tmp_path_factory.mktemp("wordnet") / "db")


@pytest.fixture(scope="session")
def wordnet_db(wordnet_dir):
    from termsift.wordnet import load_wordnet

    return load_wordnet(wordnet_dir)


@pytest.fixture(scope="session")
def stopwords():
    from termsift.corpus import default_stopwords

    return default_stopwords()


@pytest.fixture(scope="session")
def minicorpus_dir() -> Path:
    path = Path(__file__).parent.parent / "src" / "termsift" / "data" / "minicorpus"
    assert path.is_dir(), "bundled mini corpus missing"
    return path


@pytest.fixture(scope="session")
def porter_fixture() -> list[tuple[str, str]]:
    voc = (FIXTURES / "porter" / "voc.txt").read_text().split()
    out = (FIXTURES / "porter" / "output.txt").read_text().split()
    assert len(voc) == len(out)
    return list(zip(voc, out))
