"""Independent computation of the bundled-corpus golden values.

Shares no code with the package: it reads the minicorpus and tokenizes it
itself (letter runs of length >= 2), records the tokens in the
``tokens.tsv`` format ``perfbench/oracle.py`` reads, and lets that oracle
remove stop words, stem by lookup in the frozen reference fixture and
compute every weight cell by cell from the defining formulas. The printed
key-term counts are frozen into the acceptance suite.

Run from the repository root:  python tools/golden_oracle.py
"""

import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import oracle  # noqa: E402

CORPUS = ROOT / "src" / "termsift" / "data" / "minicorpus"
THRESHOLDS = {"tfidf": 0.028, "tfdf": 0.01, "tf2": 0.005}


def main() -> None:
    record = []
    for path in sorted(CORPUS.rglob("*.txt")):
        tokens = [t for t in re.findall(r"[a-z]+", path.read_text().lower()) if len(t) >= 2]
        record.append(f"{path.parent.name}/{path.name}\t{path.parent.name}\t{' '.join(tokens)}")
    with tempfile.TemporaryDirectory(prefix="golden-oracle-") as tmp:
        tokens_path = Path(tmp) / "tokens.tsv"
        tokens_path.write_text("\n".join(record) + "\n", encoding="utf-8")
        exp = oracle.expected(tokens_path, THRESHOLDS)

    print(f"documents = {exp.stats['documents']}")
    print(f"vocabulary = {len(exp.vocabulary)}")
    for s in oracle.SCHEMES:
        removed = sorted(set(exp.vocabulary) - exp.key_terms[s])
        print(f"kd_{s} = {len(exp.key_terms[s])}  removed: {removed}")
    print(f"kd_joint = {len(exp.key_terms['joint'])}")


if __name__ == "__main__":
    main()
