"""Throughput of the Porter stemmer.

Stems the bundled reference vocabulary (~24k words) repeatedly and reports
the best pass in milliseconds and words/second.

Run from the repository root:  python benchmarks/bench_stemmer.py [repeats]
"""

import sys
import time
from pathlib import Path

from termsift import porter

VOC = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "porter" / "voc.txt"


def main():
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    words = VOC.read_text().split()
    print(f"{len(words)} words, best of {repeats} passes\n")

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for w in words:
            porter.stem(w)
        best = min(best, time.perf_counter() - start)
    print(f"{best * 1000:8.1f} ms/pass  {len(words) / best / 1000:8.0f} kwords/s")


if __name__ == "__main__":
    main()
