"""End-to-end study: synthesize a corpus, mine it, run every experiment.

This is the paper's whole pipeline in one script: build the synthetic
GitHub/Libraries.io datasets and repositories, run the collection funnel
of Sec III.A, classify the studied projects into taxa, and print every
figure/table of the evaluation (Figs 4, 10-13 and the RQ summaries).

Run:  python examples/mine_corpus.py [--scale 0.25] [--seed 2019]

Scale 1.0 reproduces the paper's populations (195 studied projects) and
takes a couple of minutes; the default 0.25 finishes quickly.
"""

import argparse
import time

from repro.core import analyze_corpus
from repro.reporting import ExperimentSuite
from repro.synthesis import CorpusSpec, build_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--jobs", type=int, default=1,
                        help="concurrent per-project measurement")
    args = parser.parse_args()

    started = time.time()
    corpus = build_corpus(CorpusSpec(seed=args.seed, scale=args.scale))
    print(f"corpus built in {time.time() - started:.1f}s "
          f"({len(corpus.repos)} repositories)")

    started = time.time()
    report = corpus.run_funnel(jobs=args.jobs)
    print(f"funnel completed in {time.time() - started:.1f}s "
          f"({report.stats.cache.build_schema_calls} schema parses)\n")

    analysis = analyze_corpus(report.studied + report.rigid)
    print(ExperimentSuite(report, analysis).render_all())


if __name__ == "__main__":
    main()
