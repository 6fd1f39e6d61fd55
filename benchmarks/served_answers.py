"""Print every answer a seeded serving replay gives, one ``repr`` per line.

Builds the ft-greedy k=3 f=1 spanner of a weighted G(600, 1800) for one
fault model (600 nodes is above the serving threshold of the ``auto``
kernel backend), then replays a seeded ``zipf_workload`` and a
``fault_churn_sessions`` workload through ``QueryEngine`` in batches of 64
and prints each answer with ``repr``.  Run it once per kernel in fresh
processes and compare the outputs byte for byte::

    PYTHONPATH=src python benchmarks/served_answers.py --fault-model vertex > auto.txt
    PYTHONPATH=src python benchmarks/served_answers.py --fault-model vertex --kernel loop > loop.txt
    cmp auto.txt loop.txt

A one-line summary (answers, fused sweeps, kernel) goes to stderr.
"""

import argparse
import sys

from repro.engine.engine import QueryEngine
from repro.engine.snapshot import SpannerSnapshot
from repro.engine.workload import fault_churn_sessions, split_batches, zipf_workload
from repro.graph import generators
from repro.spanners.ft_greedy import ft_greedy_spanner

NODES = 600
BATCH = 64


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fault-model", choices=("vertex", "edge"),
                        default="vertex")
    parser.add_argument("--kernel", default=None,
                        help="kernel backend (default: REPRO_KERNEL or auto)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    graph = generators.gnm(NODES, 3 * NODES, rng=args.seed, connected=True,
                           weighted=True)
    spanner = ft_greedy_spanner(graph, 3, 1, args.fault_model).spanner
    snapshot = SpannerSnapshot(spanner=spanner, stretch=3.0, max_faults=1,
                               fault_model=args.fault_model)
    queries = zipf_workload(spanner, 3000, max_faults=1, fault_pool=8,
                            fault_model=args.fault_model, rng=args.seed + 1)
    queries += fault_churn_sessions(spanner, 20, 50, max_faults=1,
                                    fault_model=args.fault_model,
                                    rng=args.seed + 2)
    engine = QueryEngine(snapshot, kernel=args.kernel)
    count = 0
    for batch in split_batches(queries, BATCH):
        for answer in engine.distances_batch(batch):
            print(repr(answer))
            count += 1
    print(f"served {count} answers, {engine.fused_sweeps} fused sweeps, "
          f"kernel {engine.kernel.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
