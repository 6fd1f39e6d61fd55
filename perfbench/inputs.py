"""Workload parameters and the seeded inputs each workload runs on.

Every input is a pure function of ``(seed, seconds)``: the program under test
receives only what these functions generate.  Sizes were picked so that one
run of each workload fits ``run_seconds`` on a 2-core machine while every
timing metric still aggregates many units of work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: build-vft: weighted connected G(n, m) with m = 5n under the paper's
#: setting.  n = 320 is just past the point where ``is_ft_spanner``'s
#: ``method="auto"`` stops enumerating (C(320, <=2) > 50,000 fault sets),
#: so the ``verify(method="sampled")`` the worker asks for explicitly is the
#: check a user gets at this size anyway.
BUILD_NODES = 320
BUILD_EDGES_PER_NODE = 5
BUILD_STRETCH = 5
BUILD_FAULTS = 2
#: Four sampled fault sets make one verify ~1.5 s: with two (~0.75 s) the
#: per-instance certify times spread twice as much as the build times.
BUILD_VERIFY_SAMPLES = 4
#: Instances per second of ``--seconds`` (eight in a 20 s run).  One build
#: takes 2-3 s on the reference machine and swings by +-20% with the host's
#: speed, so the per-instance medians need many instances.
BUILD_INSTANCES_PER_SECOND = 0.4

#: serve-zipf: read-only Zipf traffic against a k=3, f=1 vertex snapshot.
ZIPF_NODES = 1000
ZIPF_EDGES = 3000
ZIPF_SKEW = 1.1
ZIPF_FAULT_POOL = 8
#: The hot sources and the pool of failed fault sets are redrawn every
#: ZIPF_SEGMENT queries.  One pool of 8 held 2 to 6 distinct fault sets
#: depending on the seed, which alone moved read p50 from 13.7 to 17.3 ms;
#: a run now averages over a dozen or more draws.
ZIPF_SEGMENT = 1500
#: Requests in flight, spread over at most ZIPF_SESSIONS WebSocket sessions
#: (one client thread each, never more than nproc).
ZIPF_DEPTH = 16
ZIPF_SESSIONS = 2
ZIPF_QUERIES = 30_000

#: serve-churn: depth-1 reads beside single-op updates on a live snapshot.
#: On 500-node G(n, 3n) snapshots single repairs ran 10-790 ms and the update
#: p90 moved 145-297 ms across five seeds; at 200 nodes repairs stay within
#: ~160 ms and the p90 within 94-102 ms, so the tail is a steady measurement.
CHURN_NODES = 200
CHURN_EDGES = 600
CHURN_UPDATES_PER_SECOND = 22
CHURN_PAUSE_SECONDS = 0.02
CHURN_QUERIES = 20_000
CHURN_QUERY_FAULTS = 1
#: Fault sets in the sampled FT check of the replayed final spanner.
CHURN_CERTIFY_SAMPLES = 20

#: Served spanners use the same k/f/oracle on both serving workloads.
SERVE_STRETCH = 3
SERVE_FAULTS = 1

#: Answers checked against a local reference engine per serving run.
CHECKED_READS = 200


def _derive(seed: int, salt: int) -> int:
    """Independent sub-seed for one input stream of a run."""
    return (seed * 1_000_003 + salt * 7_919) % (2 ** 31 - 1)


def build_spec(stretch: int, faults: int):
    from repro.build import BuildSpec

    return BuildSpec("ft-greedy", stretch=stretch, max_faults=faults,
                     fault_model="vertex", oracle="tiered", workers=1,
                     backend="serial")


@dataclass
class BuildInstance:
    graph: object
    verify_seed: int


def build_corpus_size(seconds: int) -> int:
    return max(3, int(seconds * BUILD_INSTANCES_PER_SECOND))


def build_corpus(seed: int, seconds: int) -> List[BuildInstance]:
    """The build-vft corpus: same seed and seconds, same graphs."""
    from repro.graph import generators

    corpus = []
    for index in range(build_corpus_size(seconds)):
        graph = generators.gnm(
            BUILD_NODES, BUILD_NODES * BUILD_EDGES_PER_NODE,
            rng=_derive(seed, 10 + index), weighted=True, connected=True)
        corpus.append(BuildInstance(graph, _derive(seed, 500 + index)))
    return corpus


def serve_graph(seed: int, nodes: int, edges: int):
    from repro.graph import generators

    return generators.gnm(nodes, edges, rng=_derive(seed, 1), weighted=True,
                          connected=True)


def serve_snapshot(seed: int, nodes: int, edges: int, *, live: bool):
    """Build the served spanner; ``live`` keeps the original graph so the
    daemon runs the incremental maintainer behind ``/v1/update``."""
    from repro.build import BuildSession

    session = BuildSession(serve_graph(seed, nodes, edges),
                           build_spec(SERVE_STRETCH, SERVE_FAULTS))
    return session.snapshot(keep_original=live)


def zipf_sessions() -> int:
    import os

    return max(1, min(ZIPF_SESSIONS, os.cpu_count() or 1))


def zipf_queries(seed: int, spanner) -> list:
    from repro.engine.workload import zipf_workload

    queries = []
    for segment in range(ZIPF_QUERIES // ZIPF_SEGMENT):
        queries.extend(zipf_workload(
            spanner, ZIPF_SEGMENT, skew=ZIPF_SKEW, max_faults=SERVE_FAULTS,
            fault_pool=ZIPF_FAULT_POOL, fault_model="vertex",
            rng=_derive(seed, 100 + segment)))
    return queries


def churn_queries(seed: int, spanner, count: int = CHURN_QUERIES,
                  salt: int = 3) -> list:
    from repro.engine.workload import uniform_workload

    return uniform_workload(spanner, count, max_faults=CHURN_QUERY_FAULTS,
                            fault_model="vertex", rng=_derive(seed, salt))


def churn_update_count(seconds: int) -> int:
    return max(20, seconds * CHURN_UPDATES_PER_SECOND)


def churn_journal(seed: int, graph, seconds: int):
    from repro.dynamic.updates import random_journal

    return random_journal(graph, churn_update_count(seconds),
                          rng=_derive(seed, 4))


def churn_certify_seed(seed: int) -> int:
    return _derive(seed, 7)


def checked_indices(seed: int, population: int, count: int) -> List[int]:
    """Seeded subset of request indices whose answers are verified."""
    import random

    picker = random.Random(_derive(seed, 5))
    return sorted(picker.sample(range(population), min(count, population)))


def wire_query(query) -> Tuple[object, object, list]:
    """A workload ``Query`` as the ``(source, target, faults)`` wire triple."""
    return (query.source, query.target,
            [list(f) if isinstance(f, tuple) else f for f in query.faults])
