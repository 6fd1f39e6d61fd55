"""build-vft worker: one fresh process that builds and verifies the corpus.

Run by ``run.py`` (``python3 perfbench/build_vft.py --seed N --seconds S``).
It imports the program, generates the corpus, prints ``ready`` (the end of
set-up), then takes every instance through ``BuildSession.build()`` and
``.verify()`` and prints one JSON document: per-instance timings, the
correctness gates, the process registry's counters and its own peak RSS.
With ``--setup-only`` it exits right after ``ready``; with ``--trace`` it
wraps the layer entry points first (see ``tracer.py``).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    common.require_sources()
    from repro.bounds.theoretical import theorem1_bound
    from repro.build import BuildSession
    from repro.obs.metrics import get_registry

    import inputs

    corpus = inputs.build_corpus(args.seed, args.seconds)
    spec = inputs.build_spec(inputs.BUILD_STRETCH, inputs.BUILD_FAULTS)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.SpanRecorder()
        tracer.install(recorder)

    instances = []
    for instance in corpus:
        graph = instance.graph
        session = BuildSession(graph, spec)
        started = time.perf_counter()
        result = session.build()
        built = time.perf_counter()
        report = session.verify(method="sampled",
                                samples=inputs.BUILD_VERIFY_SAMPLES,
                                rng=instance.verify_seed)
        verified = time.perf_counter()
        bound = theorem1_bound(graph.number_of_nodes(), spec.max_faults,
                               spec.stretch)
        instances.append({
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "build_s": built - started,
            "certify_s": verified - built,
            "spanner_edges": result.size,
            "theorem1_bound": bound,
            "verify_ok": bool(report.ok),
            "fault_sets_checked": report.fault_sets_checked,
            "within_bound": result.size <= bound,
        })

    document = {
        "instances": instances,
        "counters": get_registry().counters(include_sources=True),
        "peak_rss_mb": common.peak_rss_mb(),
        "trace": recorder.summary() if recorder is not None else None,
    }
    common.emit(document)
    return 0


if __name__ == "__main__":
    sys.exit(main())
