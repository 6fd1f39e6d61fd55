"""Command-line interface.

Installed as ``repro-spanner`` (see ``pyproject.toml``) and runnable as
``python -m repro``.  Subcommands:

* ``build``       — build a spanner of a graph file with any registered
  algorithm (``--algorithm``, over the full :mod:`repro.build` registry) and
  write it back out, printing a summary;
* ``verify``      — check the spanner / FT-spanner property of a subgraph file
  against an original graph file;
* ``experiment``  — run one of the registered experiments (E1..E10) and print
  its result table;
* ``lower-bound`` — generate a BDPW lower-bound instance and write it to a
  file;
* ``generate``    — generate a workload graph to a file;
* ``serve``       — load (or build) a spanner snapshot and replay a synthetic
  query workload through the batched query engine, reporting throughput and
  cache statistics;
* ``daemon``      — run the persistent serving daemon (:mod:`repro.serve`):
  an asyncio HTTP + WebSocket API over the snapshot with cross-client batch
  coalescing, live ``/v1/update`` ingestion when the snapshot carries its
  original graph, and ``/health`` + ``/metrics`` endpoints;
* ``query``       — answer a single fault-tolerant distance query against a
  snapshot or graph file;
* ``update``      — apply an update journal to a snapshot through the
  incremental maintainer (:mod:`repro.dynamic`), optionally certifying the
  maintained spanner and writing the refreshed snapshot back out;
* ``replay``      — deterministically replay an update journal onto a graph
  file, optionally cross-checking incremental maintenance against a
  from-scratch rebuild at the final graph;
* ``stats``       — render a metrics snapshot saved by ``--metrics-json`` /
  ``REPRO_METRICS`` as a table, Prometheus text, or JSON.

``build``, ``verify``, ``serve``, ``query``, and ``update`` all accept
``--trace PATH`` (JSONL span trace, or the ``REPRO_TRACE`` environment
variable) and ``--metrics-json PATH`` (schema-stable metrics snapshot, or
``REPRO_METRICS``) — see :mod:`repro.obs`.

Update journals are the JSON documents of :mod:`repro.dynamic.updates`.

All graph files are the edge-list / JSON formats of :mod:`repro.graph.io`
(chosen by extension via :func:`repro.graph.io.load_graph_auto`); spanner
snapshots are the JSON documents of :mod:`repro.engine.snapshot`.

``build``, ``serve``, and ``query`` share one set of construction options
translated by :func:`spec_from_args` into a single
:class:`~repro.build.spec.BuildSpec`, so construction defaults cannot drift
between subcommands.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from repro.bounds.lower_bound import bdpw_lower_bound_instance
from repro.build import (
    ALGORITHMS,
    BuildSession,
    BuildSpec,
    available_algorithms,
    get_algorithm,
)
from repro.engine.engine import QueryEngine
from repro.engine.snapshot import SpannerSnapshot
from repro.engine.workload import (
    fault_churn_sessions,
    split_batches,
    uniform_workload,
    zipf_workload,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.workloads import WORKLOADS, get_workload
from repro.graph.io import load_graph_auto, parse_node, save_graph_auto
from repro.obs.export import (
    METRICS_ENV_VAR,
    load_metrics_json,
    render_metrics_table,
    render_prometheus,
    write_metrics_json,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import TRACE_ENV_VAR, get_tracer
from repro.graph.products import relabel_product_nodes
from repro.serve.core import EngineCore
from repro.serve.protocol import (
    RequestError,
    dispatch_sync,
    from_wire_distance,
)
from repro.spanners.verify import STRETCH_TOLERANCE, is_ft_spanner, stretch_of
from repro.utils.logging import configure_cli_logging, get_logger
from repro.utils.tables import Table

_LOGGER = get_logger("cli")


# --------------------------------------------------------------------------
# Build-spec plumbing shared by build / serve / query
# --------------------------------------------------------------------------

def _parse_param(pair: str):
    """One ``--param KEY=VALUE`` entry; values parse as JSON, else string."""
    key, separator, value = pair.partition("=")
    if not separator or not key.strip():
        raise ValueError(f"--param expects KEY=VALUE, got {pair!r}")
    try:
        return key.strip(), json.loads(value)
    except json.JSONDecodeError:
        return key.strip(), value.strip()


def spec_from_args(args: argparse.Namespace) -> BuildSpec:
    """Translate the shared construction options into one :class:`BuildSpec`.

    This is the *only* place CLI options become construction parameters, so
    defaults cannot drift between ``build``, ``serve``, and ``query``.
    ``--algorithm auto`` keeps the historical behaviour: ``ft-greedy`` when
    a fault budget is given, the plain ``greedy`` spanner otherwise.  An
    unset ``--fault-model`` resolves to the algorithm's native model, so
    e.g. ``--algorithm peeling-union`` needs no extra flag.
    """
    algorithm = args.algorithm
    if algorithm == "auto":
        algorithm = "ft-greedy" if args.faults > 0 else "greedy"
    entry = get_algorithm(algorithm)
    params = dict(_parse_param(pair) for pair in (args.param or []))
    # ``--param oracle=NAME`` round-trips into the spec's oracle slot (the
    # explicit --oracle flag wins when both are given); validation against
    # the algorithm's supported oracles happens in validate_spec.
    oracle = args.oracle
    if oracle is None and "oracle" in params:
        oracle = params.pop("oracle")
    return BuildSpec(
        algorithm=algorithm,
        stretch=args.stretch,
        max_faults=args.faults,
        fault_model=args.fault_model or entry.default_fault_model,
        oracle=oracle,
        # Deterministic constructions record no seed, so the spec carried in
        # a snapshot never suggests spurious randomness (serve's workload
        # --seed in particular is not a construction parameter).
        seed=(getattr(args, "seed", None)
              if entry.capabilities.randomized else None),
        workers=getattr(args, "workers", 1),
        backend=getattr(args, "backend", None),
        kernel=getattr(args, "kernel", None),
        params=params,
    )


# --------------------------------------------------------------------------
# Subcommand implementations
# --------------------------------------------------------------------------

def _cmd_build(args: argparse.Namespace) -> int:
    graph = load_graph_auto(args.input)
    spec = spec_from_args(args)
    session = BuildSession(graph, spec)
    result = session.build()
    print(f"input: n={graph.number_of_nodes()} m={graph.number_of_edges()}")
    print(f"spanner: {result.algorithm} k={spec.stretch} f={spec.max_faults} "
          f"({spec.fault_model}) -> {result.size} edges "
          f"({result.compression_ratio:.1%} of input) "
          f"in {result.construction_seconds:.2f}s")
    if args.output:
        save_graph_auto(result.spanner, args.output)
        print(f"wrote spanner to {args.output}")
    if args.save_snapshot:
        session.save_snapshot(args.save_snapshot)
        print(f"wrote snapshot to {args.save_snapshot}")
    return 0


def _verify_report_table(args: argparse.Namespace, *, mode: str, checked,
                         worst: float, ok: bool, witness=None) -> Table:
    """One-row result table shared by the text and ``--json`` verify output."""
    table = Table(
        columns=["fault_model", "max_faults", "mode", "fault_sets_checked",
                 "worst_stretch", "required_stretch", "ok", "witness"],
        title="repro-spanner verify",
    )
    table.add_row({
        "fault_model": args.fault_model if args.faults > 0 else None,
        "max_faults": args.faults,
        "mode": mode,
        "fault_sets_checked": checked,
        "worst_stretch": worst,
        "required_stretch": args.stretch,
        "ok": ok,
        # `is not None`: the empty fault set is a legitimate witness (the
        # subgraph fails the plain stretch bound) and must not read as
        # "no witness recorded".
        "witness": sorted(witness, key=repr) if witness is not None else None,
    })
    return table


def _cmd_verify(args: argparse.Namespace) -> int:
    original = load_graph_auto(args.original)
    subgraph = load_graph_auto(args.subgraph)
    if args.faults > 0:
        report = is_ft_spanner(original, subgraph, args.stretch, args.faults,
                               fault_model=args.fault_model, method=args.method,
                               samples=args.samples, rng=args.seed,
                               workers=args.workers, backend=args.backend,
                               kernel=args.kernel)
        table = _verify_report_table(
            args, mode="exhaustive" if report.exhaustive else "sampled",
            checked=report.fault_sets_checked, worst=report.worst_stretch,
            ok=report.ok, witness=report.violating_fault_set)
        if args.json:
            print(json.dumps({"command": "verify", "original": args.original,
                              "subgraph": args.subgraph, "seed": args.seed,
                              "workers": args.workers, "verdict": report.ok,
                              **table.to_json()}, indent=2))
            return 0 if report.ok else 1
        print(f"fault model: {report.fault_model}, f={report.max_faults}, "
              f"checked {report.fault_sets_checked} fault sets "
              f"({'exhaustive' if report.exhaustive else 'sampled'}, "
              f"{args.workers} worker(s))")
        print(f"worst stretch observed: {report.worst_stretch:.4f} "
              f"(required <= {args.stretch})")
        print("VERDICT:", "OK" if report.ok else "VIOLATED")
        return 0 if report.ok else 1
    worst = stretch_of(original, subgraph, workers=args.workers,
                       backend=args.backend, kernel=args.kernel)
    ok = worst <= args.stretch * (1.0 + STRETCH_TOLERANCE)
    if args.json:
        table = _verify_report_table(args, mode="stretch", checked=None,
                                     worst=worst, ok=ok)
        print(json.dumps({"command": "verify", "original": args.original,
                          "subgraph": args.subgraph, "seed": args.seed,
                          "workers": args.workers, "verdict": ok,
                          **table.to_json()}, indent=2))
        return 0 if ok else 1
    print(f"stretch: {worst:.4f} (required <= {args.stretch})")
    print("VERDICT:", "OK" if ok else "VIOLATED")
    return 0 if ok else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.ident.lower() == "all":
        idents = sorted(EXPERIMENTS)
    else:
        idents = [args.ident]
    documents = []
    for ident in idents:
        table = run_experiment(ident, scale=args.scale, rng=args.seed,
                               workers=args.workers)
        if args.json:
            documents.append({"experiment": ident.upper(), "scale": args.scale,
                              "seed": args.seed, **table.to_json()})
        else:
            print()
            print(table.to_markdown() if args.markdown else table.to_ascii())
        if args.csv_dir:
            out = Path(args.csv_dir) / f"{ident.lower()}.csv"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(table.to_csv(), encoding="utf-8")
            if not args.json:
                print(f"[wrote {out}]")
    if args.json:
        print(json.dumps(documents if len(documents) != 1 else documents[0],
                         indent=2))
    return 0


def _cmd_lower_bound(args: argparse.Namespace) -> int:
    instance = bdpw_lower_bound_instance(args.faults, args.stretch,
                                         base_nodes=args.base_nodes, rng=args.seed)
    graph, _mapping = relabel_product_nodes(instance.graph)
    print(f"BDPW blow-up: base={instance.base.name} copies={instance.copies} "
          f"n={instance.nodes} m={instance.edges}")
    if args.output:
        save_graph_auto(graph, args.output)
        print(f"wrote instance to {args.output}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    graph = workload.instantiate(args.seed)
    print(f"{workload.name}: n={graph.number_of_nodes()} m={graph.number_of_edges()}")
    save_graph_auto(graph, args.output)
    print(f"wrote graph to {args.output}")
    return 0


def _resolve_snapshot(args: argparse.Namespace) -> SpannerSnapshot:
    """Load a snapshot file, or build one from a graph file (serve/query).

    Builds go through the same :func:`spec_from_args` translator as the
    ``build`` subcommand, and the resulting snapshot records its
    :class:`BuildSpec` so it can later rebuild itself.
    """
    if SpannerSnapshot.is_snapshot_file(args.input):
        return SpannerSnapshot.load(args.input)
    graph = load_graph_auto(args.input)
    return BuildSession(graph, spec_from_args(args)).snapshot()


def _wire_query(query) -> list:
    """One workload query (``Query`` object or triple) in wire form."""
    if hasattr(query, "source"):
        source, target = query.source, query.target
        faults = getattr(query, "faults", ())
    else:
        source, target, *rest = query
        faults = rest[0] if rest else ()
    return [source, target,
            [list(fault) if isinstance(fault, tuple) else fault
             for fault in faults]]


def _parse_fault_spec(spec: str, fault_model: str) -> tuple:
    """Parse ``--faults``: comma-separated nodes, or ``u:v`` pairs for edges."""
    if not spec:
        return ()
    faults = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if fault_model == "edge":
            endpoints = token.split(":")
            if len(endpoints) != 2:
                raise ValueError(
                    f"edge fault {token!r} must be 'u:v' (colon-separated endpoints)"
                )
            faults.append((parse_node(endpoints[0]), parse_node(endpoints[1])))
        else:
            faults.append(parse_node(token))
    return tuple(faults)


def _cmd_serve(args: argparse.Namespace) -> int:
    snapshot = _resolve_snapshot(args)
    if args.save_snapshot:
        snapshot.save(args.save_snapshot)
    engine = QueryEngine(snapshot, cache_size=args.cache_size,
                         kernel=args.kernel)
    query_faults = (snapshot.max_faults if args.query_faults is None
                    else args.query_faults)
    if args.workload == "uniform":
        queries = uniform_workload(snapshot.spanner, args.queries,
                                   max_faults=query_faults,
                                   fault_model=snapshot.fault_model,
                                   rng=args.seed)
    elif args.workload == "zipf":
        queries = zipf_workload(snapshot.spanner, args.queries,
                                skew=args.zipf_skew, max_faults=query_faults,
                                fault_pool=args.fault_pool,
                                fault_model=snapshot.fault_model,
                                rng=args.seed)
    else:  # churn
        per_session = max(1, args.queries // max(1, args.sessions))
        queries = fault_churn_sessions(snapshot.spanner, args.sessions,
                                       per_session, max_faults=query_faults,
                                       fault_model=snapshot.fault_model,
                                       rng=args.seed)
    # The workload replays through the daemon's own request-schema/dispatch
    # code (a degenerate zero-width coalescing window), so the one-shot
    # surface and the persistent daemon cannot drift apart.
    core = EngineCore(engine, window_seconds=0.0)
    started = time.perf_counter()
    reachable = 0
    for batch in split_batches(queries, args.batch_size):
        document = dispatch_sync(
            core, "distances_batch", {"queries": [_wire_query(q) for q in batch]})
        reachable += sum(1 for value in document["distances"]
                         if value is not None)
    elapsed = time.perf_counter() - started
    stats = core.stats()
    report = {
        "workload": {"shape": args.workload, "queries": len(queries),
                     "batch_size": args.batch_size,
                     "query_faults": query_faults, "seed": args.seed},
        "reachable_fraction": reachable / len(queries) if queries else 0.0,
        "wall_seconds": elapsed,
        "throughput_qps": len(queries) / elapsed if elapsed > 0 else 0.0,
        **stats,
    }
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    info = stats["snapshot"]
    print(f"snapshot: {info['algorithm']} k={info['stretch']} "
          f"f={info['max_faults']} ({info['fault_model']}) "
          f"n={info['nodes']} m={info['edges']}")
    if args.save_snapshot:
        print(f"wrote snapshot to {args.save_snapshot}")
    print(f"workload: {args.workload}, {len(queries)} queries "
          f"(batch size {args.batch_size}, up to {query_faults} faults/query)")
    cache = stats["cache"]
    print(f"served {stats['queries_served']} queries in {elapsed:.3f}s "
          f"-> {report['throughput_qps']:,.0f} queries/s")
    print(f"kernel calls: {stats['kernel_calls']} "
          f"({stats['kernel_calls_saved']} saved by batching+caching); "
          f"cache hit rate {cache['hit_rate']:.1%} "
          f"({cache['hits']} hits, {cache['evictions']} evictions)")
    print(f"reachable: {report['reachable_fraction']:.1%} of queries")
    return 0


def _daemon_core(args: argparse.Namespace, snapshot: SpannerSnapshot):
    """The protocol core the daemon serves: live when possible, else frozen.

    A snapshot carrying its original graph resumes incremental maintenance
    (:class:`~repro.dynamic.live.LiveEngine` behind the core's write path,
    ``/v1/update`` enabled); one without serves read-only through a plain
    :class:`QueryEngine` and answers 409 on updates.
    """
    window_seconds = max(0.0, args.window_ms) / 1000.0
    if snapshot.original is not None:
        from repro.dynamic.live import LiveEngine
        from repro.dynamic.maintain import DynamicSpanner

        spec = _maintainer_spec(args, snapshot)
        maintainer = DynamicSpanner.from_snapshot(snapshot, spec=spec)
        engine = LiveEngine(maintainer, cache_size=args.cache_size)
    else:
        engine = QueryEngine(snapshot, cache_size=args.cache_size,
                             kernel=args.kernel)
    return EngineCore(engine, window_seconds=window_seconds,
                      max_batch=args.max_batch)


def _cmd_daemon(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.daemon import ServingDaemon

    if not SpannerSnapshot.is_snapshot_file(args.input):
        # Graph-file input: no recorded spec to reconcile against, so the
        # sentinels resolve to the shared defaults before the build.
        _resolve_spec_sentinels(args)
    snapshot = _resolve_snapshot(args)
    core = _daemon_core(args, snapshot)
    daemon = ServingDaemon(core, host=args.host, port=args.port,
                           queue_limit=args.queue_limit,
                           drain_grace_seconds=args.drain_grace)

    async def _serve() -> None:
        await daemon.start()
        info = snapshot.describe()
        mode = ("live, /v1/update enabled" if core.writable
                else "frozen snapshot, read-only")
        # The "listening" line is the startup contract: smoke tests and
        # process supervisors parse it to learn the bound (ephemeral) port.
        print(f"daemon listening on http://{daemon.host}:{daemon.port}",
              flush=True)
        print(f"serving: {info['algorithm']} k={info['stretch']} "
              f"f={info['max_faults']} ({info['fault_model']}) "
              f"n={info['nodes']} m={info['edges']} [{mode}]; "
              f"coalescing window {args.window_ms:g}ms "
              f"(max batch {args.max_batch}), "
              f"queue limit {args.queue_limit}", flush=True)
        await daemon.run()

    asyncio.run(_serve())
    print("daemon drained cleanly")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    snapshot = _resolve_snapshot(args)
    engine = QueryEngine(snapshot, cache_size=0, kernel=args.kernel)
    core = EngineCore(engine, window_seconds=0.0)
    source = parse_node(args.source)
    target = parse_node(args.target)
    faults = _parse_fault_spec(args.faults_spec, snapshot.fault_model)
    # Both answers come through the daemon's verb dispatch, so the JSON
    # shapes here are exactly the /v1/distance and /v1/stretch_audit bodies.
    payload = {"source": source, "target": target,
               "faults": [list(f) if isinstance(f, tuple) else f
                          for f in faults]}
    document = dispatch_sync(core, "distance", payload)
    distance = from_wire_distance(document["distance"])
    audit = None
    if args.audit:
        try:
            audit = dispatch_sync(core, "stretch_audit", payload)["audit"]
        except RequestError as error:
            _LOGGER.error("%s", error)
            return 2
    if args.json:
        document["fault_model"] = snapshot.fault_model
        if audit is not None:
            document["audit"] = audit
        print(json.dumps(document, indent=2))
        if audit is not None:
            return 0 if audit["ok"] else 1
    else:
        shown = "unreachable" if math.isinf(distance) else f"{distance:.6g}"
        print(f"dist_{{H \\ F}}({source}, {target}) = {shown} "
              f"({len(faults)} {snapshot.fault_model} fault(s))")
        if audit is not None:
            original = from_wire_distance(audit["original_distance"])
            base = ("unreachable" if math.isinf(original)
                    else f"{original:.6g}")
            print(f"original: {base}; "
                  f"stretch {from_wire_distance(audit['stretch']):.4f} "
                  f"(required <= {audit['required_stretch']}"
                  f"{'' if audit['within_budget'] else ', fault set over budget'}) "
                  f"-> {'OK' if audit['ok'] else 'VIOLATED'}")
            return 0 if audit["ok"] else 1
    return 0


def _resolve_spec_sentinels(args: argparse.Namespace) -> None:
    """Fill the update verb's unset-sentinels with the shared defaults.

    Needed wherever the sentinel-parsing ``update`` verb hands its args to
    :func:`spec_from_args` (which expects the regular defaults).
    """
    for name, default in (("algorithm", "auto"), ("stretch", 3.0),
                          ("faults", 0), ("workers", 1), ("param", [])):
        if getattr(args, name) is None:
            setattr(args, name, default)


def _maintainer_spec(args: argparse.Namespace,
                     snapshot: SpannerSnapshot) -> BuildSpec:
    """The spec a maintenance verb runs under: recorded beats re-derived.

    A snapshot built through the registry knows its own spec — trusting it
    keeps ``update`` faithful to however the spanner was actually built;
    bare-graph snapshots fall back to the shared CLI translator.
    Construction options that *conflict* with the recorded contract are an
    error rather than silently dropped (changing ``k``/``f`` means a
    different spanner — rebuild from the graph file for that); the
    execution knobs (``--workers``/``--backend``) are not part of the
    contract and always win, so certification can shard.
    """
    recorded = snapshot.build_spec
    if recorded is None:
        _resolve_spec_sentinels(args)
        return spec_from_args(args)
    # The update verb parses these flags with None sentinels (see
    # build_parser), so an *explicitly passed* value — even one equal to the
    # usual default — is visible here and must match the recorded contract.
    # ``--algorithm auto`` defers to the snapshot by definition.
    requested = [
        ("--algorithm",
         None if args.algorithm == "auto" else args.algorithm,
         recorded.algorithm),
        ("--stretch", args.stretch, recorded.stretch),
        ("--faults", args.faults, recorded.max_faults),
        ("--fault-model", args.fault_model, recorded.fault_model),
        ("--oracle", args.oracle, recorded.oracle),
    ]
    conflicts = [f"{flag} {value}" for flag, value, kept in requested
                 if value is not None and value != kept]
    for pair in args.param or []:
        key, value = _parse_param(pair)
        if key not in recorded.params or recorded.params[key] != value:
            conflicts.append(f"--param {pair}")
    if conflicts:
        raise ValueError(
            f"snapshot records its build spec ({recorded.summary()}); "
            f"conflicting option(s) {', '.join(conflicts)} would change the "
            f"maintained contract — rebuild from the graph file instead")
    overrides = {}
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.kernel is not None:
        overrides["kernel"] = args.kernel
    return recorded.replace(**overrides) if overrides else recorded


def _cmd_update(args: argparse.Namespace) -> int:
    from repro.dynamic import DynamicSpanner, UpdateJournal

    if not SpannerSnapshot.is_snapshot_file(args.input):
        # Graph-file input: there is no recorded spec to reconcile against,
        # so resolve the sentinels up front for the build in _resolve_snapshot
        # (the resulting snapshot then records exactly that spec).
        _resolve_spec_sentinels(args)
    snapshot = _resolve_snapshot(args)
    journal = UpdateJournal.load(args.journal)
    spec = _maintainer_spec(args, snapshot)
    maintainer = DynamicSpanner.from_snapshot(snapshot, spec=spec)
    edges_before = maintainer.spanner.number_of_edges()
    maintainer.apply_journal(journal)
    stats = maintainer.stats()
    record = None
    if args.certify:
        record = maintainer.certify(method=args.method, samples=args.samples,
                                    rng=args.seed)
    if args.save_snapshot:
        SpannerSnapshot(
            spanner=maintainer.spanner,
            stretch=spec.stretch,
            max_faults=spec.max_faults,
            fault_model=maintainer.model.name,
            algorithm=f"{spec.algorithm}[dynamic]",
            original=maintainer.graph,
            metadata={"build_spec": spec.to_json(),
                      "updates_applied": maintainer.updates_applied},
        ).save(args.save_snapshot)
    if args.output:
        save_graph_auto(maintainer.spanner, args.output)
    if args.json:
        report = {"command": "update", "input": args.input,
                  "journal": args.journal, "edges_before": edges_before,
                  **stats}
        if record is not None:
            report["certified"] = {
                "ok": record.ok,
                "exhaustive": record.report.exhaustive,
                "fault_sets_checked": record.report.fault_sets_checked,
                "worst_stretch": record.report.worst_stretch,
            }
        print(json.dumps(report, indent=2))
        return 0 if record is None or record.ok else 1
    counts = stats["update_counts"]
    print(f"journal: {len(journal)} updates "
          f"(+{counts['insert']} -{counts['delete']} ~{counts['reweight']})")
    print(f"graph: n={stats['graph_nodes']} m={stats['graph_edges']}; "
          f"spanner: {edges_before} -> {stats['spanner_edges']} edges")
    print(f"maintenance: {stats['incremental_accepts']} accepts, "
          f"{stats['repairs']} repairs re-adding {stats['repair_edges_added']} "
          f"edge(s), {stats['dirty_candidates_checked']} dirty candidates "
          f"checked ({stats['dirty_selectivity']:.1%} of pool) "
          f"in {stats['maintenance_seconds']:.3f}s")
    if args.save_snapshot:
        print(f"wrote snapshot to {args.save_snapshot}")
    if args.output:
        print(f"wrote spanner to {args.output}")
    if record is not None:
        report = record.report
        print(f"certified over {report.fault_sets_checked} fault sets "
              f"({'exhaustive' if report.exhaustive else 'sampled'}): "
              f"worst stretch {report.worst_stretch:.4f} "
              f"(required <= {spec.stretch})")
        print("VERDICT:", "OK" if record.ok else "VIOLATED")
        return 0 if record.ok else 1
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.build import build
    from repro.dynamic import DynamicSpanner, UpdateJournal

    graph = load_graph_auto(args.input)
    journal = UpdateJournal.load(args.journal)
    final = journal.replay(graph)
    counts = journal.counts()
    document = {
        "command": "replay", "input": args.input, "journal": args.journal,
        "updates": len(journal), "update_counts": counts,
        "before": {"nodes": graph.number_of_nodes(),
                   "edges": graph.number_of_edges()},
        "after": {"nodes": final.number_of_nodes(),
                  "edges": final.number_of_edges()},
    }
    if not args.json:
        print(f"journal: {len(journal)} updates "
              f"(+{counts['insert']} -{counts['delete']} ~{counts['reweight']})")
        print(f"replayed: n={graph.number_of_nodes()} "
              f"m={graph.number_of_edges()} -> n={final.number_of_nodes()} "
              f"m={final.number_of_edges()}")
    if args.output:
        save_graph_auto(final, args.output)
        if not args.json:
            print(f"wrote final graph to {args.output}")
    ok = True
    if args.check:
        # The property anchor, from the command line: maintaining through
        # the journal and rebuilding at the final graph must both certify,
        # and the size gap is the documented online-vs-offline factor.
        spec = spec_from_args(args)
        maintained = DynamicSpanner(graph.copy(), spec)
        maintained.apply_journal(journal)
        maintained_record = maintained.certify(
            method=args.method, samples=args.samples, rng=args.seed)
        rebuilt = build(final, spec)
        rebuilt_report = is_ft_spanner(
            final, rebuilt.spanner, spec.stretch, spec.max_faults,
            maintained.model.name, method=args.method, samples=args.samples,
            rng=args.seed, workers=spec.workers, backend=spec.backend,
            kernel=spec.kernel)
        ratio = (maintained.spanner.number_of_edges()
                 / max(1, rebuilt.spanner.number_of_edges()))
        ok = maintained_record.ok and rebuilt_report.ok
        document["check"] = {
            "spec": spec.to_json(),
            "maintained_edges": maintained.spanner.number_of_edges(),
            "rebuilt_edges": rebuilt.spanner.number_of_edges(),
            "size_ratio": ratio,
            "maintained_ok": maintained_record.ok,
            "rebuilt_ok": rebuilt_report.ok,
            "exhaustive": maintained_record.report.exhaustive,
        }
        if not args.json:
            print(f"check ({spec.summary()}): maintained "
                  f"{maintained.spanner.number_of_edges()} edges vs rebuilt "
                  f"{rebuilt.spanner.number_of_edges()} edges "
                  f"(ratio {ratio:.2f})")
            print(f"maintained: "
                  f"{'OK' if maintained_record.ok else 'VIOLATED'}; rebuilt: "
                  f"{'OK' if rebuilt_report.ok else 'VIOLATED'} "
                  f"({'exhaustive' if maintained_record.report.exhaustive else 'sampled'})")
    if args.json:
        print(json.dumps(document, indent=2))
    return 0 if ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    document = load_metrics_json(args.metrics)
    snapshot = document["metrics"]
    if args.format == "json":
        print(json.dumps(document, indent=2))
    elif args.format == "prometheus":
        print(render_prometheus(snapshot), end="")
    else:
        print(render_metrics_table(snapshot).to_ascii())
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.paths import describe_kernel_backends

    print("algorithms:")
    for name in available_algorithms():
        entry = ALGORITHMS[name]
        print(f"  {name:16s} [{entry.capabilities.describe()}] "
              f"{entry.description}")
        if entry.capabilities.supported_oracles:
            print(f"  {'':16s} oracles: "
                  f"{', '.join(entry.capabilities.supported_oracles)}")
    print("\nkernels:")
    for row in describe_kernel_backends():
        status = "" if row["available"] else " (unavailable)"
        print(f"  {row['name']:16s} {row['description']}{status}")
    print("\nexperiments:")
    for ident, spec in sorted(EXPERIMENTS.items()):
        print(f"  {ident:4s} {spec.title} — {spec.claim}")
    print("\nworkloads:")
    for name, workload in sorted(WORKLOADS.items()):
        print(f"  {name:18s} {workload.description}")
    return 0


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-spanner",
        description="Fault tolerant spanners: constructions, verification, experiments.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_options(command: argparse.ArgumentParser, *,
                         seed: bool = True) -> None:
        """Construction options shared by build/serve/query — one translator
        (:func:`spec_from_args`) turns them into a :class:`BuildSpec`, so
        defaults cannot drift between the subcommands."""
        command.add_argument("--algorithm", "-a", default="auto",
                             choices=["auto"] + available_algorithms(),
                             help="construction to run (auto: ft-greedy when "
                                  "--faults > 0, else greedy)")
        command.add_argument("--stretch", "-k", type=float, default=3.0)
        command.add_argument("--faults", "-f", type=int, default=0,
                             help="fault budget of the construction")
        command.add_argument("--fault-model", choices=["vertex", "edge"],
                             default=None,
                             help="default: the algorithm's native model")
        command.add_argument("--oracle", default=None,
                             choices=["branch-and-bound", "tiered",
                                      "exhaustive", "greedy-path-packing"],
                             help="fault-check oracle (default: tiered)")
        command.add_argument("--param", "-P", action="append", default=[],
                             metavar="KEY=VALUE",
                             help="algorithm-specific parameter (repeatable; "
                                  "values parsed as JSON, e.g. "
                                  "-P samples=40)")
        command.add_argument("--workers", type=int, default=1,
                             help="shard the construction's fault checks "
                                  "over this many worker processes "
                                  "(parallelizable algorithms only; spanner "
                                  "and witnesses are byte-identical)")
        command.add_argument("--backend", choices=["auto", "serial", "process"],
                             default=None, help="execution backend")
        command.add_argument("--kernel", default=None,
                             help="distance-kernel backend: 'loop', 'numpy', "
                                  "or 'auto' (default: auto — numpy on "
                                  "graphs of >= 100k nodes when available, "
                                  "and for served reads from 500 nodes; "
                                  "answers are byte-identical either way)")
        if seed:
            command.add_argument("--seed", type=int, default=None,
                                 help="seed for randomized constructions")

    def add_obs_options(command: argparse.ArgumentParser) -> None:
        """Observability outputs shared by the run-something verbs; the
        flags beat the environment variables, which beat "off"."""
        command.add_argument("--trace", default=None, metavar="PATH",
                             help="write a JSONL span trace of this run here "
                                  f"(default: ${TRACE_ENV_VAR})")
        command.add_argument("--metrics-json", default=None, metavar="PATH",
                             help="write this run's metrics snapshot here as "
                                  f"JSON (default: ${METRICS_ENV_VAR}); "
                                  "render it with 'repro-spanner stats'")

    build = sub.add_parser("build", help="build a (fault tolerant) spanner of a graph file")
    build.add_argument("input", help="input graph (.json or edge list)")
    build.add_argument("--output", "-o", help="where to write the spanner")
    add_spec_options(build)
    build.add_argument("--save-snapshot",
                       help="also write a serving snapshot (records the "
                            "build spec for later rebuilds)")
    add_obs_options(build)
    build.set_defaults(func=_cmd_build)

    verify = sub.add_parser("verify", help="verify the (FT) spanner property")
    verify.add_argument("original", help="original graph file")
    verify.add_argument("subgraph", help="candidate spanner file")
    verify.add_argument("--stretch", "-k", type=float, default=3.0)
    verify.add_argument("--faults", "-f", type=int, default=0)
    verify.add_argument("--fault-model", choices=["vertex", "edge"], default="vertex")
    verify.add_argument("--method", choices=["auto", "exhaustive", "sampled"], default="auto")
    verify.add_argument("--samples", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--workers", type=int, default=1,
                        help="shard the verification sweep over this many "
                             "worker processes (results are bit-identical)")
    verify.add_argument("--backend", choices=["auto", "serial", "process"],
                        default="auto",
                        help="execution backend (auto: process pool when "
                             "--workers > 1)")
    verify.add_argument("--kernel", default=None,
                        help="distance-kernel backend ('loop', 'numpy', "
                             "'auto'); results are byte-identical")
    verify.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    add_obs_options(verify)
    verify.set_defaults(func=_cmd_verify)

    experiment = sub.add_parser("experiment", help="run a registered experiment (E1..E10)")
    experiment.add_argument("ident", help="experiment id (E1..E10) or 'all'")
    experiment.add_argument("--scale", choices=["quick", "full"], default="quick")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--workers", type=int, default=1,
                            help="shard verification-heavy experiments (E8/E9) "
                                 "over this many worker processes")
    experiment.add_argument("--markdown", action="store_true", help="emit markdown tables")
    experiment.add_argument("--json", action="store_true",
                            help="emit machine-readable JSON instead of tables")
    experiment.add_argument("--csv-dir", help="also write each table as CSV into this directory")
    experiment.set_defaults(func=_cmd_experiment)

    lower = sub.add_parser("lower-bound", help="generate a BDPW lower-bound instance")
    lower.add_argument("--faults", "-f", type=int, required=True)
    lower.add_argument("--stretch", "-k", type=float, default=3.0)
    lower.add_argument("--base-nodes", type=int, default=14)
    lower.add_argument("--seed", type=int, default=0)
    lower.add_argument("--output", "-o", help="where to write the instance")
    lower.set_defaults(func=_cmd_lower_bound)

    generate = sub.add_parser("generate", help="generate a named workload graph")
    generate.add_argument("workload", choices=sorted(WORKLOADS))
    generate.add_argument("output", help="output file (.json or edge list)")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=_cmd_generate)

    serve = sub.add_parser(
        "serve",
        help="replay a synthetic query workload through the batched engine")
    serve.add_argument("input", help="snapshot JSON, or a graph file to build from")
    add_spec_options(serve, seed=False)  # serve's own --seed doubles as spec seed
    serve.add_argument("--save-snapshot", help="write the (built) snapshot here")
    serve.add_argument("--workload", choices=["uniform", "zipf", "churn"],
                       default="zipf")
    serve.add_argument("--queries", "-n", type=int, default=2000)
    serve.add_argument("--batch-size", type=int, default=64)
    serve.add_argument("--query-faults", type=int, default=None,
                       help="max faults per query (default: the snapshot's f)")
    serve.add_argument("--zipf-skew", type=float, default=1.1)
    serve.add_argument("--fault-pool", type=int, default=8,
                       help="number of concurrent fault sets in the zipf workload")
    serve.add_argument("--sessions", type=int, default=20,
                       help="number of sessions for the churn workload")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="LRU capacity in (source, faults) vectors; 0 disables")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--json", action="store_true",
                       help="emit the serving report as JSON")
    add_obs_options(serve)
    serve.set_defaults(func=_cmd_serve)

    daemon = sub.add_parser(
        "daemon",
        help="run the persistent serving daemon (HTTP + WebSocket API over "
             "the snapshot, with cross-client batch coalescing)")
    daemon.add_argument("input",
                        help="snapshot JSON, or a graph file to build from")
    add_spec_options(daemon)
    # Same unset-sentinels as the update verb: a snapshot's recorded build
    # spec wins, and explicitly conflicting construction flags are an error
    # (see _maintainer_spec).
    daemon.set_defaults(algorithm=None, stretch=None, faults=None,
                        oracle=None, workers=None, backend=None, param=None)
    daemon.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: loopback only)")
    daemon.add_argument("--port", type=int, default=8350,
                        help="TCP port; 0 picks an ephemeral port (printed "
                             "on the 'listening' line)")
    daemon.add_argument("--window-ms", type=float, default=2.0,
                        help="cross-client coalescing window in milliseconds; "
                             "0 disables coalescing (answers are identical "
                             "either way)")
    daemon.add_argument("--max-batch", type=int, default=512,
                        help="flush the window early once this many queries "
                             "are pending")
    daemon.add_argument("--queue-limit", type=int, default=256,
                        help="max in-flight requests before new ones are "
                             "answered 429")
    daemon.add_argument("--drain-grace", type=float, default=10.0,
                        help="seconds SIGTERM waits for in-flight work "
                             "before force-closing connections")
    daemon.add_argument("--cache-size", type=int, default=256,
                        help="LRU capacity in (source, faults) vectors; "
                             "0 disables")
    add_obs_options(daemon)
    daemon.set_defaults(func=_cmd_daemon)

    query = sub.add_parser(
        "query", help="answer one fault-tolerant distance query")
    query.add_argument("input", help="snapshot JSON, or a graph file to build from")
    add_spec_options(query)
    query.add_argument("--source", "-s", required=True)
    query.add_argument("--target", "-t", required=True)
    query.add_argument("--faults-spec", "-F", default="", metavar="FAULTS",
                       help="comma-separated failed nodes, or u:v pairs for "
                            "edge faults (e.g. '3,17' or '3:5,2:9')")
    query.add_argument("--audit", action="store_true",
                       help="also compare against the original graph "
                            "(snapshot must carry it)")
    query.add_argument("--json", action="store_true")
    add_obs_options(query)
    query.set_defaults(func=_cmd_query)

    update = sub.add_parser(
        "update",
        help="apply an update journal through the incremental maintainer")
    update.add_argument("input", help="snapshot JSON, or a graph file to build from")
    add_spec_options(update)
    # Unset-sentinels (parser-level defaults override the argument-level
    # ones): the update verb must tell "flag not given" apart from "flag
    # given at its usual default" to reconcile explicit options against a
    # snapshot's recorded build spec — see _maintainer_spec.
    update.set_defaults(algorithm=None, stretch=None, faults=None,
                        oracle=None, workers=None, backend=None, param=None)
    update.add_argument("--journal", "-j", required=True,
                        help="update journal JSON (see repro.dynamic.updates)")
    update.add_argument("--save-snapshot",
                        help="write the maintained snapshot here")
    update.add_argument("--output", "-o",
                        help="also write the maintained spanner graph here")
    update.add_argument("--certify", action="store_true",
                        help="run is_ft_spanner over the maintained spanner "
                             "(exit code reflects the verdict)")
    update.add_argument("--method", choices=["auto", "exhaustive", "sampled"],
                        default="auto")
    update.add_argument("--samples", type=int, default=100,
                        help="fault sets per sampled certification")
    update.add_argument("--json", action="store_true",
                        help="emit the maintenance report as JSON")
    add_obs_options(update)
    update.set_defaults(func=_cmd_update)

    replay = sub.add_parser(
        "replay",
        help="deterministically replay an update journal onto a graph file")
    replay.add_argument("input", help="base graph (.json or edge list)")
    add_spec_options(replay)
    replay.add_argument("--journal", "-j", required=True,
                        help="update journal JSON (see repro.dynamic.updates)")
    replay.add_argument("--output", "-o", help="where to write the final graph")
    replay.add_argument("--check", action="store_true",
                        help="also maintain a spanner through the journal and "
                             "certify it against a from-scratch rebuild at "
                             "the final graph")
    replay.add_argument("--method", choices=["auto", "exhaustive", "sampled"],
                        default="auto")
    replay.add_argument("--samples", type=int, default=100,
                        help="fault sets per sampled certification")
    replay.add_argument("--json", action="store_true",
                        help="emit the replay report as JSON")
    replay.set_defaults(func=_cmd_replay)

    stats = sub.add_parser(
        "stats",
        help="render a metrics snapshot saved by --metrics-json")
    stats.add_argument("metrics",
                       help="metrics JSON written by --metrics-json or "
                            f"${METRICS_ENV_VAR}")
    stats.add_argument("--format", choices=["table", "prometheus", "json"],
                       default="table",
                       help="rendering (default: human-readable table)")
    stats.set_defaults(func=_cmd_stats)

    lister = sub.add_parser(
        "list", help="list algorithms, experiments, and workloads")
    lister.set_defaults(func=_cmd_list)

    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_cli_logging(verbose=args.verbose)
    # Only verbs that declare the observability flags honour the env vars:
    # `stats` and `list` never trace themselves.
    trace_path = (args.trace or os.environ.get(TRACE_ENV_VAR)
                  if hasattr(args, "trace") else None)
    metrics_path = (args.metrics_json or os.environ.get(METRICS_ENV_VAR)
                    if hasattr(args, "metrics_json") else None)
    tracer = get_tracer()
    try:
        if trace_path:
            tracer.configure(trace_path)
        code = args.func(args)
        if metrics_path:
            write_metrics_json(metrics_path, get_registry(),
                               meta={"command": args.command,
                                     "exit_code": code})
        return code
    except (ValueError, OSError) as error:
        _LOGGER.error("%s", error)
        return 2
    finally:
        tracer.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
