"""E8 — runtime of the fault-check oracles (the paper's open problem).

The paper notes the naive FT greedy implementation is exponential in ``f`` and
leaves a faster algorithm as an open question.  This experiment measures, on a
fixed instance and growing ``f``:

* the exhaustive oracle (only for the smallest ``f`` — its cost explodes),
* the exact branch-and-bound oracle (the search the default ``tiered``
  oracle falls through to — still exponential in ``f`` but with the
  short-path branching factor),
* the polynomial greedy path-packing heuristic,

reporting wall-clock construction time, the number of bounded-distance
queries, the resulting spanner size, and — because the heuristic is allowed to
be wrong — whether a sampled fault-tolerance check still passes.  This doubles
as the ablation of the oracle design choice called out in DESIGN.md §6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.experiments.workloads import get_workload
from repro.spanners.ft_greedy import ft_greedy_spanner
from repro.spanners.verify import is_ft_spanner
from repro.utils.rng import ensure_rng
from repro.utils.tables import Table


@dataclass
class Config:
    """Parameters of the E8 runtime study."""

    workload: str = "gnm-small-dense"
    stretch: float = 3.0
    fault_budgets: List[int] = field(default_factory=lambda: [1, 2, 3])
    #: Run the exhaustive oracle only for f values up to this limit.
    exhaustive_up_to: int = 1
    verify_samples: int = 20

    @classmethod
    def quick(cls) -> "Config":
        return cls()

    @classmethod
    def full(cls) -> "Config":
        return cls(workload="gnm-medium-dense",
                   fault_budgets=[1, 2, 3, 4],
                   exhaustive_up_to=1,
                   verify_samples=60)


def run(config: Optional[Config] = None, *, rng=0, workers: int = 1) -> Table:
    """Run E8 and return the result table.

    ``workers`` shards each trial's fault-tolerance check (the sampled
    ``is_ft_spanner`` sweep) across a process pool; the table is identical
    for any worker count.
    """
    config = config or Config.quick()
    source = ensure_rng(rng)
    graph = get_workload(config.workload).instantiate(source.spawn("graph"))
    table = Table(
        columns=["f", "oracle", "exact", "seconds", "distance_queries",
                 "spanner_edges", "ft_check"],
        title=f"E8: oracle runtime on {config.workload} (stretch={config.stretch})",
    )
    for f in config.fault_budgets:
        oracles = ["branch-and-bound", "greedy-path-packing"]
        if f <= config.exhaustive_up_to:
            oracles.insert(0, "exhaustive")
        for oracle_name in oracles:
            result = ft_greedy_spanner(graph, config.stretch, f,
                                       fault_model="vertex", oracle=oracle_name)
            report = is_ft_spanner(
                graph, result.spanner, config.stretch, f, fault_model="vertex",
                method="sampled", samples=config.verify_samples,
                rng=source.spawn("verify", f, oracle_name),
                workers=workers,
            )
            table.add_row({
                "f": f,
                "oracle": oracle_name,
                "exact": result.parameters.get("oracle_exact", True),
                "seconds": result.construction_seconds,
                "distance_queries": result.distance_queries,
                "spanner_edges": result.size,
                "ft_check": "ok" if report.ok else "VIOLATED",
            })
    return table
