"""Per-layer wrappers around the program's public calls, and the metrics
derived from the spans they record.

:class:`LayerProbe` installs :class:`~tracing.Tracer` wrappers around the
calls into each layer of the COMPI reproduction and removes them again.
Nothing under ``src/`` is edited: the wrappers replace class and module
attributes for the duration of a traced unit of work.

``METRICS`` is the metric → layer → end-to-end metric → workload map:
which end-to-end number each per-layer metric should move, and where.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Optional

import tracing
from tracing import Span

#: Communicator calls that block the calling rank until peers take part
BLOCKING_COMM_CALLS = (
    "Recv", "Sendrecv", "Probe", "Barrier", "Bcast", "Reduce", "Allreduce",
    "Scan", "Gather", "Allgather", "Scatter", "Gatherv", "Scatterv",
    "Reduce_scatter", "Exscan", "Alltoall", "Split", "Dup")

#: name -> (unit, layer, end-to-end metric it should move, workloads)
METRICS: dict[str, tuple[str, str, str, str]] = {
    "instrument.setup_s": ("s", "instrument", "setup_s", "all"),
    "instrument.probe_overhead_x": (
        "x", "instrument", "execs_per_s",
        "demo-logged (probe-bound negation loops); less on hpl-serial"),
    "mpi.job_s": ("s", "mpi", "execs_per_s",
                  "demo-logged (short 8-rank restarts); little on hpl-serial"),
    "mpi.job_overhead_s": ("s", "mpi", "execs_per_s",
                           "demo-logged; little on hpl-serial"),
    "mpi.rank_threads": ("count", "mpi", "execs_per_s", "demo-logged"),
    "mpi.payload_copies": ("count", "mpi", "execs_per_s",
                           "hpl-serial; about zero on demo-logged"),
    "mpi.payload_copy_s": ("s", "mpi", "execs_per_s",
                           "hpl-serial; about zero on demo-logged"),
    "mpi.blocked_s": ("s", "mpi", "execs_per_s", "hpl-serial"),
    "mpi.rank_compute_s": ("s", "mpi", "execs_per_s", "hpl-serial"),
    "mpi.stragglers": ("count", "mpi", "fail_ratio", "all campaigns"),
    "mpi.timeouts": ("count", "mpi", "fail_ratio", "all campaigns"),
    "concolic.serialize_s": ("s", "concolic", "execs_per_s",
                             "hpl-serial; less on demo-logged"),
    "concolic.serialize_calls": ("count", "concolic", "execs_per_s",
                                 "hpl-serial; less on demo-logged"),
    "concolic.harvest_s": ("s", "concolic", "execs_per_s", "all campaigns"),
    "concolic.events_per_exec": ("count", "concolic", "execs_per_s",
                                 "hpl-serial (count base of serialize_*)"),
    "scheduler.advance_s": ("s", "scheduler", "execs_per_s",
                            "hpl-serial, demo-logged"),
    "scheduler.advance_p95_ms": ("ms", "scheduler", "execs_per_s",
                                 "hpl-serial, demo-logged"),
    "scheduler.advance_calls": ("count", "scheduler", "execs_per_s",
                                "hpl-serial, demo-logged"),
    "scheduler.speculate_s": ("s", "scheduler", "execs_per_s",
                              "hpl-workers2"),
    "solver.solve_s": ("s", "solver", "execs_per_s", "all campaigns"),
    "solver.solves": ("count", "solver", "execs_per_s", "all campaigns"),
    "solver.sat_ratio": ("ratio", "solver", "execs_per_s", "all campaigns"),
    "solver.cache_hit_ratio": ("ratio", "solver", "execs_per_s",
                               "all campaigns"),
    "executor.wait_s": ("s", "executor", "execs_per_s", "hpl-workers2"),
    "executor.submit_s": ("s", "executor", "execs_per_s", "hpl-workers2"),
    "executor.first_result_s": ("s", "executor", "execs_per_s",
                                "hpl-workers2"),
    "engine.spec_hit_ratio": ("ratio", "executor", "execs_per_s",
                              "hpl-workers2"),
    "engine.spec_refills": ("count", "executor", "execs_per_s",
                            "hpl-workers2"),
    "engine.avg_inflight": ("count", "executor", "execs_per_s",
                            "hpl-workers2"),
    "collector.commit_s": ("s", "collector", "execs_per_s", "all campaigns"),
    "persist.log_write_s": ("s", "persist", "execs_per_s",
                            "demo-logged; zero on hpl-*"),
    "persist.fsyncs": ("count", "persist", "execs_per_s",
                       "demo-logged; zero on hpl-*"),
    "persist.checkpoint_s": ("s", "persist", "execs_per_s",
                             "demo-logged; zero on hpl-*"),
    "persist.checkpoint_bytes": ("bytes", "persist", "execs_per_s",
                                 "demo-logged; zero on hpl-*"),
    "fleet.shard_campaign_s": ("s", "fleet", "shards_per_min", "fleet-warm"),
    "fleet.dispatch_gap_s": ("s", "fleet", "shards_per_min", "fleet-warm"),
    "fleet.manifest_write_s": ("s", "fleet", "shards_per_min", "fleet-warm"),
    "fleet.manifest_records": ("count", "fleet", "shards_per_min",
                               "fleet-warm"),
    "fleet.daemon_spawn_s": ("s", "fleet", "setup_s, shards_per_min",
                             "fleet-warm"),
    "fleet.merge_s": ("s", "fleet", "shards_per_min", "fleet-warm"),
    "fleet.overhead_x": ("x", "fleet", "shards_per_min", "fleet-warm"),
    "fleet.failed_attempts": ("count", "fleet", "fail_ratio", "fleet-warm"),
    # bookkeeping: what the spans leave uncovered, and what they cost
    "engine.other_s": ("s", "bookkeeping", "-",
                       "main-thread campaign wall no layer span covers"),
    "trace.layer_share": ("ratio", "bookkeeping", "-",
                          "share of main-thread campaign wall in layer "
                          "spans (>= 0.95 on demo-logged, hpl-serial)"),
    "trace.overhead_ratio": ("ratio", "bookkeeping", "-",
                             "traced / untraced throughput"),
}

FLEET_ONLY = tuple(n for n, m in METRICS.items() if m[1] == "fleet")
#: per-layer metrics only a traced campaign reports
CAMPAIGN_ONLY = tuple(n for n in METRICS if n not in FLEET_ONLY
                      and n != "trace.overhead_ratio")


class LayerProbe:
    """Installs span wrappers around every layer's entry points.

    Use one probe as a context manager around one unit of traced work;
    the wrappers are removed on exit.  Side records that spans cannot carry
    (rank elapsed times, checkpoint sizes, fsync counts, solver verdicts)
    are gathered here, keyed by span where they belong to one.
    """

    def __init__(self, tracer: tracing.Tracer):
        self.tracer = tracer
        #: (job span id, size, per-rank elapsed list, stragglers, timed out)
        self.jobs: list[tuple[int, int, list[float], int, bool]] = []
        self.checkpoint_bytes: list[int] = []
        #: fsync calls keyed by the layer of the span that made them
        self.fsyncs: dict[str, int] = {}
        self.solver_models = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, name: str,
               after: Optional[Callable] = None, cause: bool = False) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else \
            getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.tracer.wrap(name, raw.__func__,
                                                   after=after))
        else:
            wrapped = self.tracer.wrap(name, raw, after=after, cause=cause)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _patch_async(self, owner: Any, attr: str, name: str) -> None:
        raw = owner.__dict__[attr]
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, self.tracer.wrap_async(name, raw))

    def __enter__(self) -> "LayerProbe":
        from repro.concolic.trace import HeavySink, LightSink
        from repro.core import compi, persist, runner
        from repro.engine import collector, engine, executor, scheduler
        from repro.fleet import manifest, pool
        from repro.mpi import comm
        from repro.solver import incremental

        p = self._patch
        p(engine.CampaignEngine, "run", "engine.run",
          after=lambda *_: setattr(self.tracer, "iteration", None))
        # executor: PendingRun.result is where the main thread waits for
        # (inline: performs) an execution
        p(executor._LazyPending, "result", "executor.result")
        p(executor._PoolPending, "result", "executor.result")
        p(executor.InlineExecutor, "submit_batch", "executor.submit")
        p(executor.ParallelExecutor, "submit_batch", "executor.submit")
        # mpi: the job on the main thread, blocking calls and payload
        # copies on the rank threads it starts
        p(runner, "run_job", "mpi.job", after=self._after_job, cause=True)
        p(comm, "copy_payload", "mpi.copy")
        for call in BLOCKING_COMM_CALLS:
            p(comm.Communicator, call, "mpi.comm")
        # concolic: harvest of the sinks after the job
        p(LightSink, "flush", "concolic.flush")
        p(LightSink, "serialize", "concolic.serialize")
        p(HeavySink, "serialize", "concolic.serialize")
        p(HeavySink, "result", "concolic.result")
        p(runner, "merge_all", "concolic.merge")
        # scheduler + solver
        for call in ("observe", "advance", "speculate", "note_schedule"):
            p(scheduler.Scheduler, call, f"scheduler.{call}")
        p(incremental.SolveSession, "solve", "solver.solve",
          after=self._after_solve)
        p(incremental.SolveSession, "solve_at", "solver.solve",
          after=self._after_solve)
        # collector + persistence
        p(collector.Collector, "absorb", "collector.absorb")
        p(collector.Collector, "build_record", "collector.build_record")
        p(collector.Collector, "record", "collector.record",
          after=self._after_record)
        for call in ("write_meta", "write_iteration", "write_bug",
                     "write_quarantine", "write_supervision",
                     "write_portfolio", "write_cov_delta", "write_solver",
                     "write_coverage", "sync"):
            p(persist.CampaignLog, call, "persist.log")
        p(compi.Compi, "_write_checkpoint", "persist.checkpoint",
          after=self._after_checkpoint)
        # fleet: manifest ledger and daemon spawns
        for call in ("create", "shard_start", "shard_done", "shard_fail",
                     "shard_quarantine", "pool_spawn", "pool_exit",
                     "pool_breaker"):
            p(manifest.FleetManifest, call, "fleet.manifest")
        self._patch_async(pool.WarmPool, "_spawn", "fleet.spawn")
        # each fsync is also counted against the layer of its caller
        p(os, "fsync", "fsync", after=self._after_fsync)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # ------------------------------------------------------------------
    def _after_job(self, result, args, kwargs, span: Span) -> None:
        self.jobs.append((span.sid, result.size,
                          [o.elapsed for o in result.outcomes],
                          result.stragglers, result.timed_out))

    def _after_solve(self, result, args, kwargs, span: Span) -> None:
        if result is not None:
            self.solver_models += 1

    def _after_record(self, result, args, kwargs, span: Span) -> None:
        self.tracer.iteration = args[1].iteration + 1

    def _after_checkpoint(self, result, args, kwargs, span: Span) -> None:
        from repro.core.persist import checkpoint_path
        self.checkpoint_bytes.append(
            os.path.getsize(checkpoint_path(args[1])))

    def _after_fsync(self, result, args, kwargs, span: Span) -> None:
        by_id = self.tracer.current()
        layer = by_id[1].split(".", 1)[0] if by_id else "none"
        self.fsyncs[layer] = self.fsyncs.get(layer, 0) + 1


# ----------------------------------------------------------------------
# metrics of one traced unit


def _sum(spans: list[Span], name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def campaign_metrics(probe: LayerProbe, spans: list[Span], result: Any,
                     engine: Any, main_thread: int) -> dict[str, float]:
    """Per-layer metrics of one traced campaign (``spans`` are the spans
    it recorded, ``result``/``engine`` its CampaignResult and engine)."""
    main = [s for s in spans if s.thread == main_thread]
    ranks = [s for s in spans if s.thread != main_thread]
    roots = [s for s in main if s.name == "engine.run"]
    if len(roots) != 1:
        raise RuntimeError(f"expected one engine.run span, got {len(roots)}")
    root = roots[0]
    own = tracing.self_times(main)
    wall = root.duration
    other = own[root.sid]
    layer_self: dict[str, float] = {}
    for s in main:
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + own[s.sid]

    jobs = probe.jobs
    job_span = {s.sid: s for s in main if s.name == "mpi.job"}
    rank_own = tracing.self_times(ranks)
    rank_top = tracing.top_level(ranks)
    elapsed_total = sum(sum(j[2]) for j in jobs)

    advances = [s for s in main if s.name == "scheduler.advance"]
    submits = [s for s in main if s.name == "executor.submit"]
    results = [s for s in main if s.name == "executor.result"]
    solves = [s for s in main if s.name == "solver.solve"]
    parallel = engine.executor.parallel
    decided = engine.speculation_hits + engine.speculation_squashes
    stats = result.solver
    n_exec = max(1, len(result.iterations))

    return {
        "mpi.job_s": _sum(main, "mpi.job"),
        "mpi.job_overhead_s": sum(job_span[j[0]].duration - max(j[2])
                                  for j in jobs),
        "mpi.rank_threads": sum(j[1] for j in jobs),
        "mpi.payload_copies": sum(1 for s in ranks if s.name == "mpi.copy"),
        "mpi.payload_copy_s": _sum(ranks, "mpi.copy"),
        "mpi.blocked_s": sum(rank_own[s.sid] for s in ranks
                             if s.name == "mpi.comm"),
        "mpi.rank_compute_s": elapsed_total - sum(s.duration
                                                  for s in rank_top),
        "mpi.stragglers": sum(j[3] for j in jobs),
        "mpi.timeouts": sum(1 for j in jobs if j[4]),
        "concolic.serialize_s": _sum(main, "concolic.serialize"),
        "concolic.serialize_calls": sum(1 for s in main
                                        if s.name == "concolic.serialize"),
        "concolic.harvest_s": (_sum(main, "concolic.flush")
                               + _sum(main, "concolic.result")
                               + _sum(main, "concolic.merge")),
        "concolic.events_per_exec": sum(r.event_count
                                        for r in result.iterations) / n_exec,
        "scheduler.advance_s": sum(s.duration for s in advances),
        "scheduler.advance_calls": len(advances),
        "scheduler.speculate_s": _sum(main, "scheduler.speculate"),
        "solver.solve_s": sum(s.duration for s in solves),
        "solver.solves": len(solves),
        "solver.sat_ratio": (probe.solver_models / len(solves)
                             if solves else 0.0),
        "solver.cache_hit_ratio": stats.hit_rate if stats else 0.0,
        "executor.wait_s": sum(own[s.sid] for s in results),
        "executor.submit_s": sum(s.duration for s in submits),
        "executor.first_result_s": (results[0].end - submits[0].start
                                    if parallel and results and submits
                                    else 0.0),
        "engine.spec_hit_ratio": (engine.speculation_hits / decided
                                  if decided else 0.0),
        "engine.spec_refills": engine.speculation_refills,
        "engine.avg_inflight": engine.avg_inflight,
        "collector.commit_s": layer_self.get("collector", 0.0),
        "persist.log_write_s": _sum(main, "persist.log"),
        "persist.fsyncs": probe.fsyncs.get("persist", 0),
        "persist.checkpoint_s": _sum(main, "persist.checkpoint"),
        "persist.checkpoint_bytes": (
            sum(probe.checkpoint_bytes) / len(probe.checkpoint_bytes)
            if probe.checkpoint_bytes else 0.0),
        "engine.other_s": other,
        "trace.layer_share": (wall - other) / wall if wall > 0 else 0.0,
        # kept for the per-call tail, pooled across campaigns by the caller
        "_advance_ms": [s.duration * 1e3 for s in advances],
    }


def fleet_metrics(probe: LayerProbe, spans: list[Span]) -> dict[str, float]:
    """The span-derived part of one traced sweep's fleet metrics."""
    return {
        "fleet.manifest_write_s": _sum(spans, "fleet.manifest"),
        "fleet.manifest_records": sum(1 for s in spans
                                      if s.name == "fleet.manifest"),
        "fleet.daemon_spawn_s": _sum(spans, "fleet.spawn"),
    }
