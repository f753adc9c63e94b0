"""The benchmark's four workloads and one unit of work of each.

A unit is one campaign at the workload's stated size (campaign
workloads) or one whole sweep (``fleet-warm``).  Every unit checks its
own outputs against the stored reference for its seed.

Why these workloads:

* ``demo-logged`` — many short 8-rank executions of the Fig. 2 demo
  with a crash-safe log and a checkpoint per iteration: rank-thread
  spawn and join, probes and persistence dominate; almost no payload
  traffic, tiny traces, no pool.
* ``hpl-serial`` — the HPL-like target, serial, no log: long paths,
  heavy Bcast/swap payloads, ~2 KB focus logs and solver work.  The
  bypass case for persistence and the executor.
* ``hpl-workers2`` — the same campaigns through the process-pool
  executor with 2 workers at the default speculation depth; the
  difference from ``hpl-serial`` isolates executor IPC and speculation.
* ``fleet-warm`` — a 16-shard sweep of small demo/seq_demo campaigns
  (two strategies x four seeds) on 2 warm ``workerd`` daemons:
  dispatch, the fsync'd manifest, per-shard logs, result publication
  and the merge.

The per-test watchdog is pinned in every campaign (``adaptive_timeout``
off, ``test_timeout`` at its 10 s ceiling): with the adaptive 2 s floor
a slow machine can turn HPL's ~0.9 s executions into "hangs" and change
the campaign's trajectory, and with it every number measured here.
IMB and SUSY are left out on purpose: the hang watchdog, not any layer,
sets their wall time.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import layers
import procs
import tracing

clock = time.perf_counter

#: fleet seed sets with a stored reference (set k sweeps seeds 4k..4k+3)
FLEET_SEED_SETS = 4

WATCHDOG = {"adaptive_timeout": False, "test_timeout": 10.0}


@dataclass
class Unit:
    """One measured unit of work and its check."""

    seed: int
    label: str
    setup_s: float
    #: wall time of the unit, and the same net of hypervisor CPU steal
    wall_s: float
    net_wall_s: float
    #: committed concolic iterations (all shards' for a sweep)
    execs: int
    #: shards completed (1 per campaign)
    shards: int
    #: operations attempted / failed (iterations, or shard attempts)
    attempted: int
    failed: int
    ok: bool
    detail: str
    #: executions that ran into the per-test watchdog
    watchdog_hits: int = 0
    instrument_s: float = 0.0
    #: what the reference stores for this unit
    observed: Any = None
    #: per-layer metrics (traced units only)
    layer: dict = field(default_factory=dict)
    #: peak resident memory of the unit, this process plus its children
    peak_rss_mb: float = 0.0

    @property
    def execs_per_s(self) -> float:
        return self.execs / self.net_wall_s

    @property
    def shards_per_min(self) -> float:
        return 60.0 * self.shards / self.net_wall_s


class _Workload:
    """What both kinds of workload share: the seed walk and tracing."""

    seeds: tuple[int, ...]

    def seed_for(self, base: int, index: int) -> int:
        return self.seeds[(base + index) % len(self.seeds)]

    def unit(self, seed: int, workdir: Path, expected: Any,
             tracer: Optional[tracing.Tracer] = None) -> Unit:
        """Run and check one unit; traced when a tracer is given."""
        if tracer is None:
            return self._unit(seed, workdir, expected, None)
        with layers.LayerProbe(tracer) as probe:
            return self._unit(seed, workdir, expected, probe)


# ----------------------------------------------------------------------
# campaign workloads


@dataclass(frozen=True)
class CampaignWorkload(_Workload):
    name: str
    target: str
    iterations: int
    #: campaign seeds with a stored reference.  A run starts at
    #: ``--seed`` modulo this table and walks it, so every run of about
    #: ``len(seeds)`` units measures the same campaigns in another order:
    #: per-seed differences in path depth do not show up as run-to-run
    #: spread.
    seeds: tuple[int, ...]
    workers: int = 1
    logged: bool = False

    @property
    def reference_key(self) -> str:
        return self.target

    def config(self, seed: int):
        from repro.core import CompiConfig
        return CompiConfig(seed=seed, workers=self.workers, **WATCHDOG)

    def prepare(self, workdir: Path) -> None:
        """Warm imports and lazy state before anything is timed: one
        short serial campaign (pool start-up stays in every measured
        campaign — users pay it each time)."""
        from repro.__main__ import load_target
        from repro.core import Compi
        program = load_target(self.target)
        try:
            with Compi(program, self.config(0)) as compi:
                compi.run(iterations=10)
        finally:
            program.unload()

    def _setup(self, seed: int):
        """The set-up: instrument the target, build the campaign."""
        from repro.__main__ import load_target
        from repro.core import Compi
        t0 = clock()
        program = load_target(self.target)
        t1 = clock()
        try:
            compi = Compi(program, self.config(seed))
        except BaseException:
            program.unload()
            raise
        return program, compi, t1 - t0, clock() - t0

    def setup_only(self, seed: int, workdir: Path) -> float:
        program, compi, _, setup_s = self._setup(seed)
        compi.close()
        program.unload()
        return setup_s

    def _unit(self, seed: int, workdir: Path, expected: Optional[dict],
              probe: Optional[layers.LayerProbe]) -> Unit:
        from repro.core.persist import CampaignLog, load_campaign

        mark = len(probe.tracer.spans) if probe is not None else 0
        log_path = workdir / f"{self.name}-{seed}.jsonl"
        program, compi, instrument_s, setup_s = self._setup(seed)
        try:
            if probe is not None:
                probe.tracer.iteration = 0
            t0 = clock()
            cpu0 = procs.cpu_times()
            if self.logged:
                with CampaignLog(log_path, mode="w") as log:
                    result = compi.run(iterations=self.iterations, log=log)
            else:
                result = compi.run(iterations=self.iterations)
            cpu1 = procs.cpu_times()
            wall = clock() - t0
        finally:
            compi.close()
            program.unload()

        observed = {
            "iterations": len(result.iterations),
            "branches": sorted([s, int(o)] for s, o in
                               result.coverage.branches),
            "bugs": sorted([k, loc] for k, loc in
                           {b.dedup_key for b in result.bugs}),
        }
        problems = []
        if expected is not None and observed != expected:
            problems.append(_diff(observed, expected))
        if self.logged:
            problems += _log_matches(load_campaign(log_path), result)
            for p in (log_path, log_path.with_name(log_path.name + ".ckpt")):
                p.unlink(missing_ok=True)
            shutil.rmtree(log_path.with_name(log_path.name + ".repro"),
                          ignore_errors=True)
        bad_iters = sum(1 for r in result.iterations
                        if r.degraded or r.retries or r.stragglers)
        n = len(result.iterations)
        ok = not problems
        unit = Unit(
            seed=seed, label=f"seed {seed}", setup_s=setup_s, wall_s=wall,
            net_wall_s=procs.net_wall(wall, cpu0, cpu1), execs=n,
            shards=1, attempted=n, failed=bad_iters if ok else n, ok=ok,
            detail="; ".join(problems) or (
                f"{n} iterations, {len(observed['branches'])} branches, "
                f"{len(observed['bugs'])} unique bugs"),
            watchdog_hits=sum(1 for r in result.iterations
                              if r.error_kind == "hang"),
            instrument_s=instrument_s, observed=observed)
        if probe is not None:
            unit.layer = layers.campaign_metrics(
                probe, probe.tracer.spans[mark:], result, compi.engine,
                threading.main_thread().ident)
        return unit

    def probe_overhead_x(self, budget_s: float = 1.5) -> float:
        """Instrumented ÷ uninstrumented run time of one fixed input:
        the target's declared defaults through ``TestRunner.run`` against
        the plain target module through ``run_spmd``, alternated, as the
        ratio of the two medians.  Measured by difference because
        wrapping millions of probe calls would time the wrapper."""
        from repro.__main__ import load_target
        from repro.core.conflicts import TestSetup
        from repro.core.runner import TestRunner
        from repro.core.testcase import TestCase, specs_from_module
        from repro.mpi import run_spmd

        program = load_target(self.target)
        try:
            cfg = self.config(0)
            specs = specs_from_module(program.modules[program.entry_module])
            inputs = {n: s.default for n, s in specs.items()}
            setup = TestSetup(nprocs=cfg.init_nprocs, focus=cfg.init_focus)
            tc = TestCase(inputs=inputs, setup=setup, origin="bench")
            runner = TestRunner(program, cfg)
            entry = getattr(importlib.import_module(program.entry_module),
                            program.entry_name)

            def plain(mpi):
                return entry(mpi, dict(inputs))

            inst, bare = [], []
            deadline = clock() + budget_s
            while len(inst) < 5 or (clock() < deadline and len(inst) < 50):
                t = clock()
                runner.run(tc, timeout=cfg.test_timeout)
                inst.append(clock() - t)
                t = clock()
                run_spmd(plain, setup.nprocs, timeout=cfg.test_timeout)
                bare.append(clock() - t)
        finally:
            program.unload()
        return tracing.percentile(inst, 50) / tracing.percentile(bare, 50)


def _diff(observed: dict, expected: dict) -> str:
    keys = [k for k in expected if observed.get(k) != expected[k]]
    return f"differs from the reference in {', '.join(keys)}"


def _log_matches(data: dict, result) -> list[str]:
    """The log re-read with ``load_campaign`` against the result held in
    memory: every iteration record, the covered branches and the bugs."""
    problems = []
    if [dataclasses.asdict(r) for r in data["iterations"]] != \
            [dataclasses.asdict(r) for r in result.iterations]:
        problems.append("logged iteration records differ from the result")
    if data["cov_branches"] != result.coverage.branches:
        problems.append("logged coverage differs from the result")
    if data["coverage"] is None:
        problems.append("log has no final coverage record")
    if sorted(b.dedup_key for b in data["bugs"]) != \
            sorted(b.dedup_key for b in result.bugs):
        problems.append("logged bugs differ from the result")
    return problems


# ----------------------------------------------------------------------
# the fleet workload


def fleet_spec(seed_set: int) -> dict:
    seeds = [4 * seed_set + k for k in range(4)]
    return {
        "fleet": f"perfbench-{seed_set}",
        "matrix": {"target": ["demo", "seq_demo"],
                   "strategy": ["two-phase", "random-branch"],
                   "seed": seeds},
        "shard": {"iterations": 8, "config": dict(WATCHDOG)},
        "failure": {"max_failures": 2, "backoff": 0.05, "jitter": 0.0},
        "pool": {"warm": 2},
        "workers": 2,
    }


@dataclass(frozen=True)
class FleetWorkload(_Workload):
    name: str = "fleet-warm"

    @property
    def reference_key(self) -> str:
        return "fleet"

    #: one sweep per seed set, walked like ``CampaignWorkload.seeds``
    seeds: tuple[int, ...] = tuple(range(FLEET_SEED_SETS))

    def _spec_path(self, workdir: Path, seed_set: int) -> Path:
        return workdir / f"fleet-spec-{seed_set}.json"

    def prepare(self, workdir: Path) -> None:
        """Write the spec files (they exist before a user's sweep starts)
        and warm this process's imports with one inline shard."""
        from repro.fleet import FleetSpec, fleet_paths
        from repro.fleet.worker import execute_shard
        for k in range(FLEET_SEED_SETS):
            self._spec_path(workdir, k).write_text(json.dumps(fleet_spec(k)))
        root = workdir / "fleet-warmup"
        fleet_paths(root).ensure()
        execute_shard(root, FleetSpec.from_dict(fleet_spec(0)).expand()[0])
        shutil.rmtree(root)

    def _setup(self, seed_set: int, workdir: Path):
        """The set-up: spec load and expansion, manifest creation and the
        scheduler, up to the first dispatch."""
        from repro.fleet import (FleetManifest, FleetScheduler, fleet_paths,
                                 load_spec, load_state)
        paths = fleet_paths(workdir / f"fleet-{seed_set}")
        shutil.rmtree(paths.root, ignore_errors=True)
        t0 = clock()
        spec = load_spec(self._spec_path(workdir, seed_set))
        manifest = FleetManifest.create(paths, spec)
        state = load_state(paths.root)
        scheduler = FleetScheduler(paths.root, state, manifest)
        return paths, manifest, state, scheduler, clock() - t0

    def setup_only(self, seed_set: int, workdir: Path) -> float:
        paths, manifest, _, _, setup_s = self._setup(seed_set, workdir)
        manifest.close()
        shutil.rmtree(paths.root)
        return setup_s

    def _unit(self, seed_set: int, workdir: Path, expected: Optional[str],
              probe: Optional[layers.LayerProbe]) -> Unit:
        from repro.core.atomicio import read_jsonl
        from repro.fleet import merge_results, report_text
        from repro.fleet.manifest import DONE

        mark = len(probe.tracer.spans) if probe is not None else 0
        paths, manifest, state, scheduler, setup_s = self._setup(
            seed_set, workdir)
        t1 = clock()
        cpu0 = procs.cpu_times()
        with manifest:
            scheduler.run()
        t2 = clock()
        report = merge_results(paths.root, state)
        text = report_text(report)
        cpu1 = procs.cpu_times()
        t3 = clock()

        shard_ids = state.shard_ids()
        done = sum(1 for sid in shard_ids
                   if state.shards[sid].status == DONE)
        attempts = sum(state.shards[sid].attempts for sid in shard_ids)
        failures = sum(state.shards[sid].failures for sid in shard_ids)
        problems = []
        if done != len(shard_ids):
            problems.append(f"{len(shard_ids) - done} shard(s) not done")
        if expected is not None and text != expected:
            problems.append("merged report differs from the reference")
        ok = not problems
        unit = Unit(
            seed=seed_set, label=f"seed set {seed_set}", setup_s=setup_s,
            wall_s=t3 - t1, net_wall_s=procs.net_wall(t3 - t1, cpu0, cpu1),
            execs=report.total_iterations, shards=done,
            attempted=attempts, failed=failures if ok else attempts, ok=ok,
            detail="; ".join(problems) or (
                f"{done} shards, {report.total_iterations} iterations, "
                f"{len(report.fleet_bugs)} fleet-wide bugs"),
            watchdog_hits=sum(1 for _, kind, _ in report.fleet_bugs
                              if kind == "hang"),
            observed=text)
        if probe is not None:
            walls = {sid: json.loads(paths.shard_result(sid).read_text())
                     ["wall_time"] for sid in shard_ids}
            span_of: dict[str, list[float]] = {}
            for rec in read_jsonl(paths.manifest):
                if rec.get("type") in ("shard-start", "shard-done"):
                    span_of.setdefault(rec["shard"], []).append(rec["ts"])
            unit.layer = {
                **layers.fleet_metrics(probe, probe.tracer.spans[mark:]),
                "fleet.shard_campaign_s": sum(walls.values()),
                "fleet.dispatch_gap_s": sum(
                    ts[-1] - ts[-2] - walls[sid]
                    for sid, ts in span_of.items()),
                "fleet.merge_s": t3 - t2,
                "fleet.failed_attempts": failures,
            }
        shutil.rmtree(paths.root, ignore_errors=True)
        return unit

    def inline_wall_s(self, seed_set: int, workdir: Path) -> float:
        """The same shards run one after another in this process through
        ``execute_shard``: no scheduler, no daemons, no manifest."""
        from repro.fleet import FleetSpec, fleet_paths
        from repro.fleet.worker import execute_shard
        root = workdir / "fleet-inline"
        fleet_paths(root).ensure()
        t0 = clock()
        for shard in FleetSpec.from_dict(fleet_spec(seed_set)).expand():
            execute_shard(root, shard)
        wall = clock() - t0
        shutil.rmtree(root)
        return wall


WORKLOADS = {
    "demo-logged": CampaignWorkload("demo-logged", "demo", iterations=100,
                                    seeds=tuple(range(8)), logged=True),
    "hpl-serial": CampaignWorkload("hpl-serial", "hpl", iterations=60,
                                   seeds=tuple(range(4))),
    "hpl-workers2": CampaignWorkload("hpl-workers2", "hpl", iterations=60,
                                     seeds=tuple(range(4)), workers=2),
    "fleet-warm": FleetWorkload(),
}
