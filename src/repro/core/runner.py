"""Single-test execution: launch, collect, classify.

One COMPI iteration launches the target MPMD-style (heavy focus + light
others), waits (with the hang-detection timeout), then harvests:

* the focus rank's :class:`~repro.concolic.trace.TraceResult` (path,
  variables, mapping table) — what drives input generation;
* merged coverage — across **all** ranks when the framework is on,
  focus-only when it is off (the No_Fwk baseline);
* per-rank serialized log sizes (the I/O of Table IV), counted by
  :meth:`~repro.concolic.trace.LightSink.log_size` without serializing;
* an error classification matching the paper's bug surface: assertion
  violations, segmentation faults, floating-point exceptions, aborts,
  and hangs (timeouts).
"""

from __future__ import annotations

import re
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional

from ..concolic.context import sink_scope
from ..concolic.coverage import CoverageMap, merge_all
from ..concolic.trace import HeavySink, LightSink, TraceResult
from ..faults import FaultInjector, FaultPlan, InjectedFault
from ..instrument.loader import InstrumentedProgram
from ..mpi.errors import MpiAbort, MpiError, MpiInternalError
from ..mpi.runtime import JobResult, run_job
from ..targets.cmem import SegfaultError
from .config import CompiConfig
from .testcase import TestCase

#: error kinds reported by the classifier
KIND_ASSERT = "assertion"
KIND_SEGFAULT = "segfault"
KIND_FPE = "floating-point-exception"
KIND_HANG = "hang"
KIND_ABORT = "abort"
KIND_MPI = "mpi-error"
KIND_CRASH = "crash"
#: a *proven* communication deadlock (wait-for-graph cycle), as opposed
#: to KIND_HANG which is only "the watchdog expired" (compute loop)
KIND_DEADLOCK = "deadlock"
#: an injector-originated failure (fault-injection campaigns only)
KIND_INJECTED = "injected-fault"
#: the execution's own process died hard (``os._exit``, a fatal signal):
#: the supervision layer's verdict, never the in-process classifier's
KIND_WORKER = "worker-killed"
#: the run exceeded its address-space rlimit (``CompiConfig.max_rss_mb``)
KIND_OOM = "oom"
#: the run exceeded its CPU rlimit (``CompiConfig.max_cpu_s``)
KIND_CPU = "cpu-cap"


class TransientCampaignError(RuntimeError):
    """A harness-internal failure worth retrying (not a target bug)."""


@dataclass(frozen=True)
class ErrorInfo:
    kind: str
    global_rank: int
    message: str
    traceback: str = ""
    #: "file:line:function" of the deepest frame (bug-dedup anchor)
    location: str = ""
    #: for deadlocks: per-rank pending operations at detection time,
    #: ``((rank, "Recv(source=..., tag=...)"), ...)`` — makes a
    #: schedule-found deadlock triageable without rerunning
    pending: tuple = ()


#: frames from these files are runtime helpers, not bug sites — the
#: emulated-malloc raise lives in cmem.py, but the *bug* is its caller
_HELPER_FILES = ("cmem.py",)

#: one frame header of a formatted traceback.  A regex, not a
#: ``split(", ")``: file paths may themselves contain commas (or
#: ``", line "`` as a directory name), which a naive split mis-parses.
_FRAME_RE = re.compile(r'^\s*File "(?P<path>.+)", line (?P<line>\d+),'
                       r' in (?P<func>.+)$')

#: the separators CPython prints between the tracebacks of a chained
#: exception.  Everything *after* the first separator describes wrapper
#: exceptions; the root cause is the first block.
_CHAIN_SEPARATORS = (
    "The above exception was the direct cause of the following exception:",
    "During handling of the above exception, another exception occurred:",
)


def root_cause_block(tb_text: str) -> str:
    """The first traceback block of a (possibly chained) traceback.

    Python prints chained exceptions root-cause-first, so the text
    *before* the first chain separator is the trace of the exception
    that actually started the failure.
    """
    cut = len(tb_text)
    for sep in _CHAIN_SEPARATORS:
        idx = tb_text.find(sep)
        if idx != -1:
            cut = min(cut, idx)
    return tb_text[:cut]


def traceback_frames(tb_text: str) -> list[str]:
    """``basename:line:function`` for each frame of the root-cause block."""
    frames: list[str] = []
    for line in root_cause_block(tb_text).splitlines():
        m = _FRAME_RE.match(line)
        if m:
            basename = m.group("path").replace("\\", "/").rsplit("/", 1)[-1]
            frames.append(f"{basename}:{m.group('line')}:{m.group('func')}")
    return frames


def crash_location(tb_text: str) -> str:
    """Extract the deepest non-helper frame from a formatted traceback.

    Three distinct wrong-``sizeof`` allocations all raise inside the
    shared ``cmem.store`` helper; deduplication must anchor on the
    *allocation site* (the caller), or the paper's three segfaults would
    collapse into one.  For a chained traceback (``The above exception
    was the direct cause…``) only the root-cause block is considered —
    the outer wrapper frames describe the re-raise, not the bug.
    """
    frames = traceback_frames(tb_text)
    for loc in reversed(frames):
        if not any(loc.startswith(h + ":") for h in _HELPER_FILES):
            return loc
    return frames[-1] if frames else ""


@dataclass
class RunRecord:
    """Everything harvested from one test execution."""

    testcase: TestCase
    job: JobResult
    trace: Optional[TraceResult]
    coverage: CoverageMap
    error: Optional[ErrorInfo]
    focus_log_size: int = 0
    nonfocus_log_sizes: list[int] = field(default_factory=list)
    wall_time: float = 0.0
    #: the focus trace harvest failed; coverage/classification are still
    #: valid but no path is available to drive the next negation
    degraded: bool = False
    #: effective per-test timeout used for this run (adaptive or flat)
    timeout_used: float = 0.0
    #: the exception the trace harvest swallowed when it degraded
    #: (``""`` for a clean harvest) — kept so a degraded iteration is
    #: diagnosable from the run record instead of silently discarded
    harvest_error: str = ""
    #: canonical schedule ID of the interleaving this run executed
    #: ("" when no schedule controller was attached)
    schedule: str = ""
    #: decision records ``(rank, index, source, tag, candidates, forced,
    #: fallback)`` in canonical order — what the ScheduleTree expands
    schedule_decisions: tuple = ()
    #: prescribed choices that could not be satisfied (replay diverged)
    schedule_divergences: int = 0
    #: free decisions taken without provable quiesce (timeout fallback)
    schedule_fallbacks: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


def classify_exception(exc: BaseException) -> str:
    """Map a Python exception to the paper's error taxonomy."""
    if isinstance(exc, InjectedFault):
        return KIND_INJECTED
    if isinstance(exc, AssertionError):
        return KIND_ASSERT
    if isinstance(exc, (SegfaultError, IndexError, MemoryError)):
        return KIND_SEGFAULT
    if isinstance(exc, (ZeroDivisionError, FloatingPointError, OverflowError)):
        return KIND_FPE
    if isinstance(exc, MpiAbort):
        return KIND_ABORT
    if isinstance(exc, MpiInternalError):
        return KIND_MPI
    return KIND_CRASH


def classify_run(job: JobResult) -> Optional[ErrorInfo]:
    """Map a job result to the paper's error taxonomy (None = clean)."""
    if job.deadlock is not None:
        cycle = job.deadlock.cycle
        return ErrorInfo(
            kind=KIND_DEADLOCK,
            global_rank=cycle[0] if cycle else -1,
            message=f"communication deadlock: {job.deadlock.describe()}",
            pending=tuple(sorted(job.deadlock.waits.items())))
    if job.timed_out:
        return ErrorInfo(kind=KIND_HANG, global_rank=-1,
                         message="test exceeded its timeout (hang/infinite loop)")
    first = job.first_error()
    if first is not None:
        return ErrorInfo(kind=classify_exception(first.error),
                         global_rank=first.global_rank,
                         message=repr(first.error),
                         traceback=first.error_traceback,
                         location=crash_location(first.error_traceback))
    if job.abort_code not in (None, 0):
        return ErrorInfo(kind=KIND_ABORT, global_rank=job.abort_origin or -1,
                         message=f"MPI_Abort({job.abort_code})")
    # A nonzero exit code is an error-inducing input per the paper (§V).
    for out in job.outcomes:
        if out.ok and out.exit_code not in (None, 0):
            return None  # sanity-check rejections return 1; not a bug
    return None


class TestRunner:
    """Launches instrumented tests for one target program."""

    #: not a pytest class, despite the name
    __test__ = False

    def __init__(self, program: InstrumentedProgram, config: CompiConfig,
                 fault_plan: Optional[FaultPlan] = None):
        self.program = program
        self.config = config
        if fault_plan is None and config.faults:
            fault_plan = FaultPlan.from_names(config.faults,
                                              seed=config.fault_seed)
        self.fault_plan = fault_plan
        #: EWMA of completed (non-hanging) run durations; None until the
        #: first completed run
        self._ewma: Optional[float] = None
        self._runs = 0

    def current_timeout(self) -> float:
        """Effective per-test timeout: adaptive (EWMA-derived) or flat."""
        cfg = self.config
        if not cfg.adaptive_timeout or self._ewma is None:
            return cfg.test_timeout
        derived = cfg.timeout_multiplier * self._ewma
        return min(cfg.test_timeout, max(cfg.timeout_floor, derived))

    def note_external_run(self, wall_time: float, timed_out: bool) -> None:
        """Fold a run executed elsewhere (a pool worker) into the EWMA.

        The parallel executor runs tests in worker processes, which cannot
        see this runner's timing state; the engine feeds committed results
        back in commit order so adaptive timeouts and the run counter stay
        meaningful (and checkpointable) under any executor.
        """
        self._runs += 1
        if not timed_out:
            alpha = self.config.timeout_ewma_alpha
            self._ewma = (wall_time if self._ewma is None
                          else alpha * wall_time + (1 - alpha) * self._ewma)

    def _make_sinks(self, testcase: TestCase) -> list[Any]:
        cfg = self.config
        sinks: list[Any] = []
        for rank in range(testcase.setup.nprocs):
            if rank == testcase.setup.focus:
                sinks.append(HeavySink(global_rank=rank,
                                       reduction=cfg.reduction,
                                       log_events=cfg.log_events,
                                       mark_mpi=cfg.framework,
                                       mark_comm_sizes=cfg.mark_comm_sizes))
            elif cfg.two_way:
                sinks.append(LightSink(global_rank=rank))
            else:
                # one-way instrumentation: everyone runs the heavy build
                sinks.append(HeavySink(global_rank=rank,
                                       reduction=cfg.reduction,
                                       log_events=cfg.log_events,
                                       mark_mpi=cfg.framework,
                                       mark_comm_sizes=cfg.mark_comm_sizes))
        if cfg.probe_batching:
            # batched probes: concrete-only evaluations record into these
            # arrays instead of per-call recorder dispatch; the harvest
            # flushes them into the coverage map (docs/PERFORMANCE.md)
            registry = self.program.registry
            for sink in sinks:
                sink.preallocate(registry.total_sites,
                                 len(registry.functions))
        return sinks

    def run(self, testcase: TestCase,
            timeout: Optional[float] = None) -> RunRecord:
        """Run one test.  ``timeout`` overrides the adaptive per-test
        timeout (the parallel executor pins one value per batch so every
        speculative sibling sees the same deadline)."""
        try:
            return self._run(testcase, timeout=timeout)
        except (MpiError, InjectedFault):
            raise  # substrate-level errors carry their own meaning
        except Exception as exc:
            # anything else escaping here is a harness defect, not a
            # target bug: surface it as retryable so a long campaign is
            # not killed by one glitchy iteration
            raise TransientCampaignError(
                f"internal error while running test: {exc!r}") from exc

    def run_with_retries(self, testcase: TestCase,
                         timeout: Optional[float] = None
                         ) -> tuple[RunRecord, int]:
        """Run one test, retrying transient harness errors with backoff.

        Returns ``(record, retries_it_took)``.  Used by every executor so
        serial and pooled execution share one retry policy.
        """
        cfg = self.config
        attempt = 0
        while True:
            try:
                return self.run(testcase, timeout=timeout), attempt
            except TransientCampaignError:
                if attempt >= cfg.retry_attempts:
                    raise
                time.sleep(cfg.retry_backoff * (2 ** attempt))
                attempt += 1

    def _run(self, testcase: TestCase,
             timeout: Optional[float] = None) -> RunRecord:
        entry = self.program.entry
        inputs = dict(testcase.inputs)

        def rank_entry(mpi):
            # install this rank's recorder for the thread's lifetime
            with sink_scope(mpi.sink):
                return entry(mpi, dict(inputs))

        injector = None
        if self.fault_plan is not None:
            # one derived sub-plan per run: deterministic per (seed, run#)
            injector = FaultInjector(self.fault_plan.derive(self._runs))
        controller = None
        if self.config.explore_schedules or testcase.schedule:
            from ..schedules import ReplayController, ScheduleController
            # a pinned schedule outside exploration mode is a replay
            # (triage artifacts, `repro replay` on logged bugs)
            cls = (ScheduleController if self.config.explore_schedules
                   else ReplayController)
            controller = cls(prescription=testcase.schedule)
        if timeout is None:
            timeout = self.current_timeout()
        sinks = self._make_sinks(testcase)
        t0 = time.monotonic()
        job = run_job([rank_entry] * testcase.setup.nprocs, sinks=sinks,
                      timeout=timeout, injector=injector,
                      detect_deadlocks=self.config.detect_deadlocks,
                      match_policy=controller)
        wall = time.monotonic() - t0
        for sink in sinks:
            sink.flush()   # fold batched probe arrays into coverage
        self._runs += 1
        if not job.timed_out:
            alpha = self.config.timeout_ewma_alpha
            self._ewma = (wall if self._ewma is None
                          else alpha * wall + (1 - alpha) * self._ewma)

        focus = testcase.setup.focus
        focus_sink: HeavySink = sinks[focus]
        degraded = False
        harvest_error = ""
        try:
            trace = focus_sink.result()
        except Exception as exc:
            # graceful degradation: a broken trace harvest must not kill
            # the campaign — record a coverage-only iteration instead,
            # but keep the swallowed exception in the run record
            trace = None
            degraded = True
            harvest_error = (f"{type(exc).__name__}: {exc} @ "
                             f"{crash_location(traceback.format_exc()) or '?'}")

        if self.config.framework:
            coverage = merge_all(s.coverage for s in sinks)
        else:
            # No_Fwk records the focus process only (§VI-E)
            coverage = sinks[focus].coverage.copy()

        log_sizes = [s.log_size() for s in sinks]
        nonfocus = [n for r, n in enumerate(log_sizes) if r != focus]

        return RunRecord(
            testcase=testcase,
            job=job,
            trace=trace,
            coverage=coverage,
            error=classify_run(job),
            focus_log_size=log_sizes[focus],
            nonfocus_log_sizes=nonfocus,
            wall_time=wall,
            degraded=degraded,
            timeout_used=timeout,
            harvest_error=harvest_error,
            schedule=controller.schedule_id() if controller else "",
            schedule_decisions=(controller.decision_records()
                                if controller else ()),
            schedule_divergences=controller.divergences if controller else 0,
            schedule_fallbacks=controller.fallbacks if controller else 0,
        )
