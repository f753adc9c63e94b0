"""The repository benchmark: one workload, measured for a fixed time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hpl-serial --seed 3 --seconds 25 --trace 0

The run repeats units of work (one campaign, or one fleet sweep) until
``--seconds`` have passed, checks every unit's outputs against the
stored reference for its seed (``perfbench/reference.json``), and prints
one line per unit, the metrics as median, quartiles and sample count,
and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (BENCHMARK.json
``end_to_end``).  ``--trace 1`` alternates untraced and traced units and
reports the per-layer metrics (``per_layer``), which the traced units
measure through wrappers installed around each layer's entry points
(``layers.py``).  Spans are kept in memory and written out at the end to
``perfbench/_out/<workload>.spans.jsonl.gz``.

``fail_ratio`` (failed ÷ attempted operations) is the ``failed`` and
``attempted`` pair of the result line: an operation is a committed
iteration, or a shard attempt on ``fleet-warm``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: set-ups timed on their own, besides the one in every unit: a burst
#: of SETUP_BURST before the first unit, then after every unit more until
#: SETUP_SECONDS pass or there are SETUP_BURST more.  Spreading them over
#: the run samples the disk and CPU over the whole run, not one moment.
SETUP_BURST = 10
SETUP_SECONDS = 0.1

UNITS = {"execs_per_s": "1/s", "shards_per_min": "1/min", "setup_s": "s",
         "peak_rss_mb": "MB"}


def _summary_line(name: str, values: list[float], unit: str) -> str:
    import tracing
    s = tracing.summary(values)
    if not s["n"]:
        return f"  {name:28s} n/a"
    return (f"  {name:28s} {s['median']:.6g} {unit} "
            f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")


def _measure(wl, seed: int, seconds: float, trace: bool, workdir: Path,
             reference: dict, rss):
    """Run units until ``seconds`` pass, timing extra set-ups between
    them.  Returns (set-up times, untraced units, traced units, tracer).

    Each unit is preceded by a garbage collection, so that no unit pays
    for the garbage of the one before it."""
    import gc
    import tracing
    from workloads import clock
    tracer = tracing.Tracer() if trace else None
    expected = reference.get(wl.reference_key, {})
    setups = []

    def time_setups(least: int) -> None:
        end = clock() + SETUP_SECONDS
        for k in range(SETUP_BURST):
            if k >= least and clock() >= end:
                break
            setups.append(wl.setup_only(wl.seed_for(seed, len(setups)),
                                        workdir))

    def unit(unit_seed, want, kind, tracer=None):
        gc.collect()
        rss.start_unit()
        u = wl.unit(unit_seed, workdir, want, tracer=tracer)
        u.peak_rss_mb = rss.unit_peak_mb()
        _print_unit(kind, u)
        return u

    time_setups(least=SETUP_BURST)
    untraced, traced = [], []
    deadline = clock() + seconds
    index = 0
    while True:
        unit_seed = wl.seed_for(seed, index)
        want = expected.get(str(unit_seed))
        if want is None:
            raise SystemExit(f"perfbench: no reference for {wl.name} "
                             f"seed {unit_seed}")
        untraced.append(unit(unit_seed, want, "run"))
        if trace:
            traced.append(unit(unit_seed, want, "traced", tracer))
        time_setups(least=1)
        index += 1
        if clock() >= deadline:
            return setups, untraced, traced, tracer


def _print_unit(kind: str, u) -> None:
    verdict = "ok" if u.ok else "CHECK FAILED"
    print(f"{kind:6s} {u.label:12s} {verdict}: {u.detail}; setup "
          f"{u.setup_s:.4f} s, wall {u.wall_s:.3f} s "
          f"({u.net_wall_s:.3f} s net of steal), "
          f"{u.execs_per_s:.2f} execs/s", flush=True)


def _layer_metrics(wl, untraced, traced, workdir: Path) -> tuple[dict, dict]:
    """Per-layer metric values plus, for those that do not apply to this
    workload, the reason."""
    import layers
    import tracing
    from workloads import FleetWorkload
    med = lambda xs: tracing.percentile(xs, 50)  # noqa: E731
    values: dict[str, float] = {}
    na: dict[str, str] = {}
    fleet = isinstance(wl, FleetWorkload)
    if fleet:
        for name in layers.CAMPAIGN_ONLY:
            na[name] = "campaigns run inside the warm daemons, untraced"
        for name in layers.FLEET_ONLY:
            if name != "fleet.overhead_x":
                values[name] = med([u.layer[name] for u in traced])
        first = untraced[0].seed
        inline = wl.inline_wall_s(first, workdir)
        values["fleet.overhead_x"] = med(
            [u.wall_s for u in untraced if u.seed == first]) / inline
        values["trace.overhead_ratio"] = (
            med([u.shards_per_min for u in traced])
            / med([u.shards_per_min for u in untraced]))
    else:
        for name in layers.FLEET_ONLY:
            na[name] = "no fleet on a campaign workload"
        for name in layers.CAMPAIGN_ONLY:
            if name in traced[0].layer:
                values[name] = med([u.layer[name] for u in traced])
        values["instrument.setup_s"] = med([u.instrument_s
                                            for u in untraced + traced])
        values["instrument.probe_overhead_x"] = wl.probe_overhead_x()
        samples = [x for u in traced for x in u.layer["_advance_ms"]]
        values["scheduler.advance_p95_ms"] = (
            tracing.percentile(samples, 95) if samples else 0.0)
        tail = tracing.tail_percentile(samples)
        print(f"  scheduler.advance per call: n={len(samples)}, median "
              f"{tracing.percentile(samples, 50) if samples else 0:.4g} ms, "
              + (f"p{tail[0]:g} {tail[1]:.4g} ms (highest percentile with "
                 f">= 10 samples beyond it)" if tail else
                 "too few samples for a tail percentile"))
        values["trace.overhead_ratio"] = (
            med([u.execs_per_s for u in traced])
            / med([u.execs_per_s for u in untraced]))
        if wl.workers > 1:
            for name in ("mpi.job_s", "mpi.job_overhead_s",
                         "mpi.rank_threads", "mpi.payload_copies",
                         "mpi.payload_copy_s", "mpi.blocked_s",
                         "mpi.rank_compute_s", "mpi.stragglers",
                         "mpi.timeouts", "concolic.serialize_s",
                         "concolic.serialize_calls", "concolic.harvest_s"):
                na[name] = "executions run in pool workers, untraced"
        else:
            for name in ("executor.first_result_s", "engine.spec_hit_ratio",
                         "engine.spec_refills", "engine.avg_inflight",
                         "scheduler.speculate_s"):
                na[name] = "inline executor: no pool, no speculation"
        if not wl.logged:
            for name in ("persist.log_write_s", "persist.fsyncs",
                         "persist.checkpoint_s", "persist.checkpoint_bytes"):
                na[name] = "campaign runs without a log"
    for name in layers.METRICS:
        if name in na:
            values[name] = 0.0
    return values, na


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the root "
              f"of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import layers
    import procs
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r} (known: "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())

    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch))
    # temporary files of the program (pool heartbeats) and of the
    # processes it starts stay inside the checkout too
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        with procs.RssSampler() as rss:
            wl.prepare(workdir)
            setups, untraced, traced, tracer = _measure(
                wl, args.seed, args.seconds, bool(args.trace), workdir,
                reference, rss)
            if args.trace:
                values, na = _layer_metrics(wl, untraced, traced, workdir)
    finally:
        procs.stop_children()
        shutil.rmtree(workdir, ignore_errors=True)

    units = untraced + traced
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    correct = all(u.ok for u in units)
    print(f"workload {wl.name}: {len(units)} unit(s), outputs "
          f"{'correct' if correct else 'WRONG'}, fail_ratio "
          f"{failed / attempted:.4g} ({failed} of {attempted} operations "
          f"failed), watchdog reached by "
          f"{sum(u.watchdog_hits for u in units)} execution(s)")
    e2e = {
        "execs_per_s": [u.execs_per_s for u in untraced],
        "shards_per_min": [u.shards_per_min for u in untraced],
        "setup_s": setups + [u.setup_s for u in untraced],
        "peak_rss_mb": [u.peak_rss_mb for u in untraced],
    }
    print("end-to-end (untraced units; throughput on wall time net of "
          "hypervisor CPU steal):")
    for name, xs in e2e.items():
        print(_summary_line(name, xs, UNITS[name]))

    if args.trace:
        out = HERE / "_out"
        out.mkdir(exist_ok=True)
        tracer.write(str(out / f"{wl.name}.spans.jsonl.gz"))
        print(f"per-layer (traced units, n={len(traced)}; "
              f"{len(tracer.spans)} spans written to "
              f"{out.relative_to(HERE.parent)}):")
        for name, (unit, layer, moves, where) in layers.METRICS.items():
            note = (f"n/a: {na[name]}" if name in na
                    else where if moves == "-"
                    else f"-> {moves} on {where}")
            print(f"  {name:28s} {values[name]:.6g} {unit}  [{note}]")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, *_rest) in layers.METRICS.items()}
    else:
        med = lambda xs: tracing.percentile(xs, 50)  # noqa: E731
        metrics = {name: {"value": med(xs), "unit": UNITS[name]}
                   for name, xs in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
