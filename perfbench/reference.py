"""Regenerate ``reference.json``: the outputs every benchmark unit is
checked against.

For each campaign target, the covered-branch set, unique-bug keys and
iteration count of the serial campaign at every seed of the workload's
seed table; for the fleet, the merged ``report_text``
of every seed set.  ``hpl-workers2`` is checked against the serial HPL
reference, which is how it must equal ``hpl-serial`` at the same seed.

Run from the root of a checkout, and only when a change is meant to
alter what campaigns find::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build(workdir: Path) -> dict:
    from workloads import WORKLOADS
    out: dict = {}
    for name in ("demo-logged", "hpl-serial", "fleet-warm"):
        wl = WORKLOADS[name]
        wl.prepare(workdir)
        table = out.setdefault(wl.reference_key, {})
        for seed in wl.seeds:
            unit = wl.unit(seed, workdir, None)
            if not unit.ok:
                raise SystemExit(f"{name} seed {seed}: {unit.detail}")
            table[str(seed)] = unit.observed
            print(f"{name} seed {seed}: {unit.detail}", flush=True)
    return out


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import procs
    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    try:
        ref = build(workdir)
    finally:
        procs.stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    # one line per seed keeps the file readable and its diffs small
    blocks = []
    for key in sorted(ref):
        rows = [f"  {json.dumps(seed)}: {json.dumps(entry, sort_keys=True)}"
                for seed, entry in sorted(ref[key].items(),
                                          key=lambda kv: int(kv[0]))]
        blocks.append(f" {json.dumps(key)}: {{\n" + ",\n".join(rows)
                      + "\n }")
    (HERE / "reference.json").write_text("{\n" + ",\n".join(blocks)
                                         + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
