#!/usr/bin/env python3
"""Write perfbench/expected.json: the sha256 of the certificate that each
certify workload writes for every program seed 0..VARIANTS-1.

Run from the repository root: ``python3 perfbench/record.py``.  The digests
pin the output bytes of the commit that recorded them; recording them again
is a change to the benchmark, not to the program.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from run import ROOT, SRC, run_process

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = ROOT / ".perfbench" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    expected = {}
    for name in ("planar-cut", "product-certified"):
        wl = workloads.make(name)
        wl.write_input(work)
        digests = {}
        for variant in range(workloads.VARIANTS):
            out = work / f"{name}-{variant}.cert"
            argv = [sys.executable, "-m", "fanwidth.cli"] + wl.argv(variant, out)
            wall, _, _, rc, _ = run_process(argv, work, env, time.monotonic() + 3600)
            if rc != 0:
                print(f"{name} seed {variant}: exit {rc}", file=sys.stderr)
                return 1
            digests[str(variant)] = workloads.sha256(out.read_bytes())
            print(f"{name} seed {variant} {digests[str(variant)]} {wall:.2f} s")
        expected[name] = digests
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
