"""Regenerate the stored reference outputs of the benchmark.

Usage: python3 bench/make_reference.py [workload ...]

Runs every pool case of each named workload (default: all) once with the
checkout's code and writes ``bench/reference/<workload>.json``, recording
the git SHA and source digest that produced it.  A change that claims the
same outputs must pass against the references of its parent, so only
regenerate them for a change whose outputs are meant to differ.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

import common


def main(argv: list[str]) -> int:
    common.prepare_process()
    import workloads

    names = argv or list(workloads.WORKLOADS)
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
    os.makedirs(out_dir, exist_ok=True)
    for name in names:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=common.ROOT) as tmpdir:
            runner = workloads.Runner(name, tmpdir)
            cases = {}
            for cid, case in sorted(runner.cases.items()):
                runner.prepare(cid)
                out = runner.collect(cid, runner.call(cid))
                if out.rc != 0:
                    raise SystemExit(f"{cid} exited {out.rc}: {out.raw[:200]!r}")
                errors = [r["error"] for r in out.rows or () if r["error"] is not None]
                if errors:
                    raise SystemExit(f"{cid}: {len(errors)} error rows, first: {errors[0]}")
                cases[cid] = workloads.reference_entry(case, out)
        doc = {
            "meta": {"git_sha": common.git_sha(), "src_sha256": common.src_digest(),
                     "pool_seed": workloads.POOL_SEED, "versions": common.versions()},
            "cases": cases,
        }
        with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: {len(cases)} cases in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
