"""Record the golden outputs every benchmark job is checked against.

    python3 bench/record_goldens.py

Runs every job of every workload once per pool seed and writes
bench/goldens.json. Run it only at a commit whose outputs are the reference;
the benchmark then fails any job whose outputs differ from them.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import GOLDENS, WORK_PARENT, Runner
from workloads import POOL_SEEDS, WORKLOADS


def main() -> int:
    outputs, failed = {}, []
    WORK_PARENT.mkdir(exist_ok=True)
    for w in WORKLOADS.values():
        for ps in POOL_SEEDS:
            work = tempfile.mkdtemp(prefix=f"record-{w.name}-", dir=WORK_PARENT)
            try:
                runner = Runner(w, Path(work), None, calibrate=False)
                jobs = w.main_pass(ps) + w.probe_pass(ps)
                runner.prepare(jobs)
                for job in jobs:
                    if not runner.run(job).ok:
                        failed.append(f"{w.name}/{job.key}")
                outputs.update(runner.recorded)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{w.name} pool seed {ps}: {len(outputs)} outputs", file=sys.stderr)
    if failed:
        print(f"error: jobs failed, goldens not written: {failed}", file=sys.stderr)
        return 1
    GOLDENS.write_text(json.dumps({"pool_seeds": list(POOL_SEEDS), "outputs": outputs}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
