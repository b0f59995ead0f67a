"""Socket-to-socket serving benchmark for ``repro.service``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm-replay --seed 1 --seconds 10 --trace 0

The server under test is its own process (``python -m repro.service``
fitting KIEL into an empty registry, then serving with ``--follow``);
load comes from this process over stock keep-alive HTTP/1.1 on two
connections.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` runs the workload once untraced and once under
``traced_server.py`` and reports the per-layer metrics, the self-time
table and the tracing overhead.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``NOTES.md`` describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "service" / "__main__.py").is_file():
        sys.exit(f"perfbench: no repro sources under {SRC}; run from a repository checkout")
    # The benchmark drives the checkout's own sources; nothing is installed.
    sys.path.insert(0, str(SRC))
    from bench import Bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    # A terminated run still stops its servers (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".perfbench_cache" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(ROOT, args.workload, args.seed, args.seconds, workdir)
        result = bench.traced() if args.trace else bench.untraced()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
