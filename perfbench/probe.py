"""Set-up probe: a fresh process that imports carnotiso and builds a workload.

    python3 perfbench/probe.py <workload> <seed>

Once carnotiso and carnotiso.cli are imported and the workload's specs,
metrics and inputs are built, prints one JSON line and exits: the
system-wide monotonic time it was ready, from which run.py subtracts the
spawn time (setup_s), and the in-process import time of carnotiso.cli
(cli.import_s).
"""

import json
import sys
import time

import run


def main() -> int:
    run.use_checkout_sources()
    start = time.perf_counter()
    import carnotiso.cli  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - start

    import workloads

    workloads.WORKLOADS[sys.argv[1]].make(int(sys.argv[2]))
    ready = run.monotonic()
    sys.stdout.write(json.dumps({"ready": ready, "import_s": import_s}) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
