"""Set-up probe: one fresh interpreter that imports entrate, builds the first
pass's inputs and prints ``ready``.  ``run.py`` times it from spawn to that
line, which is the set-up a user pays before the first operation.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys

from bootstrap import bootstrap


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    bootstrap()
    from workloads import WORKLOADS

    WORKLOADS[name].inputs(seed, 0)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
