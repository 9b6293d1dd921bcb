"""One set-up sample in a fresh interpreter.

Prints the seconds taken to import dlbridge (the CLI and verify modules
included) and to generate the first `workloads.PREGEN` op inputs of a
workload, then the host speed measured right after (see calibrate.py).

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

import calibrate
from workloads import PREGEN, WORKLOADS

CALIBRATION_SAMPLES = 15


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import dlbridge.cli  # noqa: F401  (imports the package and verify too)

    workload = WORKLOADS[name](seed)
    for i in range(PREGEN):
        workload.make(i)
    setup_s = time.perf_counter() - t0
    speed = calibrate.speed([calibrate.sample() for _ in range(CALIBRATION_SAMPLES)])
    print(setup_s, speed)


if __name__ == "__main__":
    main()
