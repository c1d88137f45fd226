"""Set-up of one workload in a fresh process: import mfbo, build its inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py times this whole process for the setup_s metric.
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.build(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
