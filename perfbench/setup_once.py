"""Cold set-up of one workload: import the library, build the inputs, and
print the seconds that took.

    python3 perfbench/setup_once.py <workload> <seed>

run.py runs this script in fresh interpreters and reports the median as
``setup_s``.  The clock starts before anything imports NumPy, so it leaves
out only the interpreter's own start.
"""

import sys
import time

import benchenv

benchenv.prepare()  # before NumPy loads

if __name__ == "__main__":
    start = time.perf_counter()
    import workloads

    workloads.WORKLOADS[sys.argv[1]].build_inputs(int(sys.argv[2]))
    print(time.perf_counter() - start)
