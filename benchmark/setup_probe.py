"""Child process behind `setup_s`: a run's start, up to its first timed op.

    python3 benchmark/setup_probe.py <workload> <seed>

Does what run.py does before timing its first op (import arithlink and
sympy, build the workload, generate the first round) and prints the
monotonic clock, which the parent compares with the moment it started this
interpreter.
"""

import sys
from time import perf_counter

from run import prepare

prepare(sys.argv[1], int(sys.argv[2])).round()
print(perf_counter())
