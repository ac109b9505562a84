"""Set-up probe: a fresh interpreter imports homdetect, makes one warm-up
call of the workload's kind, and exits.  ``run.py`` times it from outside.

Usage: python3 bench/probe.py <workload> <scratch dir>
"""

import sys

import common

common.prepare_process()

import workloads  # noqa: E402

workloads.warm_up(sys.argv[1], sys.argv[2])
