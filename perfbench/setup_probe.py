"""One set-up as a fresh process pays it: import, registries, store open.

Usage: ``python perfbench/setup_probe.py STORE_PATH`` (with ``src`` on
``PYTHONPATH``).  The caller times the whole process.
"""

import sys

import repro  # noqa: F401
from repro.core import TuningOptions  # noqa: F401
from repro.dna.workloads import get_workload, workload_names
from repro.machines.registry import get_platform, platform_names
from repro.ml import transfer  # noqa: F401
from repro.service import CampaignServer, ResultStore  # noqa: F401

if __name__ == "__main__":
    for name in workload_names():
        get_workload(name)
    for name in platform_names():
        get_platform(name)
    ResultStore(sys.argv[1])
