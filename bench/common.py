"""Process set-up shared by the benchmark's entry points.

Imports nothing heavy: thread counts of the numeric libraries must be set
before numpy is first imported.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# One process, one thread: the BLAS pools stay single-threaded.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# The clock of op times and calibration samples: CPU time of this process
# (user + system, all threads).  Unlike wall time it leaves out time in
# which the process was not running: another process had the core, or the
# hypervisor had taken the vCPU (the kernel's steal-time accounting).  The
# program is single-threaded (HOMDETECT_THREADS=1) and CPU-bound, so on an
# unshared core this is the time a user waits.
clock = time.process_time


def prepare_process() -> None:
    """Fail fast on a run that would not measure the checkout's own code
    single-threaded; otherwise make ``src`` importable."""
    threads = os.environ.get("HOMDETECT_THREADS")
    if threads is not None and threads != "1":
        sys.exit(f"bench: HOMDETECT_THREADS={threads!r}; unset it or set it to 1")
    if not os.path.isfile(os.path.join(SRC, "homdetect", "__init__.py")):
        sys.exit(f"bench: no homdetect sources under {SRC}")
    os.environ.update(THREAD_ENV)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import homdetect

    if not os.path.abspath(homdetect.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported homdetect from {homdetect.__file__}, not from {SRC}")


def src_digest() -> str:
    """sha256 over the package sources, so a result names the code it ran
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "homdetect")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def machine() -> dict:
    info: dict = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None)
    except OSError:
        info["cpu_model"] = None
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        if not index.startswith("index"):
            continue
        fields = {}
        for key in ("level", "type", "size"):
            try:
                with open(os.path.join(base, index, key)) as fh:
                    fields[key] = fh.read().strip()
            except OSError:
                fields[key] = None
        caches.append(fields)
    info["caches"] = caches
    return info


def _status(key: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{key} not found in /proc/self/status")


def peak_rss_mb() -> float:
    """High-water resident set size of this process (VmHWM)."""
    return _status("VmHWM") / 1024.0


def thread_count() -> int:
    return _status("Threads")
