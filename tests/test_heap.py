"""The allocator thresholds set at import: freed arrays stay in the heap."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import capelast

# Allocates, touches and frees one 40 MB array 20 times after the import,
# and prints the minor page faults those 20 rounds took.
SCRIPT = """
import json, resource
import capelast
import numpy as np

before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    a = np.empty(5_000_000)
    a.fill(1.0)
    del a
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"faults": after - before}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the thresholds are set through glibc's mallopt")
def test_freed_arrays_are_reused_without_faults():
    # under glibc's defaults each round faults all 9766 pages in again.
    # numpy's huge-page advice would fault 2 MiB at a time and hide that.
    src = str(Path(capelast.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, NUMPY_MADVISE_HUGEPAGE="0",
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    faults = json.loads(out.stdout.strip().splitlines()[-1])["faults"]
    pages = 5_000_000 * 8 // os.sysconf("SC_PAGE_SIZE")
    assert faults < 3 * pages


class FakeLibc:
    """A C library whose ``mallopt`` records its calls and answers the
    mmap threshold with ``mmap_answer``."""

    def __init__(self, mmap_answer):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return mmap_answer if param == capelast._M_MMAP_THRESHOLD else 1

        self.mallopt = mallopt


def test_both_thresholds_are_set_mmap_first():
    libc = FakeLibc(mmap_answer=1)
    capelast._keep_freed_memory(libc)
    assert libc.calls == [(capelast._M_MMAP_THRESHOLD, 1 << 30),
                          (capelast._M_TRIM_THRESHOLD, 1 << 30)]


def test_a_refused_mmap_threshold_leaves_the_trim_threshold_alone():
    # a trim threshold alone would keep every array above 128 KiB mmapped
    libc = FakeLibc(mmap_answer=0)
    capelast._keep_freed_memory(libc)
    assert libc.calls == [(capelast._M_MMAP_THRESHOLD, 1 << 30)]


def test_a_libc_without_mallopt_is_left_alone():
    class NoMallopt:
        pass

    libc = NoMallopt()
    capelast._keep_freed_memory(libc)
    assert vars(libc) == {}
