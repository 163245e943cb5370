"""Process environment every measured benchmark process runs under.

* BLAS and OpenMP get one thread: each workload is a single process with no
  extra threads, and the workloads run one after another.
* String hashing gets a fixed seed, so dict and set layouts, and with them
  the interpreter's timings, do not vary from process to process.
* glibc's mmap threshold stays at its documented initial value, 128 KiB,
  instead of rising with the first large block freed.  With the rising
  default, whether the coagulation operator's per-call n^2 temporaries are
  page-faulted in afresh on every call or reused from the heap depends on
  which unrelated small allocation happens to sit at the heap top: on a
  2-CPU machine the same 250-step split-coag solve took 5.5 s (2 s of it
  system time) in one process and 3.0 s in another, and wrapping calls in
  the span tracer alone switched between the two.  Held at 128 KiB, every
  large temporary is mapped and released on every call, as on a fresh heap,
  so each run pays the full cost of the temporaries and a change that
  removes them shows its whole gain.

These take effect only at process start, so `pin` re-executes the current
script (same process id) when they are not yet set.
"""
from __future__ import annotations

import os
import sys

PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072",
}


def pin() -> None:
    """Re-execute this interpreter under PINNED unless it already runs so."""
    if all(os.environ.get(k) == v for k, v in PINNED.items()):
        return
    os.environ.update(PINNED)
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, *sys.argv])
