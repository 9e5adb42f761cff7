"""Which pages of an array this process has written, read from Linux's
``/proc/self/pagemap``: the probe behind the tests that pin which terrain
pages stay untouched."""

import os
from pathlib import Path

import numpy as np
import pytest

PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096
_PAGEMAP = Path("/proc/self/pagemap")


#: Marks a test that reads the probe.
needs_pagemap = pytest.mark.skipif(
    not _PAGEMAP.exists(), reason="reads Linux pagemap"
)


def written_pages(array: np.ndarray) -> np.ndarray:
    """One flag per memory page under ``array``'s bytes: the page is
    present and mapped by this process alone (bits 63 and 56 of its
    pagemap entry).  A read of a never-written page maps the shared zero
    page, which is present but not exclusive."""
    first = array.ctypes.data // PAGE
    last = (array.ctypes.data + array.nbytes - 1) // PAGE
    with _PAGEMAP.open("rb") as pagemap:
        pagemap.seek(first * 8)
        entries = np.frombuffer(
            pagemap.read((last - first + 1) * 8), dtype="<u8"
        )
    return ((entries >> np.uint64(63)) & (entries >> np.uint64(56)) & 1) == 1


def written_kb(array: np.ndarray) -> int:
    """kB of ``array``'s bytes on pages this process wrote."""
    return int(written_pages(array).sum()) * PAGE // 1024


def vm_flags(array: np.ndarray) -> set[str]:
    """The ``VmFlags`` of the mapping that holds ``array``'s first byte,
    read from ``/proc/self/smaps`` (``nh``: no huge pages)."""
    address, inside = array.ctypes.data, False
    for line in Path("/proc/self/smaps").read_text().splitlines():
        head = line.split(None, 1)[0]
        if "-" in head and not head.endswith(":"):
            lo, hi = (int(end, 16) for end in head.split("-"))
            inside = lo <= address < hi
        elif inside and head == "VmFlags:":
            return set(line.split()[1:])
    raise LookupError(f"no mapping holds {address:#x}")
