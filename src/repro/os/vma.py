"""Virtual memory areas and per-process virtual address spaces.

As §2.2 describes, ``mmap()``/``brk()`` return *contiguous virtual* memory
eagerly while physical memory arrives lazily. :class:`AddressSpace` models
exactly that: it hands out contiguous virtual page ranges immediately and
records them as :class:`Vma` objects; no physical frame moves until a page
fault reaches the kernel.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional

from ..errors import AllocationError, InvalidAddressError
from ..units import VA_BITS


class Protection(enum.Flag):
    """Access permissions of a VMA."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXEC = enum.auto()

    @classmethod
    def rw(cls) -> "Protection":
        return cls.READ | cls.WRITE


@dataclass(frozen=True)
class Vma:
    """One contiguous virtual memory area, in page units."""

    start_vpn: int
    npages: int
    prot: Protection = Protection.READ | Protection.WRITE
    name: str = "anon"

    @property
    def end_vpn(self) -> int:
        """One past the last page of the area."""
        return self.start_vpn + self.npages

    def contains(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.end_vpn

    def pages(self) -> Iterator[int]:
        """Yield every virtual page number in the area."""
        return iter(range(self.start_vpn, self.end_vpn))


#: First page handed out by mmap (leaves low VA space for text/stack).
MMAP_BASE_VPN = 1 << 20
#: Base of the brk heap.
BRK_BASE_VPN = 1 << 16
#: Exclusive upper bound on usable virtual pages.
MAX_VPN = 1 << (VA_BITS - 12)


class AddressSpace:
    """The virtual address space of one process.

    VMAs are kept sorted by start page; lookup is a binary search. ``mmap``
    is a simple first-fit bump allocator from :data:`MMAP_BASE_VPN` upward
    (Linux's layout details do not matter for the paper's effect -- only
    that virtual ranges are contiguous).
    """

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._vmas: List[Vma] = []
        self._mmap_cursor = MMAP_BASE_VPN
        self._brk_vpn = BRK_BASE_VPN

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def find(self, vpn: int) -> Optional[Vma]:
        """Return the VMA containing ``vpn``, or ``None``."""
        idx = bisect.bisect_right(self._starts, vpn) - 1
        if idx < 0:
            return None
        vma = self._vmas[idx]
        return vma if vma.contains(vpn) else None

    def __iter__(self) -> Iterator[Vma]:
        return iter(self._vmas)

    def __len__(self) -> int:
        return len(self._vmas)

    @property
    def total_pages(self) -> int:
        """Pages of virtual memory currently mapped into VMAs."""
        return sum(vma.npages for vma in self._vmas)

    def overlaps(self, start_vpn: int, npages: int) -> bool:
        """True if [start_vpn, start_vpn+npages) intersects any VMA."""
        idx = bisect.bisect_right(self._starts, start_vpn + npages - 1) - 1
        if idx < 0:
            return False
        vma = self._vmas[idx]
        return vma.end_vpn > start_vpn

    # ------------------------------------------------------------------ #
    # mmap / brk / munmap
    # ------------------------------------------------------------------ #

    def mmap(
        self,
        npages: int,
        prot: Protection = Protection.READ | Protection.WRITE,
        name: str = "anon",
    ) -> Vma:
        """Allocate a fresh contiguous virtual range of ``npages`` pages."""
        if npages <= 0:
            raise AllocationError(f"mmap of {npages} pages: npages must be positive")
        start = self._mmap_cursor
        while self.overlaps(start, npages):
            idx = bisect.bisect_right(self._starts, start + npages - 1) - 1
            start = self._vmas[idx].end_vpn
        if start + npages > MAX_VPN:
            raise AllocationError("virtual address space exhausted")
        vma = Vma(start, npages, prot, name)
        self._insert(vma)
        self._mmap_cursor = vma.end_vpn
        return vma

    def brk(self, grow_pages: int) -> Vma:
        """Grow the heap by ``grow_pages`` pages; returns the new VMA."""
        if grow_pages <= 0:
            raise AllocationError("brk must grow by at least one page")
        start = self._brk_vpn
        if self.overlaps(start, grow_pages):
            raise AllocationError("brk region collides with an mmap area")
        vma = Vma(start, grow_pages, Protection.rw(), "heap")
        self._insert(vma)
        self._brk_vpn = vma.end_vpn
        return vma

    def munmap(self, start_vpn: int, npages: int) -> List[Vma]:
        """Remove [start_vpn, start_vpn+npages) from the address space.

        VMAs partially covered by the range are split, as in Linux.
        Returns the list of VMA fragments that were removed (useful for the
        kernel to tear down their page mappings).
        """
        if npages <= 0:
            raise InvalidAddressError("munmap of zero pages")
        end_vpn = start_vpn + npages
        removed: List[Vma] = []
        kept: List[Vma] = []
        affected = [
            vma
            for vma in self._vmas
            if vma.start_vpn < end_vpn and vma.end_vpn > start_vpn
        ]
        for vma in affected:
            self._remove(vma)
            cut_start = max(vma.start_vpn, start_vpn)
            cut_end = min(vma.end_vpn, end_vpn)
            removed.append(
                replace(vma, start_vpn=cut_start, npages=cut_end - cut_start)
            )
            if vma.start_vpn < cut_start:
                kept.append(
                    replace(vma, npages=cut_start - vma.start_vpn)
                )
            if vma.end_vpn > cut_end:
                kept.append(
                    replace(
                        vma,
                        start_vpn=cut_end,
                        npages=vma.end_vpn - cut_end,
                    )
                )
        for vma in kept:
            self._insert(vma)
        return removed

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _insert(self, vma: Vma) -> None:
        idx = bisect.bisect_left(self._starts, vma.start_vpn)
        self._starts.insert(idx, vma.start_vpn)
        self._vmas.insert(idx, vma)

    def _remove(self, vma: Vma) -> None:
        idx = bisect.bisect_left(self._starts, vma.start_vpn)
        if idx >= len(self._vmas) or self._vmas[idx] is not vma:
            raise InvalidAddressError(f"VMA at vpn {vma.start_vpn:#x} not found")
        del self._starts[idx]
        del self._vmas[idx]

    def clone(self) -> "AddressSpace":
        """Copy for fork(): identical VMAs and layout cursors."""
        twin = AddressSpace()
        twin._starts = list(self._starts)
        twin._vmas = list(self._vmas)
        twin._mmap_cursor = self._mmap_cursor
        twin._brk_vpn = self._brk_vpn
        return twin
