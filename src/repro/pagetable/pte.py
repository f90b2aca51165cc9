"""Page-table entry encoding.

A PTE is modelled, as on x86-64, as a single integer: the physical frame
number shifted left by 12 bits, OR-ed with flag bits in the low 12 bits.
Functions here pack and unpack that encoding; keeping PTEs and their
flags as plain ints keeps page tables compact and every flag test a
single int ``&``.
"""

from __future__ import annotations

from ..units import PAGE_SHIFT


class PteFlags:
    """x86-style PTE flag bits (subset relevant to the simulation).

    A namespace of plain int constants: flags combine with ``|`` and
    test with ``&`` as ordinary ints, so the fault path, which tests
    flags on every call, builds no enum objects.
    """

    NONE = 0
    PRESENT = 1 << 0
    WRITABLE = 1 << 1
    USER = 1 << 2
    ACCESSED = 1 << 5
    DIRTY = 1 << 6
    #: Page-size bit (PS): set on a level-2 entry mapping a 2MB huge page.
    HUGE = 1 << 7
    #: Software bit: page is shared copy-on-write after fork().
    COW = 1 << 9


#: Mask selecting the flag bits of an encoded PTE.
FLAGS_MASK = (1 << PAGE_SHIFT) - 1

#: The canonical not-present entry.
PTE_EMPTY = 0


def make_pte(frame: int, flags: int = PteFlags.PRESENT) -> int:
    """Encode ``frame`` and ``flags`` into a PTE integer."""
    if frame < 0:
        raise ValueError("frame must be non-negative")
    return (frame << PAGE_SHIFT) | flags


def pte_frame(pte: int) -> int:
    """Physical frame number stored in ``pte``."""
    return pte >> PAGE_SHIFT


def pte_flags(pte: int) -> int:
    """Flag bits stored in ``pte``."""
    return pte & FLAGS_MASK


def pte_present(pte: int) -> bool:
    """True if ``pte`` has the PRESENT bit (bit 0) set."""
    return (pte & 1) == 1


def pte_set_flags(pte: int, flags: int) -> int:
    """Return ``pte`` with ``flags`` additionally set."""
    return pte | flags


def pte_clear_flags(pte: int, flags: int) -> int:
    """Return ``pte`` with ``flags`` cleared."""
    return pte & ~flags
