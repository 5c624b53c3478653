"""Tagged physical memory: data words plus one forwarding bit per word.

This module models the storage layer of the paper's proposal (Section 2.1):
a conventional word-addressable memory in which every 64-bit word carries a
one-bit *forwarding tag*.  When the tag is set, the word holds a forwarding
(byte) address rather than data.  On a 64-bit machine the tag adds 1 bit per
64 bits of storage -- the 1.5% space overhead the paper reports.

The class below is purely the *state* of memory.  Forwarding-chain
dereferencing, timing, and cache behaviour live in higher layers
(:mod:`repro.core.forwarding`, :mod:`repro.core.machine`).  Keeping raw
storage separate makes the safety-net semantics easy to test in isolation.

Addresses are byte addresses.  The word size is fixed at 8 bytes, matching
the paper's 64-bit target architecture.  Sub-word (1/2/4-byte) accesses are
supported and little-endian, mirroring the MIPS configuration used in the
paper's simulator.
"""

from __future__ import annotations

import mmap

from repro.core.errors import AlignmentError, MemoryAccessError

#: Width of a machine word (and of a pointer) in bytes.  The paper fixes the
#: minimum relocation granularity to this size because a forwarding address
#: must fit in the space it replaces.
WORD_SIZE = 8

#: log2(WORD_SIZE), used to convert byte addresses to word indices.
WORD_SHIFT = 3

#: Mask of the byte offset within a word.
WORD_OFFSET_MASK = WORD_SIZE - 1

#: Maximum value storable in one word.
WORD_MASK = (1 << 64) - 1

_SIZE_MASKS = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF, 8: WORD_MASK}


class TaggedMemory:
    """A flat, word-granular memory with a forwarding bit per word.

    Parameters
    ----------
    size:
        Size of the simulated physical memory in bytes.  Rounded up to a
        whole number of words.

    Notes
    -----
    All methods here are *raw*: they neither follow forwarding chains nor
    charge simulated time.  They correspond to what the memory arrays
    themselves can do, i.e. the behaviour of ``Unforwarded_Read`` /
    ``Unforwarded_Write`` at the storage level.

    The data words live in an anonymous private ``mmap`` viewed as
    unsigned 64-bit slots.  The kernel hands out zero pages lazily, so
    constructing a memory costs no time and no resident memory; only
    the pages a program touches become resident.  A zero-filled
    ``array('Q')`` of the same size memset the whole simulated memory
    up front (tens of milliseconds and ~50 MB per machine at the
    default size), which dominated short runs.  Like an array, the
    view holds raw slots the garbage collector never scans, and every
    writer masks values into [0, 2**64), the ``'Q'`` range.
    """

    __slots__ = ("_nwords", "size", "_words", "_fbits")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"memory size must be positive, got {size}")
        nwords = (size + WORD_SIZE - 1) >> WORD_SHIFT
        self._nwords = nwords
        self.size = nwords << WORD_SHIFT
        # Private, so a forked worker gets copy-on-write pages rather
        # than sharing writes with its parent.
        words = mmap.mmap(-1, 8 * nwords, flags=mmap.MAP_PRIVATE)
        self._words = memoryview(words).cast("Q")
        self._fbits = bytearray(nwords)

    # ------------------------------------------------------------------
    # Bounds / alignment checks
    # ------------------------------------------------------------------
    def check_range(self, address: int, size: int) -> None:
        """Raise :class:`MemoryAccessError` unless [address, address+size) fits."""
        if address < 0 or size < 0 or address + size > self.size:
            raise MemoryAccessError(address, size, "out of range")

    def _word_index(self, address: int) -> int:
        if address < 0 or address + WORD_SIZE > self.size:
            raise MemoryAccessError(address, WORD_SIZE, "out of range")
        if address & WORD_OFFSET_MASK:
            raise AlignmentError(address, WORD_SIZE)
        return address >> WORD_SHIFT

    # ------------------------------------------------------------------
    # Word-granular raw access (storage level of the ISA extensions)
    # ------------------------------------------------------------------
    def read_word(self, address: int) -> int:
        """Read the 64-bit word at a word-aligned byte ``address``."""
        return self._words[self._word_index(address)]

    def write_word(self, address: int, value: int) -> None:
        """Write a 64-bit word at a word-aligned byte ``address``.

        The forwarding bit is left unchanged; use :meth:`write_word_tagged`
        for the atomic word+bit update that ``Unforwarded_Write`` requires.
        """
        self._words[self._word_index(address)] = value & WORD_MASK

    def read_fbit(self, address: int) -> int:
        """Return the forwarding bit (0 or 1) of the word at ``address``."""
        return self._fbits[self._word_index(address)]

    def write_word_tagged(self, address: int, value: int, fbit: int) -> None:
        """Atomically update a word and its forwarding bit.

        This is the storage-level effect of the paper's
        ``Unforwarded_Write`` instruction (Figure 3), which must change the
        word and its bit together to preserve consistency.
        """
        index = self._word_index(address)
        self._words[index] = value & WORD_MASK
        self._fbits[index] = 1 if fbit else 0

    # ------------------------------------------------------------------
    # Sub-word raw access
    # ------------------------------------------------------------------
    def read_data(self, address: int, size: int) -> int:
        """Read ``size`` bytes (1/2/4/8) at a naturally aligned address.

        Forwarding bits are ignored; the caller is responsible for having
        resolved the final address first.
        """
        mask = _SIZE_MASKS.get(size)
        if mask is None:
            raise ValueError(f"unsupported access size {size}")
        if address & (size - 1):
            raise AlignmentError(address, size)
        if size == WORD_SIZE:
            return self.read_word(address)
        word_address = address & ~WORD_OFFSET_MASK
        shift = (address & WORD_OFFSET_MASK) * 8
        word = self._words[self._word_index(word_address)]
        return (word >> shift) & mask

    def write_data(self, address: int, value: int, size: int) -> None:
        """Write ``size`` bytes (1/2/4/8) at a naturally aligned address."""
        mask = _SIZE_MASKS.get(size)
        if mask is None:
            raise ValueError(f"unsupported access size {size}")
        if address & (size - 1):
            raise AlignmentError(address, size)
        if size == WORD_SIZE:
            self.write_word(address, value)
            return
        word_address = address & ~WORD_OFFSET_MASK
        shift = (address & WORD_OFFSET_MASK) * 8
        index = self._word_index(word_address)
        word = self._words[index]
        self._words[index] = (word & ~(mask << shift)) | ((value & mask) << shift)

    # ------------------------------------------------------------------
    # Region initialisation
    # ------------------------------------------------------------------
    def clear_region(self, address: int, size: int) -> None:
        """Zero a word-aligned region and clear its forwarding bits.

        Section 3.3 of the paper: the operating system must perform
        ``Unforwarded_Write(0, 0)`` on every word of a region before handing
        it to an application, so a program never observes a stale
        forwarding bit in fresh memory.
        """
        if address & WORD_OFFSET_MASK or size & WORD_OFFSET_MASK:
            raise AlignmentError(address | size, WORD_SIZE)
        self.check_range(address, size)
        first = address >> WORD_SHIFT
        last = (address + size) >> WORD_SHIFT
        for index in range(first, last):
            self._words[index] = 0
            self._fbits[index] = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def word_count(self) -> int:
        """Number of words in the simulated memory."""
        return self._nwords

    def tag_overhead_bits(self) -> int:
        """Total bits of tag storage: one per word (the paper's 1.5%)."""
        return self._nwords

    def forwarded_word_count(self) -> int:
        """Number of words whose forwarding bit is currently set."""
        return sum(self._fbits)
