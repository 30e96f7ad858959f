"""Pages and page protection.

Page size defaults to 4096 bytes, the SunOS 4.1.1 / SPARC page size of
the paper's testbed.
"""

from __future__ import annotations

import enum

PAGE_SIZE_DEFAULT = 4096


class Protection(enum.Enum):
    """Access rights of one page, as set through the simulated MMU.

    ``NONE`` is the state of a freshly allocated *protected page area*
    (reads and writes both fault); ``READ`` is the state of a filled
    cache page (first write faults, which is how dirtiness is detected);
    ``READ_WRITE`` is ordinary memory.
    """

    NONE = 0
    READ = 1
    READ_WRITE = 2

    def __init__(self, value: int) -> None:
        # Plain attributes: the fill and access paths ask once per page,
        # and a member lookup on the enum class costs more than that.
        #: Whether a load from the page succeeds.
        self.readable = value != 0
        #: Whether a store to the page succeeds.
        self.writable = value == 2


class Page:
    """One page of simulated physical memory.

    ``data`` backs the page only as far as it has been written: bytes
    past ``len(data)`` read as zeros.  A page mapped ``NONE`` — a
    protected page area, which "contains no data at this time" — starts
    with an empty buffer and grows as the runtime fills it, so a cache
    page holding one 8-byte datum costs 8 bytes, not 4 KB.  Any other
    page starts fully backed.
    """

    __slots__ = ("number", "size", "protection", "data")

    def __init__(
        self,
        number: int,
        size: int = PAGE_SIZE_DEFAULT,
        protection: Protection = Protection.READ_WRITE,
    ) -> None:
        self.number = number
        self.size = size
        self.protection = protection
        self.data = bytearray(size if protection.readable else 0)

    @property
    def base_address(self) -> int:
        """First address of the page."""
        return self.number * self.size

    def contains(self, address: int) -> bool:
        """Whether ``address`` falls inside this page."""
        return self.base_address <= address < self.base_address + self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Page(#{self.number} {self.protection.name})"
