"""A :class:`Mem` held to the checked plane, the oracle for tokens.

Token acquisition always misses on the returned accessor, so every
load and store takes ``AddressSpace.read``/``write`` and the
fault-retry loop — the behaviour the token fast path must reproduce.
"""

from repro.memory.accessor import Mem
from repro.memory.address_space import AddressSpace


def checked_mem(space: AddressSpace, **options) -> Mem:
    """A ``Mem`` over ``space`` whose every access is checked."""
    mem = Mem(space, **options)
    mem._token = lambda page_number: None
    return mem
