"""A home that cannot encode its own data fails the request, not the
session, on every carrier.

The home ships a datum by packing it as its walk reaches it; a value
the wire format cannot carry (here an enum field holding a number
that names no member) raises an ``XdrError`` there.  The DATA_REPLY's
error envelope carries it back, so the requester raises a
``SmartRpcError`` naming the home and the cause, the session stays
open, and later requests go through.
"""

import pytest

from repro.bench.harness import CALLER, SHM, SIMNET, TCP, make_world
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.long_pointer import LongPointer
from repro.xdr.types import EnumType, Field, StructType, int32

COLOR = EnumType("color", {"RED": 0, "GREEN": 1})
PAINTED = StructType("painted", [Field("c", COLOR), Field("v", int32)])


def painted(runtime, color):
    """A ``painted`` datum in ``runtime``'s heap with ``c = color``."""
    address = runtime.heap.malloc(PAINTED.sizeof(runtime.arch), "painted")
    for offset, word in ((0, color), (4, 5)):
        runtime.space.write_raw(
            address + offset,
            word.to_bytes(4, runtime.arch.byteorder, signed=True),
        )
    return address


@pytest.mark.parametrize("transport", [SIMNET, TCP, SHM])
def test_an_unencodable_datum_fails_the_request_not_the_session(transport):
    with make_world("lazy", transport=transport) as world:
        home, requester = world.caller, world.callee
        for runtime in (home, requester):
            runtime.resolver.register("painted", PAINTED)
        bad = painted(home, 9)
        good = painted(home, 1)
        with home.session() as session:
            state = requester.ensure_smart_session(session.session_id, CALLER)
            swizzle = state.swizzler.swizzle
            local = swizzle(LongPointer(CALLER, bad, "painted"))
            with pytest.raises(SmartRpcError) as failed:
                requester.mem.load(local, 4)
            assert str(failed.value) == (
                f"data request to {CALLER!r} failed: "
                "9 is not a member of enum 'color'"
            )
            assert state.abort_reason is None
            # The session carries on: the next request is served.
            local = swizzle(LongPointer(CALLER, good, "painted"))
            assert requester.mem.load(local + 4, 4) == (5).to_bytes(
                4, requester.arch.byteorder
            )
        assert world.stats.sessions_aborted == 0
