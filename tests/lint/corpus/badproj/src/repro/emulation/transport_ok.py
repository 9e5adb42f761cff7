"""True-negative twin of transport_bad: the allowed boundary imports,
a non-mlg import, and a relative import."""

import numpy as np

from repro.mlg import protocol
from repro.mlg.transport import ServerSession, as_transport

from .behavior import make_behavior


def boundary_only(target) -> ServerSession:
    session = as_transport(target).session()
    assert protocol.PacketCategory.CHAT
    assert np is not None and make_behavior is not None
    return session
