"""SimTransport: in-process delivery preserving direct-call semantics.

The simulator's determinism contract requires that putting the
message-passing seam between components changes *nothing* observable:
delivery must be synchronous, in program order, and must hand the
destination the **original** message objects (the DST differential
model taps command identity at the delivery boundary, and
``MigrationWorkItem`` equality/priority depends on the ``seq`` values
already stamped at construction — re-encoding would consume fresh
counter values and perturb tie-breaks).

``SimTransport`` is therefore a dict dispatch: ``request`` looks up the
endpoint and calls its handler inline.  No queue, no serialisation, no
simulated latency — RPC latency and loss live where they always did,
in the caller's retry machinery (``core.master._CommandTimer``), fed by the
simulation clock.  The codec still *works* on every message (the
round-trip property suite proves it); the sim just never needs it.
"""

from __future__ import annotations

from .base import NetworkError, Transport

__all__ = ["SimTransport", "NetworkError"]


class SimTransport(Transport):
    """Synchronous in-process transport (the default backend)."""

    def request(self, endpoint: str, message):
        return self._handler(endpoint)(message)

    def send(self, endpoint: str, message) -> None:
        self._handler(endpoint)(message)
