"""The Transport interface: named endpoints exchanging typed messages.

A transport carries :mod:`~repro.transport.messages` between *endpoints*
— string-named message handlers ("master", "slave/node0", and on the
real backend also "namenode" and "datanode/node3").  Two verbs cover
every interaction in the system:

* :meth:`Transport.request` — request/reply: deliver a message, return
  the handler's reply (RPC semantics; commands, namespace lookups,
  block reads/writes);
* :meth:`Transport.send` — one-way: deliver and forget (failover
  announcements).

Delivery to an unknown or dead endpoint raises
:class:`~repro.net.network.NetworkError` — the same exception the data
plane uses, so callers have one failure surface for "the other side is
unreachable".
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..net.network import NetworkError

__all__ = ["Transport", "NetworkError"]


class Transport:
    """Base class: the endpoint registry.

    Subclasses implement the delivery verbs.  ``register`` overwrites an
    existing registration — restart and HA double-registration both
    re-register the same endpoint name, and last-writer-wins is the
    correct semantics for a process that replaced its predecessor.
    """

    def __init__(self) -> None:
        self._endpoints: Dict[str, Callable] = {}

    # -- endpoints ---------------------------------------------------------------

    def register(self, name: str, handler: Callable) -> None:
        """Bind ``name`` to a message handler (``handler(msg) -> reply``)."""
        if not name:
            raise ValueError("endpoint name must be non-empty")
        self._endpoints[name] = handler

    def deregister(self, name: str) -> None:
        self._endpoints.pop(name, None)

    def endpoints(self) -> List[str]:
        return sorted(self._endpoints)

    def _handler(self, endpoint: str) -> Callable:
        handler = self._endpoints.get(endpoint)
        if handler is None:
            raise NetworkError(f"endpoint {endpoint!r} is not registered")
        return handler

    # -- delivery verbs ----------------------------------------------------------

    def request(self, endpoint: str, message):
        """Deliver ``message`` and return the endpoint's reply."""
        raise NotImplementedError

    def send(self, endpoint: str, message) -> None:
        """Deliver ``message`` one-way (no reply)."""
        raise NotImplementedError
