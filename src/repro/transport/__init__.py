"""Message-passing transport layer: one protocol, two backends.

Cross-node control traffic is a typed message
(:mod:`~repro.transport.messages`) delivered through a
:class:`~repro.transport.base.Transport`:

* :class:`~repro.transport.sim.SimTransport` — synchronous in-process
  dispatch preserving the simulator's direct-call delivery order
  exactly (the default; outputs stay byte-identical).  The simulated
  cluster registers exactly two kinds of endpoint: ``"master"``
  (client migrate/evict requests and the heat policy's promote/demote
  requests) and ``"slave/<n>"`` (the master's batched migrate/evict
  commands and failover announcements).  The simulated data plane —
  namespace lookups, block reads and writes, re-replication — stays on
  direct calls against the device models;
* :class:`~repro.transport.aio.AsyncioTransport` — the same protocol
  over real TCP sockets on localhost, used by ``python -m repro real``
  (:mod:`~repro.transport.real`), which also carries namespace
  lookups, heartbeats and block reads/writes as messages.

The package does not import the asyncio backend, so a simulated run
never loads asyncio; import it from :mod:`repro.transport.aio`.
"""

from ..net.network import NetworkError
from .base import Transport
from .sim import SimTransport

__all__ = ["NetworkError", "SimTransport", "Transport"]
