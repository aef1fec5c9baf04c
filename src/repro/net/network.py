"""Non-blocking fabric with per-server NICs modeled as PS devices."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from ..sim.engine import Environment
from ..sim.events import Event, join_all
from ..storage.device import GB, TransferDevice, no_penalty

#: 10 Gbps expressed in bytes/second.
TEN_GBPS = 10e9 / 8


class NetworkError(Exception):
    """A transfer could not complete: an endpoint is down or the message
    was lost (injected fault).  Every transfer involving a dead node
    fails *deterministically* with this error — nothing hangs forever
    waiting on a NIC that will never drain."""


class NetworkInterface:
    """One server's NIC: a shared-bandwidth pipe for all its flows."""

    def __init__(self, env: Environment, node: str, bandwidth: float = TEN_GBPS):
        self.node = node
        self.device = TransferDevice(
            env, f"nic-{node}", bandwidth=bandwidth, penalty=no_penalty
        )

    @property
    def bytes_moved(self) -> float:
        return self.device.bytes_moved

    def __repr__(self) -> str:
        return f"<NetworkInterface {self.node!r}>"


class Network:
    """A full-bisection datacenter network between named servers.

    ``transfer(src, dst, nbytes)`` returns an event that fires when the
    bytes have cleared both endpoints' NICs.  Same-node transfers complete
    immediately (loopback never touches the NIC).

    Failure semantics (used by the fault injector):

    * :meth:`fail_node` marks a server down and aborts its in-flight
      flows; new transfers touching it return an already-failed event.
    * :attr:`fault_hook`, when set, is consulted per transfer and may
      drop the message (the caller sees a :class:`NetworkError` after
      ``loss_detect_timeout`` — the sender's timeout firing) or add
      delay before the bytes move.
    """

    def __init__(self, env: Environment, bandwidth: float = TEN_GBPS):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.env = env
        self.bandwidth = float(bandwidth)
        self._nics: Dict[str, NetworkInterface] = {}
        self._down: Set[str] = set()
        #: Fault hook: ``(src, dst, nbytes) -> (dropped, extra_delay)``.
        #: ``None`` (the default) is the zero-overhead clean path.
        self.fault_hook: Optional[
            Callable[[str, str, float], Tuple[bool, float]]
        ] = None
        #: How long a sender waits before declaring a lost message failed.
        self.loss_detect_timeout = 1.0
        self.transfers_failed = 0
        #: Observability facade; ``None`` is the zero-overhead clean path.
        self.obs = None

    def add_node(self, node: str, bandwidth: Optional[float] = None) -> NetworkInterface:
        """Register a server; idempotent for repeated names."""
        if node not in self._nics:
            self._nics[node] = NetworkInterface(
                self.env, node, bandwidth or self.bandwidth
            )
        return self._nics[node]

    def nic(self, node: str) -> NetworkInterface:
        if node not in self._nics:
            raise KeyError(f"unknown node {node!r}")
        return self._nics[node]

    def has_node(self, node: str) -> bool:
        return node in self._nics

    # -- failure handling ---------------------------------------------------------

    def fail_node(self, node: str) -> None:
        """Mark ``node`` down and abort every flow through its NIC.

        In-flight transfers fail with :class:`NetworkError` (the TCP
        connections reset); the peer NIC's leg of each flow keeps
        draining its residual bytes, which is harmless — the join the
        caller waits on has already failed.
        """
        if node not in self._nics:
            return
        self._down.add(node)
        aborted = self._nics[node].device.fail_all(
            NetworkError(f"node {node!r} went down mid-transfer")
        )
        self.transfers_failed += aborted

    def restore_node(self, node: str) -> None:
        """Bring a server's NIC back into service."""
        self._down.discard(node)

    def node_is_down(self, node: str) -> bool:
        return node in self._down

    # -- data path ---------------------------------------------------------------

    def transfer(self, src: str, dst: str, nbytes: float, tag=None) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``; returns a done event."""
        legs = self.transfer_legs(src, dst, nbytes, tag)
        if len(legs) == 1:
            return legs[0]
        # Callers synchronize on the pair and never read the value: a
        # countdown join.
        return join_all(self.env, legs)

    def transfer_legs(
        self, src: str, dst: str, nbytes: float, tag=None
    ) -> Tuple[Event, ...]:
        """Start a transfer; return the events that together complete it.

        That is ``(send, recv)``, one leg per NIC, on the fault-free
        path; one refused, lost or delayed event on a fault path; and
        nothing for a same-node copy.  A caller that joins the transfer
        with other work (a remote block read) counts these directly in
        its own join instead of waiting on a join of its own.

        >>> from repro.sim import Environment
        >>> env = Environment()
        >>> net = Network(env, bandwidth=100.0)
        >>> _ = net.add_node("a"), net.add_node("b")
        >>> send, recv = net.transfer_legs("a", "b", 50.0)
        >>> env.run()
        >>> send.ok, recv.ok, env.now
        (True, True, 0.5)
        """
        legs = self._legs(src, dst, nbytes, tag)
        if self.obs is not None:
            self.obs.on_net_transfer(src, dst, nbytes, tag, legs)
        return legs

    def _legs(self, src: str, dst: str, nbytes: float, tag) -> Tuple[Event, ...]:
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if self._down and (src in self._down or dst in self._down):
            return (self._refuse(src, dst, tag),)
        hook = self.fault_hook
        if hook is not None:
            dropped, extra_delay = hook(src, dst, nbytes)
            if dropped:
                return (self._lose(src, dst, tag),)
            if extra_delay > 0:
                done = Event(self.env)
                self.env.process(
                    self._delayed(src, dst, nbytes, tag, extra_delay, done),
                    name="net-delay",
                )
                return (done,)
        return self._legs_now(src, dst, nbytes, tag)

    def _legs_now(self, src: str, dst: str, nbytes: float, tag) -> Tuple[Event, ...]:
        if src == dst:
            return ()
        src_nic = self.nic(src)
        dst_nic = self.nic(dst)
        return (
            src_nic.device.transfer(nbytes, tag=tag),
            dst_nic.device.transfer(nbytes, tag=tag),
        )

    def _refuse(self, src: str, dst: str, tag) -> Event:
        """A transfer touching a down node fails immediately and
        deterministically — connection refused, not a hang."""
        down = src if src in self._down else dst
        self.transfers_failed += 1
        done = Event(self.env)
        done.fail(NetworkError(f"cannot transfer {tag!r}: node {down!r} is down"))
        return done

    def _lose(self, src: str, dst: str, tag) -> Event:
        """An injected message loss: the sender only learns after its
        detection timeout elapses."""
        self.transfers_failed += 1
        done = Event(self.env)

        def report():
            yield self.env.timeout(self.loss_detect_timeout)
            done.fail(
                NetworkError(f"transfer {tag!r} {src}->{dst} lost (injected)")
            )

        self.env.process(report(), name="net-loss")
        return done

    def _delayed(self, src, dst, nbytes, tag, delay: float, done: Event):
        """Injected extra latency before the bytes move."""
        yield self.env.timeout(delay)
        if self._down and (src in self._down or dst in self._down):
            down = src if src in self._down else dst
            self.transfers_failed += 1
            done.fail(NetworkError(f"cannot transfer {tag!r}: node {down!r} is down"))
            return
        try:
            yield join_all(self.env, self._legs_now(src, dst, nbytes, tag))
        except NetworkError as error:
            done.fail(error)
            return
        done.succeed(None)
