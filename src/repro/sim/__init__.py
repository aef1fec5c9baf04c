"""Discrete-event simulation kernel.

A small, self-contained, generator-based DES in the style of SimPy:

>>> from repro.sim import Environment
>>> env = Environment()
>>> def clock(env, results):
...     while env.now < 3:
...         results.append(env.now)
...         yield env.timeout(1)
>>> ticks = []
>>> _ = env.process(clock(env, ticks))
>>> env.run()
>>> ticks
[0.0, 1.0, 2.0]
"""

from .engine import Environment, StopSimulation
from .events import (
    Event,
    Interrupt,
    SimulationError,
    Timeout,
    join_all,
)
from .process import Process
from .rand import RandomSource, derive_seed
from .resources import PriorityStore

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "PriorityStore",
    "Process",
    "RandomSource",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "derive_seed",
    "join_all",
]
