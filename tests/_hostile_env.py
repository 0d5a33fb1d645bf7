"""A hostile environment for replay tests: jumping clocks, reseeded globals.

A scheduling decision may read only simulated time and seeded streams.
:func:`hostile_environment` makes every other input loud: the wall and
measurement clocks jump forward by random amounts (from a microsecond to
hours) on every read, and the global ``random`` / ``numpy.random``
states are reseeded.  A run whose schedule still matches its golden
fingerprint under it replays bit-identically whatever the machine's
speed or the process's history.
"""

from __future__ import annotations

import random
import sys
import time

import numpy as np

_CLOCKS = (
    "time",
    "perf_counter",
    "monotonic",
    "time_ns",
    "perf_counter_ns",
    "monotonic_ns",
)


def hostile_environment(monkeypatch, seed: int) -> None:
    """Replace the clocks and reseed the global RNGs for one test.

    ``time.time``/``perf_counter``/``monotonic`` (and their ``_ns``
    forms) all read one strictly increasing fake clock that jumps by a
    log-uniform random step between 1 µs and ~3 h per read.  Module
    globals under ``repro`` that hold the original functions by identity
    (``from time import perf_counter``) are rebound too.  The patches are
    undone with ``monkeypatch``; the global RNG states stay reseeded.
    """
    jumps = np.random.default_rng(seed)
    now = [1.7e9]

    def tick() -> float:
        now[0] += 10.0 ** jumps.uniform(-6.0, 4.0)
        return now[0]

    def tick_ns() -> int:
        return int(tick() * 1e9)

    fakes = {
        name: tick_ns if name.endswith("_ns") else tick for name in _CLOCKS
    }
    originals = {id(getattr(time, name)): name for name in _CLOCKS}
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            name = originals.get(id(value))
            if name is not None:
                monkeypatch.setattr(module, attr, fakes[name])
    for name, fake in fakes.items():
        monkeypatch.setattr(time, name, fake)
    # Deliberate global reseeding: a decision that draws from either
    # global stream changes with the seed and misses its golden.
    random.seed(seed)  # repro-lint: disable=REP002
    np.random.seed(seed)  # repro-lint: disable=REP002
