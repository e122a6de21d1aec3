"""Deterministic random streams derived from a single root seed.

Every random consumer in the package asks for a stream by name instead of
sharing one generator. Adding a new consumer therefore never perturbs the
draws of existing ones, which is what keeps experiment outputs byte-stable
across code growth.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _digest(root_seed: int, labels: tuple) -> bytes:
    h = hashlib.sha256(str(int(root_seed)).encode())
    for lab in labels:
        h.update(b"|")
        h.update(str(lab).encode())
    return h.digest()


def stream(root_seed: int, *labels: object) -> np.random.Generator:
    """Return a fresh Generator for (root_seed, labels).

    labels are stable strings or integers identifying the purpose of the
    stream, e.g. stream(seed, "tasks", 3). The same arguments always yield
    a generator producing the same draws.
    """
    return np.random.default_rng(int.from_bytes(_digest(root_seed, labels)[:16], "big"))


def spawn_seed(root_seed: int, *labels: object) -> int:
    """Like stream() but returns the derived integer seed itself.

    Useful when a seed has to be recorded in a report or handed to a
    subprocess rather than consumed immediately.
    """
    return int.from_bytes(_digest(root_seed, labels)[:8], "big")
