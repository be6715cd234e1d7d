"""A fixed stdlib+numpy computation that gauges how fast the machine is right now.

On a shared virtual machine the CPU speed a process gets drifts by 20-50%
over tens of seconds, and dips for shorter spells, as neighbours come and go.
The worker times this short computation every tenth of a second between the
workload's operations, so the readings see the machine as the operations do,
and divides each stretch of workload time by the mean reading of that
stretch. That cancels most of the drift while leaving any change to
ultrabase in full view: nothing here imports ultrabase, so no change to it
can move the reference.

The mix follows the workloads' own: decimal tokens split out of CSV text and
parsed to ``Fraction`` (with a cache, as ultrabase's values layer does),
dict and list building in Python loops, and numpy triangle sweeps over a
160-point code matrix.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import numpy as np

_rng = random.Random(0)
_N = 160
_SPELLINGS = [f"{_rng.randrange(1, 10_000) / 1000:.3f}" for _ in range(40)]
_TEXT = "\n".join(",".join(_rng.choice(_SPELLINGS) for _ in range(_N)) for _ in range(12))
_CODES = np.array([[_rng.randrange(40) for _ in range(_N)] for _ in range(_N)])


def _once() -> None:
    cache: dict[str, Fraction] = {}
    rows = [line.split(",") for line in _TEXT.splitlines()]
    values = [[cache[tok] if tok in cache else cache.setdefault(tok, Fraction(tok)) for tok in row]
              for row in rows]
    order = {v: i for i, v in enumerate(sorted(set(cache.values())))}
    codes = [[order[v] for v in row] for row in values]
    for k in range(0, _N, 40):
        np.count_nonzero(_CODES > np.maximum.outer(_CODES[:, k], _CODES[k, :]))
    pairs = {(i, j): max(codes[i][j], codes[j][i]) for i in range(len(codes)) for j in range(i)}
    json.dumps({f"{i}-{j}": v for (i, j), v in pairs.items()})


def seconds() -> float:
    """Seconds one run of the reference computation takes now (about 3 ms)."""
    t0 = time.perf_counter()
    _once()
    return time.perf_counter() - t0
