"""The host's speed at a moment, read from a fixed reference kernel.

Other tenants of the shared host slow all of its work by up to 40%, in
spells of seconds to minutes (see README.md).  The benchmark times
this kernel right before and right after every command and every set-up,
and scales the command's or set-up's time by REFERENCE_S over the kernel's
mean time around it: a scaled time reads as the time on a host where the
kernel takes REFERENCE_S.  The kernel runs none of the program's code, so
a change to the program moves a scaled time as much as it moves the wall
time.
"""

from __future__ import annotations

import json
import time

import numpy as np

# The kernel took 3 ms to 6.5 ms on one 2.1 GHz Xeon core shared with
# other tenants; 5 ms is a round value in that range.
REFERENCE_S = 0.005
_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((96, 96))
_WIDE = _rng.standard_normal((256, 256))
_FLOATS = _rng.standard_normal(400).tolist()


def reference_s() -> float:
    """Seconds taken by one run of the kernel, the mix the program's
    commands run: interpreted float and dict work, small matrix products
    with an elementwise tanh, one 256x256 product, and an indent-2 JSON
    encoding of floats."""
    t0 = time.perf_counter()
    s, d = 0.0, {}
    for i in range(15000):
        s += (i % 7) * 0.5
        d[i & 255] = s
    b = _SMALL
    for _ in range(30):
        b = np.tanh(_SMALL @ b * 0.01)
    (_WIDE @ _WIDE).sum()
    json.dumps(_FLOATS, indent=2)
    return time.perf_counter() - t0


def scaled(seconds: float, ref_s: float) -> float:
    """`seconds` measured while the kernel took `ref_s`, as it would read
    on a host where the kernel takes REFERENCE_S."""
    return seconds * REFERENCE_S / ref_s
