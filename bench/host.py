"""Host speed probe, to take the shared machine's slow spells out of the figures.

On a shared two-core host the same CPU work takes up to ~40% longer for
minutes at a time, far more than any bound a change could be judged by. The
probe times a fixed kernel shaped like the program's own work (small float32
GEMMs and gate nonlinearities at the model's sizes, JSON parsing and token
counting in Python) right before and after every timed CLI call. A call's
time divided by the probe's slowdown against `REFERENCE_S` is its time on a
host running at reference speed. The probe never runs program code, so a
change to the program moves the corrected figure exactly as it moves the
wall time.
"""

import json
import time

import numpy as np

# Probe time the corrected figures are scaled to: about what it takes on
# an idle core of the host the benchmark was written on.
REFERENCE_S = 0.025

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((100, 384), dtype=np.float32)
_U = _rng.standard_normal((128, 384), dtype=np.float32)
# (inputs, states, repeats): a training batch and an inference chunk
_GEMMS = [
    (_rng.standard_normal((rows, 100), dtype=np.float32),
     _rng.standard_normal((rows, 128), dtype=np.float32), reps)
    for rows, reps in ((64, 50), (512, 6))
]
_LINES = [
    json.dumps({"id": str(i), "postText": [" ".join(f"w{(i * 7 + j) % 997}" for j in range(10))]})
    for i in range(3000)
]


def probe() -> float:
    """Seconds the fixed kernel takes now."""
    start = time.perf_counter()
    for x, h, reps in _GEMMS:
        for _ in range(reps):
            a = x @ _W + h @ _U
            np.tanh(a[:, :128]) * (1.0 / (1.0 + np.exp(-a[:, 128:256])))
    counts: dict[str, int] = {}
    for line in _LINES:
        for tok in json.loads(line)["postText"][0].lower().split():
            counts[tok] = counts.get(tok, 0) + 1
    return time.perf_counter() - start
