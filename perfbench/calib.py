"""A fixed reference kernel that measures how fast the machine is now.

The benchmark's VM changes speed by up to 2x for minutes at a time
(neighbours on the host, not the program), which moves whole runs and
puts the wall-clock figures of ten runs far apart.  `sample()` times a
fixed piece of work that looks like ffjac's inner loops (Euclidean row
steps on a small polynomial matrix over F_p, with the coefficients in
short numpy int64 arrays driven from Python) but uses nothing of ffjac,
so a change to the library cannot move it.  The benchmark runs it
between rounds and divides each round's times by the kernel's current
slowdown against `REFERENCE_S`.

`REFERENCE_S` is the kernel's time on the reference machine (README.md,
"Reference figures"); a normalised time reads as the time the operation
would take there.
"""

import random
import time

import numpy as np

P = 32771
ROWS = 5
DEGREE = 9
# Seconds for one run of the kernel on the reference machine.
REFERENCE_S = 0.0044


def _matrix():
    rng = random.Random("perfbench-calib")
    return [[np.array([rng.randrange(P) for _ in range(DEGREE + 1)],
                      dtype=np.int64) for _ in range(ROWS)]
            for _ in range(ROWS)]


MATRIX = _matrix()


def _trim(a):
    n = a.size
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _quo(a, b):
    db = b.size - 1
    inv = pow(int(b[-1]), -1, P)
    q = np.zeros(a.size - db, dtype=np.int64)
    rem = a.copy()
    for k in range(a.size - b.size, -1, -1):
        c = int(rem[k + db]) % P
        if c:
            c = c * inv % P
            q[k] = c
            rem[k:k + db] = (rem[k:k + db] - c * b[:db]) % P
    return _trim(q)


def _sub_scaled(ra, rb, q):
    for j in range(len(ra)):
        if not rb[j].size:
            continue
        prod = np.convolve(q, rb[j]) % P
        a = ra[j]
        if a.size >= prod.size:
            out = a.copy()
            out[:prod.size] = (out[:prod.size] - prod) % P
        else:
            out = (-prod) % P
            out[:a.size] = (out[:a.size] + a) % P
        ra[j] = _trim(out)


def kernel():
    """Triangularise MATRIX by gcd chains down each column; returns the
    degrees of the diagonal so the work cannot be skipped."""
    work = [list(row) for row in MATRIX]
    for j in range(ROWS):
        while True:
            cand = [i for i in range(j, ROWS) if work[i][j].size]
            if len(cand) <= 1:
                break
            best = min(cand, key=lambda i: (work[i][j].size, i))
            for i in cand:
                if i != best:
                    _sub_scaled(work[i], work[best],
                                _quo(work[i][j], work[best][j]))
        if cand and cand[0] != j:
            work[j], work[cand[0]] = work[cand[0]], work[j]
    return [work[j][j].size for j in range(ROWS)]


def sample():
    """Seconds for one run of the kernel now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def slowdown(runs=4):
    """How much slower than the reference machine the kernel runs now,
    over `runs` runs."""
    return sum(sample() for _ in range(runs)) / (runs * REFERENCE_S)
