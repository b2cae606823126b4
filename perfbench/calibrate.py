"""Reference kernels that measure how fast the machine runs right now.

The 2-core virtual machine the baseline was measured on runs the same code
up to 1.5 times slower for seconds to minutes at a time, because of other
load on its host.  A
fixed kernel timed between the iterations slows down with it, so dividing
each iteration's time by the kernel times around it removes the host's
speed from the result, while a change to djcsim still moves it in full.

Each kernel is a classic RK4 loop over a packed complex vector of the same
shape and the same kind of numpy work as the workload it calibrates; the
"sampled" kernel also observes every step and writes and parses the rows as
CSV text, as a sweep that samples every step does.  The kernels share no
code with djcsim, and their step counts are fixed, so their cost never
changes with the program under test.
"""

from __future__ import annotations

import time

import numpy as np

#: kernel name -> (modes, RK4 steps, seconds one call took at reference speed)
#: The reference seconds are each kernel's median on the 2-core Intel Xeon
#: (2.1 GHz) virtual machine that produced baseline.json; they only set the
#: scale of the normalised times, so that those read as seconds on it.
KERNELS = {
    "single": (99, 1500, 0.13),
    "sampled": (99, 8000, 0.85),
    "double": (49, 300, 0.08),
}


def _comb(n):
    delta = np.linspace(-1.0, 1.0, n)
    g = np.full(n, 0.05)
    return delta, g


def _single_deriv(n):
    delta, g = _comb(n)

    def deriv(y):
        out = np.empty_like(y)
        out[0] = g @ y[2:2 + n]
        out[1] = g @ y[2 + n:]
        out[2:2 + n] = -1j * delta * y[2:2 + n] - g * y[0]
        out[2 + n:] = -1j * delta * y[2 + n:] - g * y[1]
        return out

    return deriv, 2 + 2 * n


def _double_deriv(n):
    delta, g = _comb(n)
    pair = delta[:, None] + delta[None, :]

    def deriv(y):
        b, c, d = y[2:2 + n], y[2 + n:2 + 2 * n], y[2 + 2 * n:].reshape(n, n)
        out = np.empty_like(y)
        out[0] = 0.0
        out[1] = -(g @ b) - (g @ c)
        out[2:2 + n] = -1j * delta * b + g * y[1] - g @ d
        out[2 + n:2 + 2 * n] = -1j * delta * c + g * y[1] - d @ g
        out[2 + 2 * n:] = (-1j * pair * d + np.outer(g, b) + np.outer(c, g)).ravel()
        return out

    return deriv, 2 + 2 * n + n * n


_BUILD = {"single": _single_deriv, "sampled": _single_deriv, "double": _double_deriv}


def _observe(y, n):
    a, b = y[0], y[1]
    pop_a = float(np.sum(np.abs(y[2:2 + n]) ** 2))
    pop_b = float(np.sum(np.abs(y[2 + n:]) ** 2))
    pops = (abs(a) ** 2, abs(b) ** 2, pop_a, pop_b)
    return (2.0 * abs(a * b.conjugate()),) + pops + (sum(pops), a.real, a.imag, b.real, b.imag)


def _csv_round_trip(rows):
    text = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
    parsed = [[float(v) for v in line.split(",")] for line in text.splitlines()]
    return np.array(parsed)


def run_kernel(name):
    """Seconds one call of the named kernel takes now."""
    n, steps, _ = KERNELS[name]
    deriv, dim = _BUILD[name](n)
    y = np.zeros(dim, dtype=complex)
    y[1] = 1.0
    h = 0.01
    rows = []
    start = time.perf_counter()
    for _ in range(steps):
        k1 = deriv(y)
        k2 = deriv(y + (0.5 * h) * k1)
        k3 = deriv(y + (0.5 * h) * k2)
        k4 = deriv(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if name == "sampled":
            rows.append(_observe(y, n))
    if rows:
        y = _csv_round_trip(rows)
    seconds = time.perf_counter() - start
    if not np.isfinite(y).all():
        raise ArithmeticError(f"calibration kernel {name} diverged")
    return seconds


def normalise(walls, kernel_s, name):
    """Each wall time scaled to reference speed by the kernel calls around it.

    kernel_s has one more entry than walls: kernel_s[i] ran just before
    iteration i and kernel_s[i + 1] just after it.
    """
    reference = KERNELS[name][2]
    return [wall * reference / (0.5 * (kernel_s[i] + kernel_s[i + 1]))
            for i, wall in enumerate(walls)]
