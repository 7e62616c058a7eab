"""Named symmetric state families used by the CLI and the test fixtures."""
from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError
from .states import SymmetricState, from_dicke

#: Excluded parameters of the four-qubit family: at mu = +-1/sqrt(3) the
#: roots degenerate into two double points.
GHZ4_EXCLUDED = (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0))


def _check_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"qubit count must be positive, got {n}")


def ghz_state(n: int) -> SymmetricState:
    """(|s,-s> + |s,s>)/sqrt(2)."""
    _check_positive(n)
    amps = np.zeros(n + 1, dtype=complex)
    amps[0] = amps[n] = 1.0
    return from_dicke(n, amps)


def w_state(n: int) -> SymmetricState:
    """Single-excitation Dicke state |s, m = -s+1>."""
    if n < 2:
        raise ValueError("W state needs n >= 2")
    return dicke_state(n, 1)


def dicke_state(n: int, weight: int) -> SymmetricState:
    """Basis state |s, m> with s + m = weight excited qubits."""
    _check_positive(n)
    if not 0 <= weight <= n:
        raise ValueError(f"weight must lie in 0..{n}, got {weight}")
    amps = np.zeros(n + 1, dtype=complex)
    amps[weight] = 1.0
    return from_dicke(n, amps)


def ghz4_family(mu: complex) -> SymmetricState:
    """Normalized |GHZ_4> + mu |D_4^(2)>, the generic four-qubit SLOCC family."""
    mu = complex(mu)
    if any(abs(mu - x) < 1e-12 for x in GHZ4_EXCLUDED):
        raise DegenerateInputError(
            "mu = +-1/sqrt(3) is excluded (roots degenerate)"
        )
    amps = np.array([1.0 / np.sqrt(2.0), 0.0, mu, 0.0, 1.0 / np.sqrt(2.0)])
    return from_dicke(4, amps)
