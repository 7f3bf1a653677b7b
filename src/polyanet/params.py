"""Parameters of a finite-memory interacting Polya urn network.

Raw configurations hold exact integer ball counts.  :func:`normalize`
converts them once into the per-urn fractions used by every analysis
routine: ``rho`` (initial red fraction) and the reinforcement ratios
``delta_r``, ``delta_b`` (balls added after a red or black draw,
relative to the initial total).  All downstream math works in these
normalized units; only the stochastic simulator touches raw counts
again.

:func:`red_ratio_table` is the one evaluator of an urn's red fraction
given the red draws in its window; the exact chain and both mean-field
maps read it.  :func:`check_interaction_matrix` and
:func:`clamp_probability` are the shared input and output checks.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-12
PROB_TOL = 1e-12

log = logging.getLogger("polyanet")


# Ball counts must be below this in magnitude: every integer below it is
# exact as a float, so the checks below and the cast to int64 see the
# value that was given.
MAX_COUNT = 2**53


def _int_vector(value, n: int, name: str) -> np.ndarray:
    # Booleans and strings are refused before NumPy coerces them:
    # [True, 2] would become [1, 2] and "3" would become 3.0.
    for item in np.asarray(value, dtype=object).ravel():
        if isinstance(item, (bool, np.bool_, str, bytes)):
            raise ValueError(f"{name} must hold integers (raw ball counts), got {item!r}")
    arr = np.asarray(value)
    if arr.ndim == 0:
        arr = np.full(n, arr)
    if arr.shape != (n,):
        raise ValueError(
            f"{name} must be a scalar or length-{n} vector, got shape {arr.shape}"
        )
    try:
        as_float = arr.astype(float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must hold integers (raw ball counts)") from None
    if not np.all(np.abs(as_float) < MAX_COUNT):
        raise ValueError(f"{name} must hold finite counts below 2**53")
    if not np.array_equal(np.rint(as_float), as_float):
        raise ValueError(f"{name} must hold integers (raw ball counts)")
    return as_float.astype(np.int64)


def check_interaction_matrix(S) -> np.ndarray:
    """Validate an interaction matrix: square, nonnegative, rows sum to 1.

    Rows off by more than ``ROW_SUM_TOL`` (absolute) are rejected rather
    than silently renormalized, so mis-specified weights fail loudly.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"interaction matrix must be square, got shape {S.shape}")
    if S.shape[0] == 0:
        raise ValueError("interaction matrix must have at least one row")
    if not np.all(np.isfinite(S)):
        raise ValueError("interaction matrix entries must be finite")
    if np.any(S < 0):
        raise ValueError("interaction matrix entries must be nonnegative")
    err = np.abs(S.sum(axis=1) - 1.0)
    worst = int(np.argmax(err))
    if err[worst] > ROW_SUM_TOL:
        raise ValueError(
            f"interaction matrix row {worst} sums to {float(S[worst].sum())}; "
            f"rows must sum to 1 within {ROW_SUM_TOL}"
        )
    return S


def clamp_probability(x, what: str = "probability"):
    """Clip floating-point overshoot into [0, 1].

    Overshoot beyond ``PROB_TOL`` indicates a logic error, not rounding
    noise, and raises, as does a NaN or an infinity.  Clamping events are
    logged at debug level.
    """
    arr = np.asarray(x, dtype=float)
    # min and max carry a NaN through; the initial values make over >= 0
    over = max(-float(arr.min(initial=0.0)), float(arr.max(initial=1.0)) - 1.0)
    if not math.isfinite(over):
        raise ValueError(f"{what} is not finite")
    if over > PROB_TOL:
        raise ValueError(f"{what} outside [0, 1] by {over:.3e}")
    if over > 0.0:
        log.debug("clamping %s into [0, 1], overshoot %.3e", what, over)
        arr = np.clip(arr, 0.0, 1.0)
    if np.ndim(x) == 0:
        return float(arr)
    return np.asarray(arr)


@dataclass
class RawConfig:
    """Integer-valued urn setup plus the interaction matrix.

    Attributes
    ----------
    memory : int
        Window length M >= 1; reinforcement added at time t is retired
        after the (t+M)-th draw.
    initial_red, initial_total : array of int
        Ball counts per urn at time 0; ``0 <= red <= total``, total > 0.
    reinforce_red, reinforce_black : array of int
        Balls added after a red (resp. black) draw, per urn.
    interaction : ndarray
        N x N row-stochastic mixing matrix; row i weighs how much each
        urn's composition drives urn i's next draw.
    """

    memory: int
    initial_red: np.ndarray
    initial_total: np.ndarray
    reinforce_red: np.ndarray
    reinforce_black: np.ndarray
    interaction: np.ndarray

    def __post_init__(self):
        self.interaction = check_interaction_matrix(self.interaction)
        n = self.interaction.shape[0]
        if int(self.memory) != self.memory or self.memory < 1:
            raise ValueError("memory must be a positive integer")
        self.memory = int(self.memory)
        self.initial_red = _int_vector(self.initial_red, n, "initial_red")
        self.initial_total = _int_vector(self.initial_total, n, "initial_total")
        self.reinforce_red = _int_vector(self.reinforce_red, n, "reinforce_red")
        self.reinforce_black = _int_vector(self.reinforce_black, n, "reinforce_black")
        if np.any(self.initial_total <= 0):
            raise ValueError("initial_total must be positive for every urn")
        if np.any(self.initial_red < 0) or np.any(self.initial_red > self.initial_total):
            raise ValueError("initial_red must satisfy 0 <= red <= total for every urn")
        if np.any(self.reinforce_red < 0) or np.any(self.reinforce_black < 0):
            raise ValueError("reinforcement counts must be nonnegative")

    @property
    def n_urns(self) -> int:
        return self.interaction.shape[0]


@dataclass
class NetworkParams:
    """Normalized per-urn parameters."""

    memory: int
    rho: np.ndarray
    delta_r: np.ndarray
    delta_b: np.ndarray

    def __post_init__(self):
        if int(self.memory) != self.memory or self.memory < 1:
            raise ValueError("memory must be a positive integer")
        self.memory = int(self.memory)
        self.rho = np.atleast_1d(np.asarray(self.rho, dtype=float))
        n = self.rho.shape[0]
        self.delta_r = self._coerce(self.delta_r, n, "delta_r")
        self.delta_b = self._coerce(self.delta_b, n, "delta_b")
        if np.any(self.rho < 0) or np.any(self.rho > 1):
            raise ValueError("rho must lie in [0, 1] for every urn")
        if np.any(self.delta_r < 0) or np.any(self.delta_b < 0):
            raise ValueError("delta_r and delta_b must be nonnegative")

    @staticmethod
    def _coerce(value, n, name) -> np.ndarray:
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            arr = np.full(n, float(arr))
        if arr.shape != (n,):
            raise ValueError(f"{name} must be a scalar or length-{n} vector")
        return arr

    @property
    def n_urns(self) -> int:
        return self.rho.shape[0]

    @classmethod
    def homogeneous(cls, n_urns: int, memory: int, rho: float, delta: float) -> "NetworkParams":
        """All urns identical with delta_r == delta_b == delta."""
        return cls(
            memory=memory,
            rho=np.full(n_urns, float(rho)),
            delta_r=np.full(n_urns, float(delta)),
            delta_b=np.full(n_urns, float(delta)),
        )


def normalize(raw: RawConfig) -> NetworkParams:
    """Convert raw ball counts into normalized fractions.

    Rejects networks whose reinforcement is zero for every urn: such a
    process never changes composition and the normalized analysis
    assumes otherwise.
    """
    if np.all(raw.reinforce_red + raw.reinforce_black == 0):
        raise ValueError("reinforcement is zero for every urn")
    T = raw.initial_total.astype(float)
    return NetworkParams(
        memory=raw.memory,
        rho=raw.initial_red / T,
        delta_r=raw.reinforce_red / T,
        delta_b=raw.reinforce_black / T,
    )


def red_ratio_table(params: NetworkParams) -> np.ndarray:
    """Table ``[urn, k]`` of red fractions for ``k`` red draws in the window.

    Entry ``[j, k]`` is ``(rho + k*delta_r) / (1 + k*delta_r + (M-k)*delta_b)``
    for urn j, nondecreasing in ``k``.  Reinforcement amounts are
    constant in time, so only the number of red draws in a window
    matters, not their order.
    """
    k = np.arange(params.memory + 1, dtype=float)[None, :]
    dr = params.delta_r[:, None]
    db = params.delta_b[:, None]
    num = params.rho[:, None] + k * dr
    den = 1.0 + k * dr + (params.memory - k) * db
    return clamp_probability(num / den, what="red ratio table")
