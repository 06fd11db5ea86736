"""Per-task routing backends realizing a fractional split.

The optimizer hands back *rates* ``lambda'_i``; a dispatcher must turn
them into a *decision per task*.  Two backends with identical long-run
behaviour and different short-run character:

:class:`SmoothWeightedRoundRobinRouter`
    Nginx-style smooth WRR: deterministic, maximally spread decisions
    whose empirical frequencies track the weights within one task over
    any prefix.  The per-server substreams are more regular than
    Poisson (slightly *less* waiting than the analytic model assumes).

:class:`AliasTableRouter`
    Walker alias-table sampling: i.i.d. decisions in O(1) per task with
    an O(n) rebuild on weight change.  Bernoulli splitting of a Poisson
    stream gives exactly the paper's model in distribution, so this is
    the backend the closed-loop validation and the plain DES use.

Both support in-place weight updates — the controller swaps splits
while traffic flows.  Weights may contain zeros (failed or deliberately
starved servers); routers never pick a zero-weight server.

State-aware policies (power-of-d, join-idle-queue) and the policy
registry live in :mod:`repro.runtime.policies`; the two classes here
are registered there under ``"swrr"``/``"wrr"`` and ``"alias"`` and
implement its :class:`~repro.runtime.policies.RouterPolicy` protocol
(``pick`` accepts — and ignores — the live queue state).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.exceptions import ParameterError

__all__ = ["SmoothWeightedRoundRobinRouter", "AliasTableRouter"]


def _normalize(weights: Sequence[float], n_expected: int | None) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ParameterError("weights must be a non-empty 1-D sequence")
    if n_expected is not None and w.size != n_expected:
        raise ParameterError(f"expected {n_expected} weights, got {w.size}")
    if np.any(~np.isfinite(w)) or np.any(w < 0.0):
        raise ParameterError("weights must be finite and >= 0")
    total = w.sum()
    if total <= 0.0:
        raise ParameterError("at least one weight must be positive")
    return w / total


def _alias_tables(weights: np.ndarray) -> tuple[list[float], list[int]]:
    """Walker alias tables for a normalized weight vector.

    Returns ``(prob, alias)`` such that sampling slot ``k`` uniformly
    and accepting it with probability ``prob[k]`` (else routing to
    ``alias[k]``) reproduces the weights exactly.  Shared by
    :class:`AliasTableRouter` and the optimal-prior sampler in
    :mod:`repro.runtime.policies`.  The tables are Python lists, which
    the per-pick paths index; Python floats do the same IEEE double
    arithmetic as numpy's, so the tables equal a numpy construction bit
    for bit.
    """
    n = weights.size
    scaled = (weights * n).tolist()
    prob = [1.0] * n
    alias = list(range(n))
    small = [i for i, x in enumerate(scaled) if x < 1.0]
    large = [i for i, x in enumerate(scaled) if x >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        (small if scaled[g] < 1.0 else large).append(g)
    # Leftovers are exactly 1 up to rounding; their prob stays 1, so
    # the alias slot is never consulted.
    return prob, alias


class SmoothWeightedRoundRobinRouter:
    """Smooth weighted round-robin with live weight updates.

    Each pick advances every server's credit by its weight and routes
    to the largest credit, which then pays one unit back.  Credits are
    cleared on weight change: stale credit earned under the old split
    must not send tasks to a server the new split starved (a freshly
    failed server, in particular, must stop receiving traffic at the
    very next decision).
    """

    def __init__(self, weights: Sequence[float]) -> None:
        self._weights = _normalize(weights, None)
        self._credit = np.zeros_like(self._weights)

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    def set_weights(self, weights: Sequence[float]) -> None:
        self._weights = _normalize(weights, self._weights.size)
        self._credit = np.zeros_like(self._weights)

    def pick(self, state: Sequence[int] | None = None) -> int:
        self._credit += self._weights
        dest = int(np.argmax(self._credit))
        self._credit[dest] -= 1.0
        return dest

    def on_completion(self, server: int) -> None:
        """Static policy: completions carry no information."""

    def state_dict(self) -> dict:
        """JSON-safe snapshot: weights plus the *live* credit vector.

        ``set_weights`` deliberately clears credits, so a restore must
        bypass it — the mid-cycle credits are what make the resumed
        deterministic rotation pick up exactly where it stopped.
        """
        return {
            "backend": "swrr",
            "weights": [float(w) for w in self._weights],
            "credit": [float(c) for c in self._credit],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self._weights = _normalize(state["weights"], None)
        self._credit = np.asarray(state["credit"], dtype=float)
        if self._credit.shape != self._weights.shape:
            raise ParameterError("credit vector does not match weights")


class AliasTableRouter:
    """Walker alias-method sampler over the weight vector.

    O(1) per decision regardless of ``n`` — for cluster-scale groups
    this beats the O(log n) inverse-CDF search and the O(n) credit
    update of smooth WRR.  ``set_weights`` rebuilds the table in O(n).
    """

    def __init__(self, weights: Sequence[float], rng: np.random.Generator) -> None:
        self._rng = rng
        self._weights = _normalize(weights, None)
        self._build()

    def _build(self) -> None:
        self._prob, self._alias = _alias_tables(self._weights)

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    def set_weights(self, weights: Sequence[float]) -> None:
        self._weights = _normalize(weights, self._weights.size)
        self._build()

    def pick(self, state: Sequence[int] | None = None) -> int:
        k = int(self._rng.integers(self._weights.size))
        if self._rng.random() < self._prob[k]:
            return k
        return self._alias[k]

    def on_completion(self, server: int) -> None:
        """Static policy: completions carry no information."""

    def state_dict(self) -> dict:
        """JSON-safe snapshot: the weights alone suffice.

        ``_build`` is deterministic in the weights, and the sampling
        generator is owned (and checkpointed) by the runtime, so the
        prob/alias tables are rebuilt rather than persisted.
        """
        return {"backend": "alias", "weights": [float(w) for w in self._weights]}

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (rebuilds the table)."""
        self._weights = _normalize(state["weights"], None)
        self._build()

