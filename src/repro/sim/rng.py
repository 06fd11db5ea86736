"""Reproducible random-number stream management for the simulator.

Discrete-event simulations need *independent* random streams per
stochastic process (one per arrival stream, one per service-time
source) so that changing one process — say, adding a server — does not
perturb the draws of every other process and destroy common-random-
number variance reduction.  :class:`StreamFactory` hands out
independent :class:`numpy.random.Generator` instances derived from a
single master seed via :class:`numpy.random.SeedSequence` spawning,
which guarantees statistical independence between children.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.exceptions import ParameterError

__all__ = [
    "StreamFactory",
    "exponential",
    "generator_state",
    "set_generator_state",
]


def generator_state(rng: np.random.Generator) -> dict:
    """JSON-safe snapshot of a generator's bit-generator state.

    PCG64 (numpy's default) exposes its state as a dict of plain Python
    ints and strings, which round-trips losslessly through JSON; after
    :func:`set_generator_state` the generator draws the bit-identical
    continuation of the stream.
    """
    return rng.bit_generator.state


def set_generator_state(rng: np.random.Generator, state: dict) -> None:
    """Restore a snapshot taken by :func:`generator_state`.

    JSON round-trips turn nested tuples into lists; numpy's state
    setters accept the dict form directly, so no conversion is needed.
    """
    rng.bit_generator.state = state


class StreamFactory:
    """Deterministic factory of independent random generators.

    Parameters
    ----------
    seed:
        Master seed.  Two factories with the same seed produce the same
        sequence of streams; ``None`` draws fresh OS entropy.

    Examples
    --------
    >>> f = StreamFactory(42)
    >>> arrivals = f.stream("arrivals")
    >>> services = f.stream("services")
    >>> float(arrivals.random()) != float(services.random())
    True
    """

    def __init__(self, seed: int | None = None) -> None:
        self._seed_seq = np.random.SeedSequence(seed)
        self._count = 0
        self._named: dict[str, np.random.Generator] = {}

    @property
    def streams_created(self) -> int:
        """Number of independent streams handed out so far."""
        return self._count

    def stream(self, name: str | None = None) -> np.random.Generator:
        """Return a new independent generator.

        Named streams are cached: asking twice for ``"arrivals"``
        returns the same generator object, so a simulation component
        can re-fetch its stream without advancing the spawn sequence.
        """
        if name is not None and name in self._named:
            return self._named[name]
        child = self._seed_seq.spawn(1)[0]
        gen = np.random.default_rng(child)
        self._count += 1
        if name is not None:
            self._named[name] = gen
        return gen

    def spawn(self, k: int) -> list[np.random.Generator]:
        """Return ``k`` fresh independent generators at once."""
        child = self.reserve(k)
        return [child(i) for i in range(k)]

    def reserve(self, k: int) -> Callable[[int], np.random.Generator]:
        """Claim the next ``k`` spawn positions in O(1), without building them.

        Returns ``child(i)``, which builds the generator that
        :meth:`spawn` would have returned at position ``i`` — the same
        ``SeedSequence`` spawn key, so the same stream — on demand.
        Streams spawned afterwards start past the reserved block whether
        or not any child is ever built.
        """
        if k < 0:
            raise ParameterError(f"k must be >= 0, got {k}")
        seq = self._seed_seq
        base = seq.n_children_spawned
        self._seed_seq = np.random.SeedSequence(
            seq.entropy,
            spawn_key=seq.spawn_key,
            pool_size=seq.pool_size,
            n_children_spawned=base + k,
        )
        self._count += k

        def child(i: int) -> np.random.Generator:
            if not 0 <= i < k:
                raise ParameterError(f"child index must be in [0, {k}), got {i}")
            return np.random.default_rng(
                np.random.SeedSequence(
                    seq.entropy,
                    spawn_key=seq.spawn_key + (base + i,),
                    pool_size=seq.pool_size,
                )
            )

        return child

    def state_dict(self) -> dict:
        """JSON-safe snapshot: spawn position plus every named stream.

        Anonymous generators handed out by :meth:`spawn` are owned by
        the caller and must be captured by the caller (see
        ``GroupSimulation.capture_rng_state``); the factory records the
        spawn *position* so future spawns continue the same sequence.
        """
        entropy = self._seed_seq.entropy
        return {
            "entropy": entropy if isinstance(entropy, int) else list(entropy),
            "spawn_key": list(self._seed_seq.spawn_key),
            "children_spawned": int(self._seed_seq.n_children_spawned),
            "count": self._count,
            "named": {
                name: generator_state(gen) for name, gen in self._named.items()
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot.

        Named streams already handed out keep their identity — their
        bit-generator state is overwritten in place, so components
        holding references continue drawing the restored sequence.
        """
        entropy = state["entropy"]
        self._seed_seq = np.random.SeedSequence(
            entropy if isinstance(entropy, int) else tuple(entropy),
            spawn_key=tuple(state.get("spawn_key", ())),
            n_children_spawned=state["children_spawned"],
        )
        self._count = state["count"]
        for name, gen_state in state["named"].items():
            gen = self._named.get(name)
            if gen is None:
                gen = np.random.Generator(np.random.PCG64())
                self._named[name] = gen
            set_generator_state(gen, gen_state)


def exponential(rng: np.random.Generator, mean: float) -> float:
    """Draw one exponential variate with the given mean.

    Validates the mean (the hot path of the simulator samples through
    this helper, and a silent non-positive mean would corrupt the whole
    run rather than fail loudly).
    """
    if not mean > 0.0:
        raise ParameterError(f"exponential mean must be > 0, got {mean}")
    return float(rng.exponential(mean))
