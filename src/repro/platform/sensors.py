"""Energy sensors.

Models RAPL package counters (Intel) and the Odroid's per-island INA231
sensors: monotonically increasing energy counters read by polling, with
multiplicative measurement noise.  HARP's monitoring stack only ever sees
these counters, never the underlying power model.
"""

from __future__ import annotations

import numpy as np


class EnergySensor:
    """A monotonically increasing energy counter in joules.

    The simulation engine feeds instantaneous power samples via
    :meth:`accumulate`; readers poll :meth:`read_energy_j`.  Noise models
    sensor quantization and sampling jitter.
    """

    def __init__(self, name: str, noise_std: float = 0.0, seed: int | None = None):
        if noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        self.name = name
        self.noise_std = noise_std
        self._rng = np.random.default_rng(seed)
        self._energy_j = 0.0

    def accumulate(self, power_w: float, dt_s: float) -> None:
        """Integrate ``power_w`` watts over ``dt_s`` seconds."""
        if dt_s < 0:
            raise ValueError("dt_s must be >= 0")
        if power_w < 0:
            raise ValueError("power_w must be >= 0")
        delta = power_w * dt_s
        if self.noise_std > 0:
            delta *= max(0.0, 1.0 + self._rng.normal(0.0, self.noise_std))
        self._energy_j += delta

    def accumulate_constant(self, power_w: float, dt_s: float, n: int) -> None:
        """Integrate ``n`` intervals of constant power, bit-identically.

        Equivalent to calling :meth:`accumulate` ``n`` times with the same
        arguments — same RNG stream consumption (``default_rng`` draws a
        batch of normals identically to repeated scalar draws), same
        sequential float accumulation order — but with the noise draws
        batched.  The event engine uses this to leap over idle stretches
        without diverging from the tick engine's energy counter.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        if n == 0:
            return
        if dt_s < 0:
            raise ValueError("dt_s must be >= 0")
        if power_w < 0:
            raise ValueError("power_w must be >= 0")
        base = power_w * dt_s
        if self.noise_std > 0:
            # tolist() yields Python floats (exact for float64), so the
            # counter stays a float, as after n scalar accumulate() calls.
            noise = self._rng.normal(0.0, self.noise_std, size=n).tolist()
            energy = self._energy_j
            for i in range(n):
                energy += base * max(0.0, 1.0 + noise[i])
            self._energy_j = energy
        else:
            energy = self._energy_j
            for _ in range(n):
                energy += base
            self._energy_j = energy

    def read_energy_j(self) -> float:
        """Current counter value in joules (monotonic)."""
        return self._energy_j

    def reset(self) -> None:
        self._energy_j = 0.0


class RaplPackageSensor(EnergySensor):
    """RAPL-style package-domain counter with realistic noise (~1 %)."""

    def __init__(self, seed: int | None = None, noise_std: float = 0.01):
        super().__init__("rapl-package", noise_std=noise_std, seed=seed)


class IslandSensor(EnergySensor):
    """Odroid-style per-cluster sensor (A15 / A7 / memory / GPU)."""

    def __init__(self, island: str, seed: int | None = None, noise_std: float = 0.015):
        super().__init__(f"ina231-{island}", noise_std=noise_std, seed=seed)
        self.island = island
