"""Sequential container."""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.nn.layers import Layer, Parameter


class Sequential(Layer):
    """A linear chain of layers applied in order.

    Assigning a :class:`repro.obs.LayerProfiler` to :attr:`profiler`
    turns on per-layer forward timing (and, under an active tracer,
    per-layer child spans).  The default ``None`` keeps the hot path at
    one attribute check per forward call.
    """

    def __init__(self, *layers: Layer, name: str = "sequential"):
        self.layers: List[Layer] = list(layers)
        self.name = name
        #: opt-in observability hook; duck-typed so :mod:`repro.nn`
        #: never imports :mod:`repro.obs`.
        self.profiler: Optional[object] = None

    def add(self, layer: Layer) -> "Sequential":
        """Append ``layer``; returns ``self`` for chaining."""
        self.layers.append(layer)
        return self

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        profiler = self.profiler
        if profiler is not None and profiler.enabled:
            return self._forward_profiled(x, training)
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def _forward_profiled(
        self, x: np.ndarray, training: bool
    ) -> np.ndarray:
        profiler = self.profiler
        for layer in self.layers:
            in_shape = np.shape(x)
            start = time.monotonic()
            x = layer.forward(x, training=training)
            profiler.record(
                self.name, layer, in_shape, np.shape(x),
                start, time.monotonic(),
            )
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for layer in self.layers:
            state.update(layer.state_dict())
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for layer in self.layers:
            layer.load_state_dict(state)

    def spec(self) -> Dict[str, object]:
        return {
            "type": "Sequential",
            "name": self.name,
            "layers": [layer.spec() for layer in self.layers],
        }

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Layer:
        return self.layers[index]
