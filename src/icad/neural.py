"""Dense feedforward networks with exact analytic gradients.

Deliberately small: affine layers with a fixed set of activations, batched
forward/backward passes, an Adam optimizer, and a finite-difference gradient
checker. All math is float64. Every pass takes a batch ``(B, D)``; a caller
with one example hands over a one-row batch. ``forward`` and ``infer`` run
the same layer step; ``forward`` also keeps each layer's output for
``backward`` and serves training only, and scoring runs ``infer``. Only
training changes a network: ``adam_step`` is the one function that writes a
network's weights and biases, in place, and it bumps the network's version
so ``backward`` rejects a forward cache taken before the step.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

# A model file stores an activation as its index here: append, never reorder.
ACTIVATIONS = ("identity", "relu", "elu")

# Rows per block wherever a dataset would otherwise be held whole or fed a
# row at a time (512 frames of 16x16 are 1 MB in float64).
BLOCK_ROWS = 512


def _activate(name: str, z: Array) -> Array:
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "elu":
        return np.where(z >= 0.0, z, np.expm1(z))
    raise ValueError(f"unknown activation {name!r}")


def _activate_prime(name: str, a: Array) -> Array:
    # relu's or elu's derivative from its output `a`, exactly: elu's output is
    # negative iff its input is (-0.0 maps to -0.0), relu's positive iff its
    # input is, and NaN compares false either way; identity has no factor
    return a > 0.0 if name == "relu" else np.where(a >= 0.0, 1.0, a + 1.0)


@dataclass
class DenseLayer:
    """One affine map plus activation. ``bias is None`` marks a bias-free layer."""

    weights: Array
    bias: Array | None
    activation: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be a matrix, got shape {self.weights.shape}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            if self.bias.shape != (self.weights.shape[0],):
                raise ValueError(
                    f"bias shape {self.bias.shape} does not match output size {self.weights.shape[0]}"
                )

    @property
    def params(self) -> list[Array]:
        """The weights, then the bias if there is one: the one parameter order."""
        return [self.weights] if self.bias is None else [self.weights, self.bias]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


def layer_descriptor(layer: DenseLayer) -> bytes:
    """In-dim and out-dim (u32), activation code and bias flag (u8), little-endian."""
    code = ACTIVATIONS.index(layer.activation)
    return struct.pack("<IIBB", layer.in_dim, layer.out_dim, code, layer.bias is not None)


def layer_payload(layer: DenseLayer) -> list[Array]:
    """The weights, row-major, then the bias (if any), as little-endian f32."""
    return [np.ascontiguousarray(p, dtype="<f4") for p in layer.params]


class Mlp:
    """A stack of dense layers with chained dimensions."""

    def __init__(self, layers: Sequence[DenseLayer]):
        layers = list(layers)
        if not layers:
            raise ValueError("an Mlp needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(
                    f"layer dimensions do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )
        self.layers = layers
        self._version = 0

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def version(self) -> int:
        return self._version

    def parameters(self) -> list[Array]:
        return [p for layer in self.layers for p in layer.params]

    def parameter_names(self) -> list[str]:
        return [f"layer{i}.{name}" for i, layer in enumerate(self.layers)
                for name in ("weights", "bias")[: len(layer.params)]]


def init_mlp(
    dims: Sequence[int],
    activations: Sequence[str],
    bias: bool,
    rng: np.random.Generator,
) -> Mlp:
    """Build an Mlp with uniform(-a, a) weights, a = sqrt(6/(fan_in+fan_out))."""
    if len(dims) < 2:
        raise ValueError("need at least an input and an output dimension")
    n_layers = len(dims) - 1
    if len(activations) != n_layers:
        raise ValueError(f"expected {n_layers} activations, got {len(activations)}")
    layers = []
    for i in range(n_layers):
        fan_in, fan_out = dims[i], dims[i + 1]
        a = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-a, a, size=(fan_out, fan_in))
        b = np.zeros(fan_out) if bias else None
        layers.append(DenseLayer(w, b, activations[i]))
    return Mlp(layers)


def check_examples(arr: Array, what: str) -> Array:
    """``arr`` as a nonempty float64 ``(B, D)`` array of finite values."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(f"{what} must be a nonempty 2-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    return arr


def _layer(layer: DenseLayer, a: Array) -> Array:
    """The affine map, the bias added into the fresh product, the activation."""
    z = a @ layer.weights.T
    if layer.bias is not None:
        z += layer.bias
    return _activate(layer.activation, z)


@dataclass
class ForwardCache:
    net: Mlp
    version: int
    outputs: list[Array]


def forward(net: Mlp, x: Array) -> tuple[Array, ForwardCache]:
    """Run the network on a batch ``(B, D)``; the cache's ``outputs`` are the
    input, then each layer's output, which is all ``backward`` needs."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(f"input must be a batch (B, {net.input_dim}), got shape {x.shape}")
    outputs = [x]
    for layer in net.layers:
        outputs.append(_layer(layer, outputs[-1]))
    return outputs[-1], ForwardCache(net, net.version, outputs)


def infer(net: Mlp, x: Array) -> Array:
    """``forward``'s output without its cache, for scoring. ``x`` is a float64
    ``(B, D)`` batch that the caller has checked."""
    for layer in net.layers:
        x = _layer(layer, x)
    return x


def backward(net: Mlp, cache: ForwardCache, loss_grad: Array) -> tuple[list[Array], Array]:
    """Backpropagate ``dLoss/dOutput``, a ``(B, out_dim)`` batch, through the
    cached forward pass.

    Returns ``(param_grads, input_grad)`` with ``param_grads`` aligned to
    ``net.parameters()``. Gradients over a batch are summed, so scale
    ``loss_grad`` rows if a mean is wanted.
    """
    if cache.net is not net or cache.version != net.version:
        raise ValueError("forward cache is stale or belongs to a different network")
    delta = np.asarray(loss_grad, dtype=np.float64)
    outputs = cache.outputs
    if delta.shape != outputs[-1].shape:
        raise ValueError(
            f"loss gradient shape {delta.shape} does not match output shape {outputs[-1].shape}"
        )
    grads: list[Array] = []
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        if layer.activation != "identity":
            delta = delta * _activate_prime(layer.activation, outputs[i + 1])
        weight_grad = delta.T @ outputs[i]
        grads[:0] = [weight_grad] if layer.bias is None else [weight_grad, delta.sum(axis=0)]
        delta = delta @ layer.weights
    return grads, delta


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moments, bound lazily to the shapes of the first step's parameters."""

    learning_rate: float
    step_count: int = 0
    m: list[Array] | None = field(default=None, repr=False)
    v: list[Array] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")


def adam_step(state: AdamState, nets: Sequence[Mlp], grads: Sequence[Array]) -> None:
    """One optimizer step that updates the weights and biases of ``nets`` in place.

    ``grads`` is aligned with the networks' parameters, taken in order. Every
    network's version is bumped, so forward caches taken before the step are
    stale. A non-finite gradient raises, naming the offending parameter,
    before anything is changed.
    """
    params = [p for net in nets for p in net.parameters()]
    if len(params) != len(grads):
        raise ValueError("params and grads length mismatch")
    if state.m is None:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    for i, (p, g, m) in enumerate(zip(params, grads, state.m)):
        if p.shape != g.shape or p.shape != m.shape:
            raise ValueError(f"shape mismatch at parameter {i}: {p.shape} vs {g.shape}")
        if not np.all(np.isfinite(g)):
            names = [f"net{k}.{n}" for k, net in enumerate(nets) for n in net.parameter_names()]
            raise ValueError(f"non-finite gradient for {names[i]}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= state.learning_rate * ((m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS))
    for net in nets:
        net._version += 1


def finite_difference_grads(
    params: Sequence[Array],
    loss_fn: Callable[[], float],
    step: float = 1e-5,
) -> list[Array]:
    """Central finite differences of ``loss_fn`` w.r.t. each parameter entry.

    The arrays in ``params`` are perturbed in place and restored, so they
    must be the live parameters the loss closure reads.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for j in range(flat_p.size):
            orig = flat_p[j]
            flat_p[j] = orig + step
            hi = loss_fn()
            flat_p[j] = orig - step
            lo = loss_fn()
            flat_p[j] = orig
            flat_g[j] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def max_relative_error(
    analytic: Sequence[Array],
    numeric: Sequence[Array],
    denom_floor: float = 1e-3,
) -> tuple[float, int]:
    """Worst-case elementwise relative error between two gradient lists.

    The denominator is floored so that finite-difference roundoff on
    near-zero components does not register as disagreement. Returns
    ``(max_error, index_of_worst_array)``.
    """
    worst = 0.0
    worst_idx = 0
    for i, (a, n) in enumerate(zip(analytic, numeric)):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), denom_floor)
        err = np.abs(a - n) / denom
        local = float(err.max()) if err.size else 0.0
        if local > worst:
            worst = local
            worst_idx = i
    return worst, worst_idx


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    worst_param: str


def grad_check_params(
    params: Sequence[Array],
    names: Sequence[str],
    loss_fn: Callable[[], float],
    analytic: Sequence[Array],
    tolerance: float = 1e-4,
    step: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences."""
    numeric = finite_difference_grads(params, loss_fn, step=step)
    err, idx = max_relative_error(analytic, numeric)
    return GradCheckReport(err, tolerance, err < tolerance, names[idx])
