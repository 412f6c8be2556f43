"""Dense feedforward networks with exact analytic gradients.

Deliberately small: affine layers with a fixed set of activations, batched
forward/backward passes and an Adam optimizer. All math is float64. Every
pass takes a batch ``(B, D)``; a caller with one example hands over a
one-row batch, and ``check_examples`` states what an example block is for
scoring, calibration and training alike. ``forward`` and ``infer`` run
the same layer step; ``forward`` also keeps each layer's output for
``backward`` and serves training only, and scoring runs ``infer``. Only
training changes a network: ``adam_step`` is the one function that writes a
network's weights and biases, in place, and it bumps the network's version
so ``backward`` rejects a forward cache taken before the step.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

Array = np.ndarray

# A model file stores an activation as its index here: append, never reorder.
ACTIVATIONS = ("identity", "relu", "elu")

# Rows per block wherever a dataset would otherwise be held whole or fed a
# row at a time (512 frames of 16x16 are 1 MB in float64).
BLOCK_ROWS = 512


def _activate(name: str, z: Array) -> Array:
    """The activation of ``z``, in place: ``z`` is a fresh product that the
    caller does not read again.

    elu is ``max(-0.0, z) + expm1(min(-0.0, z))``, the bits of
    ``np.where(z >= 0.0, z, np.expm1(z))`` without a data-dependent select and
    with one new buffer. A zero keeps its sign because ``np.maximum`` and
    ``np.minimum`` return their second operand when both operands are zero.
    """
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "elu":
        neg = np.minimum(-0.0, z)
        np.expm1(neg, out=neg)
        np.maximum(-0.0, z, out=z)
        z += neg
        return z
    raise ValueError(f"unknown activation {name!r}")


def _activate_prime(name: str, a: Array) -> Array:
    """relu's or elu's derivative from its output ``a``, exactly, in one fresh
    buffer the caller may overwrite; identity has no factor.

    relu's output is positive iff its input is. elu's derivative is
    ``min(a + 1, 1)``, the bits of ``np.where(a >= 0.0, 1.0, a + 1.0)``:
    ``a >= 0`` (elu maps -0.0 to -0.0) gives ``a + 1 >= 1``, a negative ``a``
    gives ``a + 1`` below 1 or rounding to 1.0, and NaN propagates either way.
    """
    if name == "relu":
        return np.greater(a, 0.0, out=np.empty_like(a))
    factor = a + 1.0
    return np.minimum(factor, 1.0, out=factor)


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


def check_examples(arr: Array, what: str, dim: int) -> Array:
    """``arr`` as a nonempty float64 ``(B, dim)`` block of finite values; the
    errors name ``what``."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(f"{what} must be a nonempty 2-D array, got shape {arr.shape}")
    if arr.shape[1] != dim:
        raise ValueError(f"{what} has dimension {arr.shape[1]}, expected {dim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite values")
    return arr


def _layer(layer: DenseLayer, a: Array) -> Array:
    """The affine map, the bias added into the fresh product, the activation
    in place on it."""
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


def backward(
    net: Mlp, cache: ForwardCache, loss_grad: Array, input_grad: bool = True
) -> tuple[list[Array], Array | None]:
    """Backpropagate ``dLoss/dOutput``, a ``(B, out_dim)`` batch, through the
    cached forward pass.

    Returns ``(param_grads, input_grad)`` with ``param_grads`` aligned to
    ``net.parameters()``. Gradients over a batch are summed, so scale
    ``loss_grad`` rows if a mean is wanted. ``input_grad=False`` skips the
    first layer's input-gradient product, which no parameter gradient reads,
    and returns ``None`` in its place.
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
            # the derivative's fresh buffer takes the product
            factor = _activate_prime(layer.activation, outputs[i + 1])
            factor *= delta
            delta = factor
        weight_grad = delta.T @ outputs[i]
        grads[:0] = [weight_grad] if layer.bias is None else [weight_grad, delta.sum(axis=0)]
        if i > 0 or input_grad:
            delta = delta @ layer.weights
    return grads, delta if input_grad else None


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per slice of Adam's flat pass (512 KB of float64): a slice's
# operands stay in cache through its chain of element-wise operations.
ADAM_SLICE = 1 << 16


@dataclass
class AdamState:
    """Adam moments as flat vectors over the first step's parameters, in
    order. That step fixes the parameter layout (every array's shape) for
    every later step, and allocates the moments, a flat gradient buffer and
    one slice of scratch."""

    learning_rate: float
    step_count: int = 0
    layout: tuple[tuple[int, ...], ...] | None = field(default=None, init=False, repr=False)
    m: Array | None = field(default=None, init=False, repr=False)
    v: Array | None = field(default=None, init=False, repr=False)
    grad: Array | None = field(default=None, init=False, repr=False)
    scratch: Array | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {self.learning_rate}")


def adam_step(state: AdamState, nets: Sequence[Mlp], grads: Sequence[Array]) -> None:
    """One optimizer step that updates the weights and biases of ``nets`` in place.

    ``grads`` is aligned with the networks' parameters, taken in order. Every
    network's version is bumped, so forward caches taken before the step are
    stale. A gradient count or shape that does not match the parameters, a
    parameter layout other than the first step's, or a non-finite gradient
    (named by its parameter) raises before anything is changed.

    The gradients are gathered into one flat vector, and each element takes
    the per-array arithmetic in its order: ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + ((1-b2)*g)*g``, ``p -= lr*((m/bc1) / (sqrt(v/bc2) + eps))``.
    """
    params = [p for net in nets for p in net.parameters()]
    if len(params) != len(grads):
        raise ValueError("params and grads length mismatch")
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch at parameter {i}: {p.shape} vs {g.shape}")
    layout = tuple(p.shape for p in params)
    if state.layout is None:
        size = sum(p.size for p in params)
        state.layout = layout
        state.m, state.v, state.grad = np.zeros(size), np.zeros(size), np.empty(size)
        state.scratch = np.empty(min(size, ADAM_SLICE))
    elif layout != state.layout:
        raise ValueError(f"parameter layout {layout} is not the first step's {state.layout}")
    flat = np.concatenate([g.reshape(-1) for g in grads], out=state.grad)
    if not np.isfinite(flat).all():
        i = next(i for i, g in enumerate(grads) if not np.isfinite(g).all())
        names = [f"net{k}.{n}" for k, net in enumerate(nets) for n in net.parameter_names()]
        raise ValueError(f"non-finite gradient for {names[i]}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for start in range(0, flat.size, ADAM_SLICE):
        g = flat[start : start + ADAM_SLICE]
        m = state.m[start : start + ADAM_SLICE]
        v = state.v[start : start + ADAM_SLICE]
        tmp = state.scratch[: g.size]
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        # the gradient is spent: its slice takes the update
        np.divide(m, bc1, out=g)
        g /= tmp
        g *= state.learning_rate
    offset = 0
    for p in params:
        p -= flat[offset : offset + p.size].reshape(p.shape)
        offset += p.size
    for net in nets:
        net._version += 1
