"""Dense feedforward networks with exact analytic gradients.

Deliberately small: affine layers with a fixed set of activations, batched
forward/backward passes and an Adam optimizer. All math is float64. Every
pass takes a batch ``(B, D)``; a caller with one example hands over a
one-row batch, and ``check_examples`` states what an example block is for
scoring, calibration and training alike. ``forward`` and ``infer`` run
the same layer step; ``forward`` also keeps each layer's output for
``backward`` and serves training only, and scoring runs ``infer``.

A network keeps its weights and biases in one flat vector, and its layers'
arrays are reshaped views of it, which can be written in place but never
rebound. ``backward`` writes the parameter gradients into a second vector of
the same layout, allocated at a network's first ``backward``. Only training
changes a network: ``adam_step`` is the one function that writes a
network's weights and biases, in place, straight from its gradient vector,
and it bumps the network's version so ``backward`` rejects a forward cache
taken before the step.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
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


class DenseLayer:
    """One affine map plus activation. ``bias is None`` marks a bias-free layer.

    ``weights`` and ``bias`` are read-only attributes: in an ``Mlp``'s own
    layers they are views of that network's parameter vector, so they are
    written in place and never rebound.
    """

    def __init__(self, weights: Array, bias: Array | None, activation: str):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError(f"weights must be a matrix, got shape {weights.shape}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != (weights.shape[0],):
                raise ValueError(
                    f"bias shape {bias.shape} does not match output size {weights.shape[0]}"
                )
        self._weights, self._bias = weights, bias
        self.activation = activation

    @property
    def weights(self) -> Array:
        return self._weights

    @property
    def bias(self) -> Array | None:
        return self._bias

    @property
    def params(self) -> list[Array]:
        """The weights, then the bias if there is one: the one parameter order."""
        return [self._weights] if self._bias is None else [self._weights, self._bias]

    @property
    def in_dim(self) -> int:
        return self._weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self._weights.shape[0]


def layer_descriptor(layer: DenseLayer) -> bytes:
    """In-dim and out-dim (u32), activation code and bias flag (u8), little-endian."""
    code = ACTIVATIONS.index(layer.activation)
    return struct.pack("<IIBB", layer.in_dim, layer.out_dim, code, layer.bias is not None)


def layer_payload(layer: DenseLayer) -> list[Array]:
    """The weights, row-major, then the bias (if any), as little-endian f32."""
    return [np.ascontiguousarray(p, dtype="<f4") for p in layer.params]


class Mlp:
    """A stack of dense layers with chained dimensions.

    The weights and biases live in one contiguous float64 vector, ``flat``,
    in ``parameters()`` order. The network copies the given layers' values
    into it and builds its own layers over reshaped views of it, so a write
    through either shows in the other; the given layers are left as they
    were. ``grad`` has the same layout and holds the gradients ``backward``
    writes; it is ``None`` until the first ``gradients()`` call, so a
    network that only infers holds none.
    """

    def __init__(self, layers: Sequence[DenseLayer]):
        layers = list(layers)
        if not layers:
            raise ValueError("an Mlp needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(
                    f"layer dimensions do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )
        params = [p for layer in layers for p in layer.params]
        self._shapes = [p.shape for p in params]
        self._flat = np.concatenate([p.ravel() for p in params])
        views = iter(self.split(self._flat))
        self.layers = [
            DenseLayer(next(views), None if layer.bias is None else next(views), layer.activation)
            for layer in layers
        ]
        self._grad: Array | None = None
        self._grad_views: list[Array] = []
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

    @property
    def flat(self) -> Array:
        return self._flat

    @property
    def grad(self) -> Array | None:
        return self._grad

    def split(self, vec: Array) -> list[Array]:
        """Views of ``vec``, a vector laid out as ``flat``, shaped and aligned
        as ``parameters()``."""
        views, start = [], 0
        for shape in self._shapes:
            stop = start + math.prod(shape)
            views.append(vec[start:stop].reshape(shape))
            start = stop
        return views

    def gradients(self) -> list[Array]:
        """Views of ``grad`` aligned with ``parameters()``; the first call
        allocates ``grad``, as zeros."""
        if self._grad is None:
            self._grad = np.zeros_like(self._flat)
            self._grad_views = self.split(self._grad)
        return list(self._grad_views)

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
    in place on it. Scoring runs this per layer and step, so it reads the
    arrays behind the read-only properties."""
    z = a @ layer._weights.T
    bias = layer._bias
    if bias is not None:
        z += bias
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

    Every parameter gradient is written in place into ``net.grad``, whole.
    Returns ``(param_grads, input_grad)``, ``param_grads`` being the views of
    ``net.grad`` aligned with ``net.parameters()``: the network's next
    ``backward`` or ``adam_step`` overwrites them, so copy what must outlive
    either. Gradients over a batch are summed, so scale ``loss_grad`` rows if
    a mean is wanted. ``input_grad=False`` skips the first layer's
    input-gradient product, which no parameter gradient reads, and returns
    ``None`` in its place.
    """
    if cache.net is not net or cache.version != net.version:
        raise ValueError("forward cache is stale or belongs to a different network")
    delta = np.asarray(loss_grad, dtype=np.float64)
    outputs = cache.outputs
    if delta.shape != outputs[-1].shape:
        raise ValueError(
            f"loss gradient shape {delta.shape} does not match output shape {outputs[-1].shape}"
        )
    grads = net.gradients()
    k = len(grads)
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        if layer.activation != "identity":
            # the derivative's fresh buffer takes the product
            factor = _activate_prime(layer.activation, outputs[i + 1])
            factor *= delta
            delta = factor
        if layer.bias is not None:
            k -= 1
            np.sum(delta, axis=0, out=grads[k])
        k -= 1
        np.matmul(delta.T, outputs[i], out=grads[k])
        if i > 0 or input_grad:
            delta = delta @ layer.weights
    return grads, delta if input_grad else None


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per slice of Adam's flat pass (512 KB of float64): a slice's
# operands stay in cache through its chain of element-wise operations.
ADAM_SLICE = 1 << 16


class AdamState:
    """Adam moments as flat vectors over the parameter vectors of ``nets``, in
    order, and one slice of scratch; ``step_count`` counts the steps taken."""

    def __init__(self, nets: Sequence[Mlp], learning_rate: float):
        if not 0.0 < learning_rate < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {learning_rate}")
        self.nets = tuple(nets)
        self.learning_rate = learning_rate
        self.step_count = 0
        size = sum(net.flat.size for net in self.nets)
        self.m, self.v = np.zeros(size), np.zeros(size)
        self.scratch = np.empty(min(size, ADAM_SLICE))


def adam_step(state: AdamState) -> None:
    """One optimizer step over the weights and biases of ``state.nets``, in
    place, from each network's gradient vector ``grad``.

    Every network's version is bumped, so forward caches taken before the
    step are stale. A network without gradients, or a non-finite gradient
    (named by its parameter), raises before anything is changed. The
    gradient vectors are spent: each slice of one takes its update before
    the parameters subtract it.

    Each element takes the per-array arithmetic in its order:
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``,
    ``p -= lr*((m/bc1) / (sqrt(v/bc2) + eps))``.
    """
    nets = state.nets
    for k, net in enumerate(nets):
        if net.grad is None:
            raise ValueError(f"net{k} has no gradients: backward writes them")
        if not np.isfinite(net.grad).all():
            i = next(i for i, g in enumerate(net.gradients()) if not np.isfinite(g).all())
            raise ValueError(f"non-finite gradient for net{k}.{net.parameter_names()[i]}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    offset = 0
    for net in nets:
        flat, grad = net.flat, net.grad
        for start in range(0, flat.size, ADAM_SLICE):
            stop = min(start + ADAM_SLICE, flat.size)
            g = grad[start:stop]
            m = state.m[offset + start : offset + stop]
            v = state.v[offset + start : offset + stop]
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
            p = flat[start:stop]
            p -= g
        offset += flat.size
    for net in nets:
        net._version += 1
