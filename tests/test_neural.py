"""Forward/backward correctness, gradient checking, and the optimizer."""

import numpy as np
import pytest

from conftest import (
    assert_views_of_flat,
    finite_difference_grads,
    grad_check_params,
    max_relative_error,
    mlp_of,
    reference_adam,
)
from icad.neural import (
    ADAM_SLICE,
    WEIGHT_ALIGN,
    AdamState,
    Mlp,
    _activate,
    _activate_prime,
    adam_step,
    backward,
    forward,
    infer,
    init_mlp,
)


def _random_net(seed, dims=(4, 6, 5, 3), acts=("elu", "relu", "identity"), bias=True):
    return init_mlp(dims, list(acts), bias, np.random.default_rng(seed))


def _grad_check(net, x, loss, tolerance=1e-4):
    """Backprop against finite differences under ``loss(y) -> (value, dvalue/dy)``."""
    y, cache = forward(net, x)
    analytic, _ = backward(net, cache, loss(y)[1])
    return grad_check_params(net.parameters(), net.parameter_names(),
                             lambda: loss(forward(net, x)[0])[0], analytic, tolerance)


def test_forward_identity_layer():
    net = mlp_of((np.eye(2), None, "identity"))
    y, _ = forward(net, np.array([[1.0, 2.0]]))
    assert np.array_equal(y, [[1.0, 2.0]])


def test_forward_relu_hand_case():
    net = mlp_of((np.array([[2.0, 0.0], [0.0, 3.0]]), None, "relu"))
    y, _ = forward(net, np.array([[1.0, -1.0]]))
    assert np.array_equal(y, [[2.0, 0.0]])


def test_forward_matches_matrix_product_oracle():
    rng = np.random.default_rng(3)
    net = _random_net(3)
    x = rng.normal(size=4)
    y, _ = forward(net, x[None])

    # independent re-evaluation with explicit loops
    def elu(v):
        return np.array([t if t >= 0 else np.exp(t) - 1.0 for t in v])

    h = elu(net.layers[0].weights @ x + net.layers[0].bias)
    h = np.maximum(net.layers[1].weights @ h + net.layers[1].bias, 0.0)
    h = net.layers[2].weights @ h + net.layers[2].bias
    assert np.max(np.abs(y[0] - h)) < 1e-12


def test_forward_determinism_bitwise():
    net = _random_net(9)
    x = np.random.default_rng(1).normal(size=(1, 4))
    y1, _ = forward(net, x)
    y2, _ = forward(net, x)
    assert np.array_equal(y1, y2)


def test_forward_dimension_mismatch():
    net = _random_net(0)
    with pytest.raises(ValueError, match="input"):
        forward(net, np.zeros((1, 5)))


def test_backward_linear_squared_loss_closed_form():
    rng = np.random.default_rng(11)
    w = rng.normal(size=(3, 4))
    net = mlp_of((w, None, "identity"))
    x = rng.normal(size=4)
    target = rng.normal(size=3)
    y, cache = forward(net, x[None])
    grads, _ = backward(net, cache, 2.0 * (y - target))
    expected = 2.0 * np.outer(w @ x - target, x)
    assert np.max(np.abs(grads[0] - expected)) < 1e-12


def test_backward_zero_input_bias_free_gives_zero_weight_grads():
    net = init_mlp((3, 2), ["identity"], False, np.random.default_rng(5))
    y, cache = forward(net, np.zeros((1, 3)))
    grads, _ = backward(net, cache, np.ones((1, 2)))
    assert np.array_equal(grads[0], np.zeros((2, 3)))


@pytest.mark.parametrize("seed", range(5))
def test_backward_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    net = _random_net(seed, acts=("elu", "elu", "identity"))
    x = rng.normal(size=(1, 4))
    target = rng.normal(size=3)

    def loss(y):
        return float(np.sum((y - target) ** 2)), 2.0 * (y - target)

    report = _grad_check(net, x, loss)
    assert report.passed, report


def test_backward_rejects_mismatched_network():
    net_a, net_b = _random_net(2), _random_net(2)
    _, cache = forward(net_a, np.zeros((1, 4)))
    with pytest.raises(ValueError, match="different network"):
        backward(net_b, cache, np.zeros((1, 3)))


def test_grad_check_identity_quadratic_is_tight():
    net = mlp_of((np.eye(3), None, "identity"))
    target = np.array([0.7, -1.2, 0.4])
    x = np.array([[1.3, 0.8, -0.9]])

    def loss(y):
        return float(np.sum((y - target) ** 2)), 2.0 * (y - target)

    report = _grad_check(net, x, loss, tolerance=1e-8)
    assert report.passed, report


def test_grad_check_detects_corrupted_gradient():
    rng = np.random.default_rng(8)
    net = _random_net(8)
    x = rng.normal(size=(1, 4))
    target = rng.normal(size=3)

    def loss(y):
        return float(np.sum((y - target) ** 2)), 2.0 * (y - target)

    y, cache = forward(net, x)
    analytic, _ = backward(net, cache, loss(y)[1])
    corrupted = [2.0 * g for g in analytic]
    report = grad_check_params(
        net.parameters(), net.parameter_names(),
        lambda: loss(forward(net, x)[0])[0], corrupted,
    )
    assert not report.passed


def test_finite_differences_restore_parameters():
    net = _random_net(4)
    before = [p.copy() for p in net.parameters()]
    finite_difference_grads(net.parameters(), lambda: float(forward(net, np.ones((1, 4)))[0].sum()))
    for old, new in zip(before, net.parameters()):
        assert np.array_equal(old, new)


def test_max_relative_error_floor_hides_roundoff_only():
    a = [np.array([1.0, 1e-9])]
    n = [np.array([1.0, 0.0])]
    err, _ = max_relative_error(a, n)
    assert err < 1e-5


def _weights_net(w):
    return mlp_of((np.array(w, dtype=float), None, "identity"))


def _adam(state, grads):
    """Write ``grads``, aligned with the parameters of the state's networks in
    order, into their gradient vectors, then take one Adam step."""
    views = [view for net in state.nets for view in net.gradients()]
    for view, g in zip(views, grads, strict=True):
        view[...] = g
    adam_step(state)


def test_adam_zero_gradient_is_identity():
    net = _random_net(6)
    before = [p.copy() for p in net.parameters()]
    version = net.version
    _adam(AdamState([net], learning_rate=0.1), [np.zeros_like(p) for p in before])
    for old, new in zip(before, net.parameters()):
        assert np.array_equal(old, new)
    assert net.version == version + 1


def test_adam_moves_against_constant_gradient():
    net = _weights_net([[0.0]])
    state = AdamState([net], learning_rate=0.01)
    for _ in range(100):
        _adam(state, [np.array([[3.0]])])
    assert net.layers[0].weights[0, 0] < 0.0


def test_adam_converges_on_quadratic_bowl():
    net = _weights_net([[3.0, -2.0]])
    state = AdamState([net], learning_rate=1e-2)
    for _ in range(5000):
        _adam(state, [2.0 * net.layers[0].weights])
    assert np.max(np.abs(net.layers[0].weights)) < 1e-6


def test_adam_rejects_non_finite_gradient_by_name():
    nets = [_random_net(1), _random_net(2)]
    before = [p.copy() for net in nets for p in net.parameters()]
    grads = [np.zeros_like(p) for p in before]
    grads[7] = np.full_like(grads[7], np.nan)  # second net, layer0 bias
    with pytest.raises(ValueError, match=r"net1\.layer0\.bias"):
        _adam(AdamState(nets, learning_rate=0.1), grads)
    after = [p for net in nets for p in net.parameters()]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_bias_free_net_stays_bias_free_through_training():
    rng = np.random.default_rng(13)
    net = init_mlp((3, 4, 2), ["elu", "identity"], False, rng)
    state = AdamState([net], learning_rate=1e-2)
    x = rng.normal(size=(1, 3))
    for _ in range(25):
        y, cache = forward(net, x)
        backward(net, cache, 2.0 * y)
        adam_step(state)
    assert all(layer.bias is None for layer in net.layers)
    assert len(net.parameters()) == 2


def test_adam_in_place_matches_out_of_place_reference_bitwise():
    # nets whose parameters lie in one slice of the flat pass, and nets whose
    # parameters span three, a large matrix across each boundary between tiny arrays
    for nets in ([_random_net(3), _random_net(4, bias=False)],
                 [_random_net(5), _random_net(6, dims=(400, 400, 1, 2)),
                  _random_net(7, dims=(1, 2), acts=("identity",))]):
        params = [p.copy() for net in nets for p in net.parameters()]
        size = sum(p.size for p in params)
        assert size <= ADAM_SLICE or size > 2 * ADAM_SLICE
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        state = AdamState(nets, learning_rate=1e-2)
        rng = np.random.default_rng(5)
        for t in range(1, 9):
            state.learning_rate = lr = 1e-2 if t <= 4 else 1e-3
            grads = [rng.normal(size=p.shape) for p in params]
            _adam(state, grads)
            params = reference_adam(params, grads, m, v, t, lr)
            live = [p for net in nets for p in net.parameters()]
            assert all(np.array_equal(a, b) for a, b in zip(live, params, strict=True))


def test_backward_rejects_cache_taken_before_adam_step():
    net = _random_net(2)
    _, cache = forward(net, np.zeros((1, 4)))
    _adam(AdamState([net], learning_rate=0.1), [np.ones_like(p) for p in net.parameters()])
    with pytest.raises(ValueError, match="stale"):
        backward(net, cache, np.zeros((1, 3)))


@pytest.mark.parametrize("bias", [True, False])
def test_mlp_keeps_its_layers_arrays_in_one_flat_vector(bias):
    rng = np.random.default_rng(3)
    weights = [rng.normal(size=(6, 4)), rng.normal(size=(3, 6))]
    biases = [rng.normal(size=6), rng.normal(size=3)] if bias else [None, None]
    net = mlp_of(*[(w, b, "elu") for w, b in zip(weights, biases)])
    given = [p for w, b in zip(weights, biases) for p in (w, b) if p is not None]
    assert [p.tobytes() for p in net.parameters()] == [p.tobytes() for p in given]
    assert net.flat.flags.c_contiguous and net.flat.dtype == np.float64
    assert net.grad is None
    assert_views_of_flat(net, rng.normal(size=(2, 4)))


def test_mlp_from_shapes_is_zeros_in_parameter_order():
    net = Mlp([(4, 6, "elu", True), (6, 3, "identity", False)])
    assert [p.shape for p in net.parameters()] == [(6, 4), (6,), (3, 6)]
    assert net.flat.size == 24 + 6 + 18 and not net.flat.any()
    assert [layer.activation for layer in net.layers] == ["elu", "identity"]


def test_layer_arrays_cannot_be_rebound():
    net = _random_net(4)
    layer = net.layers[0]
    for name in ("weights", "bias"):
        with pytest.raises(AttributeError):
            setattr(layer, name, np.zeros_like(getattr(layer, name)))
    for name in ("flat", "grad"):
        with pytest.raises(AttributeError):
            setattr(net, name, np.zeros_like(net.flat))


def test_backward_writes_the_gradient_vector_in_place():
    rng = np.random.default_rng(8)
    net = _random_net(8)
    x = rng.normal(size=(5, 4))
    y, cache = forward(net, x)
    assert net.grad is None  # forward allocates no gradients
    grads, _ = backward(net, cache, y)
    grad = net.grad
    assert [g.shape for g in grads] == [p.shape for p in net.parameters()]
    assert np.concatenate([g.ravel() for g in grads]).tobytes() == grad.tobytes()
    want = [g.copy() for g in grads]
    grad[:] = np.nan
    again, _ = backward(net, cache, y)
    assert net.grad is grad
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again, want, strict=True))


def test_init_respects_uniform_bound():
    rng = np.random.default_rng(21)
    net = init_mlp((10, 7), ["identity"], True, rng)
    bound = np.sqrt(6.0 / (10 + 7))
    assert np.max(np.abs(net.layers[0].weights)) <= bound
    assert np.array_equal(net.layers[0].bias, np.zeros(7))


def test_mlp_rejects_non_chaining_dims():
    with pytest.raises(ValueError, match="chain"):
        Mlp([(3, 4, "identity", False), (5, 2, "identity", False)])


def test_batched_forward_matches_per_example():
    # batched matmul may use a different BLAS summation order, so compare
    # to float tolerance rather than bitwise
    rng = np.random.default_rng(17)
    net = _random_net(17)
    batch = rng.normal(size=(6, 4))
    y_batch, _ = forward(net, batch)
    for i in range(len(batch)):
        y, _ = forward(net, batch[i : i + 1])
        assert np.max(np.abs(y_batch[i] - y[0])) < 1e-12


def _infer_oracle(net, x):
    """``infer``'s chain spelled out: each product on a C-contiguous
    ``(in, out)`` copy of the weights, the bias added, the np.where forms of
    the activations."""
    for layer in net.layers:
        z = x @ np.ascontiguousarray(layer.weights.T)
        if layer.bias is not None:
            z = z + layer.bias
        if layer.activation == "relu":
            z = np.where(z > 0.0, z, 0.0)
        elif layer.activation == "elu":
            z = np.where(z >= 0.0, z, np.expm1(z))
        x = z
    return x


def _scaled_net(activation, bias, rng):
    # 160 wide, so a 512-row block's hidden layer (81,920 values) takes elu
    # in two stretches of rows
    net = init_mlp((16, 160, 8), [activation, activation], bias, rng)
    for layer in net.layers:
        if bias:
            layer.bias[:] = rng.normal(size=layer.out_dim)
    return net


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("activation", ["identity", "relu", "elu"])
def test_infer_equals_in_out_oracle_bitwise(activation, bias):
    rng = np.random.default_rng(23)
    net = _scaled_net(activation, bias, rng)
    # scale so that every activation sees both signs and its saturated ends;
    # the one-frame step's 1 to 20 rows and the calibration block's 512
    for rows in (1, 5, 20, 512):
        x = 4.0 * rng.normal(size=(rows, 16))
        out = infer(net, x)
        assert out.tobytes() == _infer_oracle(net, x).tobytes()
        # forward multiplies the transposed (out, in) view: the same values,
        # which BLAS may sum in another order on a few rows. An output that
        # cancels to near zero differs by more than 1e-12 of itself, so the
        # bound is relative to the largest output
        y, _ = forward(net, x)
        np.testing.assert_allclose(out, y, rtol=1e-12, atol=1e-12 * np.abs(y).max())


def test_infer_weight_copies_are_in_out_and_aligned():
    net = _scaled_net("elu", True, np.random.default_rng(31))
    infer(net, np.zeros((1, 16)))
    copies = net._infer_weights
    for layer, w in zip(net.layers, copies, strict=True):
        assert w.flags.c_contiguous and w.ctypes.data % WEIGHT_ALIGN == 0
        assert w.tobytes() == np.ascontiguousarray(layer.weights.T).tobytes()
    infer(net, np.zeros((3, 16)))
    assert net._infer_weights is copies  # made once


def test_infer_reads_the_weights_of_the_last_adam_step():
    rng = np.random.default_rng(29)
    net = _scaled_net("elu", True, rng)
    x = 4.0 * rng.normal(size=(5, 16))
    before = infer(net, x)
    state = AdamState([net], learning_rate=0.1)
    for _ in range(2):
        y, cache = forward(net, x)
        backward(net, cache, y)
        adam_step(state)
        fresh = Mlp([(layer.in_dim, layer.out_dim, layer.activation, True)
                     for layer in net.layers])
        fresh.flat[:] = net.flat
        out = infer(net, x)
        assert out.tobytes() == infer(fresh, x).tobytes()
        assert not np.array_equal(out, before)
        before = out


def _elu_views(base):
    """``base`` whole, offset by one, every third element, and a column slice
    of it as a matrix. Only positive strides: on a reversed view np.expm1
    takes its scalar loop, whose last bit differs from its SIMD loop's on
    AVX-512 hosts, so the oracle itself would change with the layout."""
    cols = base[: base.size // 4 * 4].reshape(-1, 4)
    return {"contiguous": base, "offset": base[1:], "strided": base[::3],
            "columns": cols[:, 1:3]}


@pytest.mark.parametrize("view", ["contiguous", "offset", "strided", "columns"])
def test_elu_kernels_equal_where_forms_bitwise(view):
    # the np.where forms are the oracles; the kernels must give their bits,
    # signed zeros, infinities, NaN and subnormals included
    rng = np.random.default_rng(31)
    # each four times over, so that every view holds each of them
    special = np.repeat([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.0, -1.0], 4)
    scales = 10.0 ** np.arange(-300, 301, 25)
    for n in (1, 3, 17, 511, 4099):
        base = np.concatenate([special, *(s * rng.standard_normal(n) for s in scales)])
        z = _elu_views(base)[view]
        with np.errstate(over="ignore"):  # expm1 of a large positive z
            want = np.where(z >= 0.0, z, np.expm1(z))
        # in place on the same view of a copy
        got = _activate("elu", _elu_views(base.copy())[view])
        assert got.tobytes() == want.tobytes()
        a = _elu_views(np.concatenate([want.reshape(-1), special]))[view]
        want_prime = np.where(a >= 0.0, 1.0, a + 1.0)
        assert _activate_prime("elu", a).tobytes() == want_prime.tobytes()


def test_elu_on_every_negative_binade_equals_where_form_bitwise():
    # for a negative z elu keeps expm1(z), which must never round below z:
    # every binade from 2^-64 (where expm1(z) is within an ulp of z) to 2^4,
    # each of its 2^17 leading mantissa patterns with random trailing bits;
    # a binade's 2^17 values take elu in two ELU_SLICE stretches
    rng = np.random.default_rng(41)
    leading = np.arange(1 << 17, dtype=np.uint64) << np.uint64(35)
    for exponent in range(-64, 4):
        trailing = rng.integers(0, 1 << 35, size=leading.size, dtype=np.uint64)
        bits = (np.uint64(1) << np.uint64(63)) | (np.uint64(exponent + 1023) << np.uint64(52))
        z = (bits | leading | trailing).view(np.float64)
        assert np.all(np.expm1(z) >= z), exponent
        want = np.where(z >= 0.0, z, np.expm1(z))
        assert _activate("elu", z.copy()).tobytes() == want.tobytes(), exponent


class _SignedZeroProducts(np.ndarray):
    """Weights whose products give every other exact zero as -0.0. A BLAS sum
    starts from +0.0, so a plain product is never -0.0; these let the
    derivative rules meet both signed zeros."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
        if ufunc is np.matmul:
            out.flat[np.flatnonzero(out == 0.0)[::2]] = -0.0
        return out


def _backward_at_pre_activations(net, x, loss_grad):
    """Backprop that keeps each pre-activation and differentiates there."""
    a = x
    inputs, pre = [], []
    for layer in net.layers:
        inputs.append(a)
        z = a @ layer.weights.T
        if layer.bias is not None:
            z = z + layer.bias
        pre.append(z)
        if layer.activation == "relu":
            a = np.maximum(z, 0.0)
        elif layer.activation == "elu":
            a = np.where(z >= 0.0, z, np.expm1(z))
        else:
            a = z
    grads = []
    delta = loss_grad
    for layer, a_prev, z in reversed(list(zip(net.layers, inputs, pre))):
        if layer.activation == "relu":
            delta = delta * (z > 0.0).astype(z.dtype)
        elif layer.activation == "elu":
            delta = delta * np.where(z >= 0.0, 1.0, np.expm1(z) + 1.0)
        else:
            delta = delta * np.ones_like(z)
        layer_grads = [delta.T @ a_prev]
        if layer.bias is not None:
            layer_grads.append(delta.sum(axis=0))
        grads = layer_grads + grads
        delta = delta @ layer.weights
    return grads, delta, pre


@pytest.mark.parametrize("rows", [None, 1, 6])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_backward_equals_pre_activation_oracle_bitwise(seed, bias, rows):
    rng = np.random.default_rng(seed)
    acts = [*rng.permutation(["elu", "relu", "identity"]), rng.choice(["elu", "relu"])]
    net = init_mlp((5, 7, 6, 4, 3), acts, bias, rng)
    for i, layer in enumerate(net.layers):
        layer.weights[::3] = 0.0  # these units' pre-activations are exactly +-0
        # a view of the same memory: the layer stays a view of the net's vector
        net.layers[i] = layer._replace(weights=layer.weights.view(_SignedZeroProducts))
        if bias:
            layer.bias[:] = rng.normal(size=layer.out_dim)
            layer.bias[::3] = -0.0  # keeps the sign of a zero product
    # rows=None: one frame, handed over as its one-row view x[None], the form
    # in which the scorers pass a frame on
    x = 2.0 * rng.normal(size=5 if rows is None else (rows, 5))
    if rows is None:
        x = x[None]
    if rows == 6:
        x[-1] = 0.0
    y, cache = forward(net, x)
    g = rng.normal(size=y.shape)
    want_grads, want_input, pre = _backward_at_pre_activations(net, x, g)
    signs = np.concatenate([np.signbit(z[z == 0.0]) for z in pre])
    assert signs.any() and not signs.all()
    grads, input_grad = backward(net, cache, g)
    assert len(grads) == len(want_grads)
    assert all(np.array_equal(a, b) for a, b in zip(grads, want_grads))
    assert np.array_equal(input_grad, want_input)
    # without the input gradient, the parameter gradients are the full pass's
    grads, input_grad = backward(net, cache, g, input_grad=False)
    assert all(np.array_equal(a, b) for a, b in zip(grads, want_grads, strict=True))
    assert input_grad is None


_NET = _random_net(0)
_ERRORS = {
    "empty-mlp": (lambda: Mlp([]), "at least one layer"),
    "zero-dim": (lambda: Mlp([(4, 0, "elu", True), (0, 2, "identity", True)]),
                 "layer 0 maps 4 -> 0: dimensions must be positive"),
    "unknown-activation": (lambda: Mlp([(4, 3, "sigmoid", True)]),
                           "unknown activation 'sigmoid'"),
    "init-one-dim": (lambda: init_mlp((4,), [], True, np.random.default_rng(0)),
                     "an input and an output dimension"),
    "init-activation-count": (lambda: init_mlp((4, 3), ["elu", "elu"], True,
                                               np.random.default_rng(0)),
                              "expected 1 activations, got 2"),
    "forward-single-example": (lambda: forward(_NET, np.zeros(4)),
                               r"input must be a batch \(B, 4\), got shape \(4,\)"),
    "backward-single-example": (lambda: backward(_NET, forward(_NET, np.zeros((1, 4)))[1],
                                                 np.zeros(3)),
                                r"gradient shape \(3,\) does not match output shape \(1, 3\)"),
    "backward-gradient-shape": (lambda: backward(_NET, forward(_NET, np.zeros((1, 4)))[1],
                                                 np.zeros((1, 2))),
                                r"gradient shape \(1, 2\) does not match output shape \(1, 3\)"),
    "adam-zero-learning-rate": (lambda: AdamState([_NET], learning_rate=0.0),
                                "learning rate must be positive"),
    "adam-nan-learning-rate": (lambda: AdamState([_NET], learning_rate=np.nan),
                               "learning rate must be positive and finite, got nan"),
    "adam-no-gradients": (lambda: adam_step(AdamState([_random_net(0)], learning_rate=0.1)),
                          "net0 has no gradients"),
}


@pytest.mark.parametrize("call,message", _ERRORS.values(), ids=list(_ERRORS))
def test_invalid_arguments_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
