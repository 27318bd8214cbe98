"""Dense tensors with reverse-mode automatic differentiation.

Values live in numpy arrays, float32 by default; every op computes in the
dtype of its operands, so the same ops on float64 arrays run in 64-bit,
which is what the gradient checks use.  Every differentiable operation is a
``Function`` node that links to the ops (or leaf tensors) it read, never to
their values, and saves only the arrays its backward reads.
:func:`backward` walks the recorded graph in reverse topological order,
adding the gradients a node receives in one fixed order (the bytes of a
seeded run depend on it), returns the gradients of the leaves
(``requires_grad`` tensors with no creator) as a dict and frees each node as
it passes it, so the graph is gone when it returns.  It writes no tensor's
``grad``; that slot is where the caller hands gradients to the optimizer.
Inside a :class:`no_grad` block ops record nothing, so a forward-only pass
keeps no intermediate arrays alive.  On tiny arrays recording and walking
back an op cost as much as its arithmetic, so both are kept to plain loops.

Tensors are value-like: no op mutates its operands, and one forward/backward
pass belongs to a single thread.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

import numpy as np

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ConsumedGraphError(RuntimeError):
    """``backward`` reached an op that an earlier ``backward`` already freed."""


class Tensor:
    """An n-dimensional array with optional gradient state: autodiff never
    writes ``grad`` (:func:`backward` returns gradients); it is where a
    caller hands a parameter's gradient to :class:`canet.optim.Adam`."""

    __slots__ = ("data", "requires_grad", "grad", "creator")

    def __init__(self, data, requires_grad: bool = False, creator: Optional["Function"] = None):
        if type(data) is not np.ndarray:
            data = np.asarray(data)
        if data.dtype not in _FLOAT_DTYPES:
            data = data.astype(np.float32)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.creator = creator

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def _wrap(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.dtype))

    def __add__(self, other):
        return Add.apply(self, self._wrap(other))

    def __sub__(self, other):     # a + -b is a - b, bit for bit; a constant's -b is off the tape
        other = self._wrap(other)
        return self + (other * -1.0 if other.requires_grad else Tensor(-other.data))

    def __mul__(self, other):
        return Mul.apply(self, self._wrap(other))

    __rmul__ = __mul__      # a * b is b * a, bit for bit

    def __getitem__(self, key):
        return Slice.apply(self, key=key)

    def mean(self, axis=None) -> "Tensor":
        """The mean over ``axis`` (None: every axis); reduced axes are dropped."""
        return Mean.apply(self, axis=axis)

    def reshape(self, shape) -> "Tensor":
        return Reshape.apply(self, shape=tuple(shape))

    def transpose(self) -> "Tensor":
        """Swap the last two axes."""
        return Transpose.apply(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class _TapeState(threading.local):
    paused = 0          # open no_grad blocks on this thread


_TAPE = _TapeState()


class no_grad:
    """Context in which ops record no autodiff tape.

    Every op still computes its value, but returns a tensor with no
    creator and ``requires_grad`` False, so the op and the arrays it saved
    die with the call.  Blocks nest, an exception leaves the previous state
    restored, and the state is per thread: a block opened on one thread
    does not pause recording on another.
    """

    def __enter__(self):
        _TAPE.paused += 1
        return self

    def __exit__(self, *exc_info):
        _TAPE.paused -= 1


class Function:
    """One differentiable operation; saves only what its backward reads.

    ``needs[i]`` tells whether input ``i`` needs a gradient.  ``Add``,
    ``Mul`` and ``MatMul``, the ops that meet constants in the model (a
    subtraction adds the negated operand), save no array read only by the
    gradient of an input that needs none and return None for that input;
    the others save all and return every gradient, which :func:`backward`
    drops where the parent is None.
    A recorded op's ``parents`` hold, per input, the input's creator, the
    input itself when it is a leaf, or None when it needs no gradient, so an
    op output that no backward reads dies with its last Python reference.
    """

    parents = None      # None until recorded, and again once backward consumed the op

    def __init__(self, needs: tuple):
        self.needs = needs

    def forward(self, *arrays, **kwargs) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> tuple:
        raise NotImplementedError

    @classmethod
    def apply(cls, *inputs, **kwargs) -> Tensor:
        if _TAPE.paused:
            return Tensor(cls((False,) * len(inputs)).forward(*[t.data for t in inputs], **kwargs))
        arrays, needs, parents = [], [], []
        for t in inputs:
            arrays.append(t.data)
            needs.append(t.requires_grad)
            parents.append((t.creator or t) if t.requires_grad else None)
        op = cls(tuple(needs))
        out = op.forward(*arrays, **kwargs)
        if True not in needs:
            return Tensor(out)
        op.parents = tuple(parents)
        return Tensor(out, requires_grad=True, creator=op)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to a broadcast operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _save_crosswise(op: Function, a: np.ndarray, b: np.ndarray) -> None:
    """Save the operand shapes, and each operand of a product only when the
    other one needs a gradient: ``a`` is read only by ``b``'s and ``b`` by ``a``'s."""
    need_a, need_b = op.needs
    op.shapes = (a.shape, b.shape)
    op.a = a if need_b else None
    op.b = b if need_a else None


class Add(Function):
    def forward(self, a, b):
        self.shapes = (a.shape, b.shape)
        return a + b

    def backward(self, grad):
        return tuple(_unbroadcast(grad, shape) if need else None
                     for shape, need in zip(self.shapes, self.needs))


class Mul(Function):
    def forward(self, a, b):
        _save_crosswise(self, a, b)
        return a * b

    def backward(self, grad):
        (sa, sb), (need_a, need_b) = self.shapes, self.needs
        return (_unbroadcast(grad * self.b, sa) if need_a else None,
                _unbroadcast(grad * self.a, sb) if need_b else None)


class MatMul(Function):
    def forward(self, a, b):
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
        _save_crosswise(self, a, b)
        try:
            return a @ b
        except ValueError as exc:
            raise ShapeError(f"matmul batch dimensions incompatible: {a.shape} @ {b.shape}") from exc

    def backward(self, grad):
        (sa, sb), (need_a, need_b) = self.shapes, self.needs
        a, b = self.a, self.b
        if len(sb) == 2:
            return _weight_grads(grad, a, b, sa)
        return (_unbroadcast(grad @ np.swapaxes(b, -1, -2), sa) if need_a else None,
                _unbroadcast(np.swapaxes(a, -1, -2) @ grad, sb) if need_b else None)


def _weight_grads(grad: np.ndarray, a, b, shape_a: tuple) -> tuple:
    """The gradients of ``a`` and of ``b`` in ``a @ b`` for a 2-D ``b`` (a
    weight), every leading axis folded into one GEMM per gradient.  Pass
    None for an operand whose partner needs no gradient: ``a`` is read only
    by ``b``'s gradient and ``b`` by ``a``'s; that gradient comes back None."""
    flat = grad.reshape(-1, grad.shape[-1])
    return ((flat @ b.T).reshape(shape_a) if b is not None else None,
            a.reshape(-1, shape_a[-1]).T @ flat if a is not None else None)


class Transpose(Function):
    """Swap the last two axes."""

    def forward(self, a):
        return np.swapaxes(a, -1, -2)

    def backward(self, grad):
        return (np.swapaxes(grad, -1, -2),)


class Reshape(Function):
    def forward(self, a, shape):
        self.original = a.shape
        return a.reshape(shape)

    def backward(self, grad):
        return (grad.reshape(self.original),)


class Slice(Function):
    def forward(self, a, key):
        self.original = a.shape
        self.key = key
        self.dtype = a.dtype
        return a[key]

    def backward(self, grad):
        out = np.zeros(self.original, dtype=self.dtype)
        out[self.key] = grad
        return (out,)


class Concat(Function):
    def forward(self, *arrays, axis=-1):
        self.axis = axis
        self.splits = np.cumsum([a.shape[axis] for a in arrays])[:-1]
        return np.concatenate(arrays, axis=axis)

    def backward(self, grad):
        return tuple(np.split(grad, self.splits, axis=self.axis))


class Mean(Function):
    def forward(self, a, axis=None):
        self.original = a.shape
        self.axis = axis
        out = _mean(a, axis, False)
        self.count = a.size // max(out.size, 1)
        return out

    def backward(self, grad):
        if self.axis is not None:
            grad = np.expand_dims(grad, self.axis)
        return (np.broadcast_to(grad, self.original) / self.count,)


def _mean(a: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    """``a.mean(axis=axis, keepdims=keepdims)``: numpy's own sum and in-place
    division by the item count, without the Python wrapper around them."""
    total = np.asarray(np.add.reduce(a, axis=axis, keepdims=True))   # a 0-d sum is a scalar
    np.true_divide(total, np.intp(a.size // max(total.size, 1)), out=total, casting="unsafe")
    return total if keepdims else total.squeeze(axis)


class Sqrt(Function):
    def forward(self, a):
        self.out = np.sqrt(a)
        return self.out

    def backward(self, grad):
        # subgradient 0 at exactly zero keeps NaN out of a perfect-fit loss
        safe = np.where(self.out > 0, self.out, 1.0)
        return (grad * np.where(self.out > 0, 0.5 / safe, 0.0),)


class Relu(Function):
    def forward(self, a):
        self.positive = a > 0
        return np.maximum(a, 0)

    def backward(self, grad):
        return (grad * self.positive,)


class LeakyRelu(Function):
    slope = 0.2     # as in graph attention networks (Veličković et al., 2018)

    def forward(self, a):
        self.positive = a >= 0
        return np.where(self.positive, a, self.slope * a)

    def backward(self, grad):
        return (np.where(self.positive, grad, self.slope * grad),)


class Softmax(Function):
    """Softmax along the last axis; ``-inf`` entries come out exactly zero."""

    def forward(self, a):
        out = a - _reduce_keepdims(np.maximum, a)
        np.exp(out, out=out)
        out /= _reduce_keepdims(np.add, out)
        self.out = out
        return out

    def backward(self, grad):
        inner = _reduce_keepdims(np.add, grad * self.out)
        return ((grad - inner) * self.out,)


class Attention(Function):
    """The residual self-attention sublayer ``x + softmax(q kᵀ s) v @ w_out``
    with ``s = 1/sqrt(d)`` (Vaswani et al., 2017), of ``q = x @ w_q``,
    ``k = x @ w_k`` and ``v = x @ w_v`` (2-D weights), as one node; with
    ``causal`` each position attends only to itself and earlier ones, and
    with ``rows`` only the last ``rows`` positions are projected and returned,
    each plus its own row of ``x``.

    ``x`` comes in the model's ``(..., seq, width)`` layout; q and k have one
    width, head ``i`` reads column block ``i`` of q, k and v, and ``w_out``
    maps v's width back to ``x``'s.  The heads run on ``(..., heads, seq, d)``
    views, and each head product is written into a fresh array of the
    merged layout.  The arithmetic and its order are the composed ops'
    (project, scale q, multiply by kᵀ, add ``-inf`` above the diagonal when
    causal, softmax, multiply by v, crop, project, add ``x``), so outputs
    keep their bytes.  Only the inputs and ``p`` are saved; backward
    recomputes v, the heads' output ``p v`` for ``w_out``'s gradient, q and
    k (Chen et al., 2016: compute traded for activation memory) and takes
    the closed form: with the heads' output gradient ``g``,
    ``ds = p * (g vᵀ - sum(g vᵀ * p))`` summed over the key axis, then
    ``gq = (ds k) s``, ``gk = dsᵀ (q s)`` and ``gv = pᵀ g``, each passed back
    through its projection in turn.  ``x``'s gradient is the residual's plus
    q's, k's and v's, summed in that order.  Every array is dropped at its
    last read.
    """

    def forward(self, x, w_q, w_k, w_v, w_out, causal=False, heads=1, rows=None):
        if (x.ndim < 2 or any(w.ndim != 2 for w in (w_q, w_k, w_v, w_out))
                or not x.shape[-1] == w_q.shape[0] == w_k.shape[0] == w_v.shape[0] == w_out.shape[1]
                or w_q.shape[1] != w_k.shape[1] or w_v.shape[1] != w_out.shape[0]
                or w_q.shape[1] % heads or w_v.shape[1] % heads
                or (rows is not None and not 0 < rows <= x.shape[-2])):
            raise ShapeError(f"attention operands do not fit (heads={heads}, rows={rows}): x "
                             f"{x.shape}, weights {w_q.shape} {w_k.shape} {w_v.shape} {w_out.shape}")
        self.heads, self.rows = heads, None if rows == x.shape[-2] else rows
        q, k = x @ w_q, x @ w_k             # v only after the softmax
        # kᵀ and vᵀ are copied before their products: numpy multiplies stacks of
        # small matrices given as transposed strided views several times slower
        k = np.swapaxes(_split_heads(k, heads), -1, -2).copy()
        q = _split_heads(q, heads)
        self.scale = q.dtype.type(1.0 / np.sqrt(q.shape[-1]))
        q *= self.scale
        scores = q @ k
        del q, k
        if causal:
            # x + 0 keeps the value of x, x + -inf is -inf
            scores += np.triu(np.full(scores.shape[-2:], -np.inf, scores.dtype), 1)
        scores -= _reduce_keys(np.maximum, scores)
        np.exp(scores, out=scores)
        scores /= _reduce_keys(np.add, scores)
        self.saved = (x, w_q, w_k, w_v, w_out)
        self.p = scores
        attended = _merged_product(scores, _split_heads(x @ w_v, heads), heads)
        if self.rows is None:
            out = attended @ w_out
        else:
            kept = attended[..., -self.rows:, :].reshape(-1, attended.shape[-1])
            out = kept @ w_out if len(kept) > 1 else (  # a lone row folded as row_matmul folds it
                np.concatenate([kept, _zero_row(kept)]) @ w_out)[:-1]
            x = x[..., -self.rows:, :]
        out = out.reshape(x.shape)
        out += x                            # the residual: a + x is x + a, bit for bit
        return out

    def backward(self, grad):
        x, w_q, w_k, w_v, w_out = self.saved
        heads, p, rows, residual = self.heads, self.p, self.rows, grad
        del self.p                          # so that p goes at its last read
        v = _split_heads(x @ w_v, heads)
        kept = _merged_product(p, v, heads)
        shape = kept.shape
        if rows is not None:                # the crop and lone-row fold the forward ran
            kept = kept[..., -rows:, :].reshape(-1, shape[-1])
            grad, n = grad.reshape(-1, grad.shape[-1]), len(kept)
            kept, grad = (np.concatenate([a, _zero_row(a)]) if n == 1 else a for a in (kept, grad))
        grad, gw_out = _weight_grads(grad, kept, w_out, kept.shape)
        if rows is not None:                # zero-filled around the kept rows
            kept, grad = grad[:n], np.zeros(shape, grad.dtype)
            grad[..., -rows:, :] = kept.reshape(shape[:-2] + (rows, shape[-1]))
        del kept
        grad = _split_heads(grad, heads)
        gx_v, gw_v = _weight_grads(_merged_product(np.swapaxes(p, -1, -2), grad, heads),
                                   x, w_v, x.shape)
        v = np.swapaxes(v, -1, -2).copy()   # vᵀ; v is not read again
        ds = grad @ v
        del grad, v
        ds -= _reduce_keys(np.add, ds * p)
        ds *= p
        del p
        gq = _merged_product(ds, _split_heads(x @ w_k, heads), heads)
        gq *= self.scale
        gx, gw_q = _weight_grads(gq, x, w_q, x.shape)
        del gq
        # no kept row reads a query above a crop, so gx is 0.0 there and adding
        # the residual's zero-filled gradient (Slice's) would change no byte
        gx[..., -residual.shape[-2]:, :] += residual
        qs = _split_heads(x @ w_q, heads)
        qs *= self.scale
        gk = _merged_product(np.swapaxes(ds, -1, -2), qs, heads)
        del ds, qs
        gx_k, gw_k = _weight_grads(gk, x, w_k, x.shape)
        gx += gx_k
        gx += gx_v
        return gx, gw_q, gw_k, gw_v, gw_out


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """``(..., seq, heads·d)`` as a ``(..., heads, seq, d)`` view."""
    return np.swapaxes(a.reshape(a.shape[:-1] + (heads, a.shape[-1] // heads)), -2, -3)


def _merged_product(a: np.ndarray, b: np.ndarray, heads: int) -> np.ndarray:
    """``a @ b`` of head stacks, written into a fresh ``(..., seq, heads·d)`` array."""
    out = np.empty(a.shape[:-3] + (a.shape[-2], heads * b.shape[-1]), np.result_type(a, b))
    np.matmul(a, b, out=_split_heads(out, heads))
    return out


def _reduce_keys(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce`` over the last (key) axis, kept as a length-1 axis: one call
    per key on the view ``a[..., j]``, in key order; no copy, and a sequential sum."""
    acc = ufunc(a[..., 0], a[..., 1]) if a.shape[-1] > 1 else a[..., 0].copy()
    for j in range(2, a.shape[-1]):
        ufunc(acc, a[..., j], out=acc)
    return acc[..., None]


def _reduce_keepdims(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce`` over the last axis, kept as a length-1 axis, as one
    elementwise pass per position over a contiguous copy with that axis in
    front: faster than strided views (:func:`_reduce_keys`) on softmax's long
    axis.  The sum is sequential, numpy's own order below 8 positions."""
    return ufunc.reduce(np.moveaxis(a, -1, 0).copy(), axis=0)[..., None]


class LayerNorm(Function):
    """Layer normalization over the last axis (Ba et al., 2016), one node.

    The backward is the closed form: with ``g = grad * gain`` and the
    normalized input ``x̂``, the input gradient is
    ``inv * (g - mean(g) - x̂ * mean(g * x̂))``; it, ``x̂`` and the output
    are built in place.
    """

    eps = 1e-5

    def forward(self, x, gain, bias):
        # the composed ops' arithmetic in their order, so outputs keep their bytes
        normed = x - _mean(x, -1, True)
        inv = (_mean(normed * normed, -1, True) + self.eps) ** -0.5
        normed *= inv
        self.shapes = (x.shape, gain.shape, bias.shape)
        self.inv, self.normed, self.gain = inv, normed, gain
        out = normed * gain
        out += bias
        return out

    def backward(self, grad):
        sx, sg, sb = self.shapes
        g = grad * self.gain
        gx = np.subtract(g, _mean(g, -1, True), order="C")    # C whatever grad's layout
        gx -= self.normed * _mean(g * self.normed, -1, True)
        gx *= self.inv
        return (_unbroadcast(gx, sx), _unbroadcast(grad * self.normed, sg),
                _unbroadcast(grad, sb))


class RowNormalize(Function):
    """Divide each slice along the last axis by its sum; all-zero slices
    stay exactly zero."""

    def forward(self, a):
        sums = a.sum(axis=-1, keepdims=True)
        self.zero_rows = sums == 0
        self.safe = np.where(self.zero_rows, 1.0, sums)
        self.out = a / self.safe
        return self.out

    def backward(self, grad):
        inner = np.sum(grad * self.out, axis=-1, keepdims=True)
        full = (grad - inner) / self.safe
        return (np.where(self.zero_rows, 0.0, full),)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading dimensions broadcast."""
    return MatMul.apply(a, b)


def row_matmul(a: Tensor, w: Tensor) -> Tensor:
    """``a @ w`` for a 2-D ``w`` with every row of ``a`` in a GEMM: numpy sends
    a one-row matrix, alone or stacked, down its vector-matrix path, which
    sums in another order, so such rows are folded into one 2-D product with
    a zero row below them, which a lone row needs to make two."""
    if a.shape[-2] > 1:
        return matmul(a, w)
    rows = concat([a.reshape((-1, a.shape[-1])), Tensor(_zero_row(a.data))], axis=0)
    return matmul(rows, w)[:-1].reshape(a.shape[:-1] + (w.shape[-1],))


def _zero_row(a: np.ndarray) -> np.ndarray:
    """The zero row :func:`row_matmul` and :class:`Attention` fold below a lone row."""
    return np.zeros((1, a.shape[-1]), a.dtype)


def relu(x: Tensor) -> Tensor:
    return Relu.apply(x)


def leaky_relu(x: Tensor) -> Tensor:
    return LeakyRelu.apply(x)


def softmax(x: Tensor) -> Tensor:
    """Probability-normalize along the last axis; to exclude positions, add
    ``-inf`` to them first."""
    return Softmax.apply(x)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (ε = 1e-5), then affine."""
    return LayerNorm.apply(x, gain, bias)


def row_normalize(x: Tensor) -> Tensor:
    return RowNormalize.apply(x)


def sqrt(x: Tensor) -> Tensor:
    return Sqrt.apply(x)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    return Concat.apply(*tensors, axis=axis)


def glorot_uniform(rng: np.random.Generator, shape: tuple) -> Tensor:
    """Fan-balanced uniform init for weight matrices."""
    fan_in, fan_out = int(np.prod(shape[:-1])), shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape).astype(np.float32), requires_grad=True)


def zeros(shape: tuple) -> Tensor:
    return Tensor(np.zeros(shape, np.float32), requires_grad=True)


def ones(shape: tuple) -> Tensor:
    return Tensor(np.ones(shape, np.float32), requires_grad=True)


def backward(loss: Tensor) -> dict:
    """The gradient of ``loss`` for every leaf it depends on, as ``{leaf: array}``.

    A leaf is a ``requires_grad`` tensor with no creator, such as a model
    parameter; intermediate tensors get no gradient.  ``loss`` must be a
    scalar (size 1).  No tensor's ``grad`` is touched, so passes over
    separate graphs may run on separate threads.

    The pass consumes the graph: each op frees its saved arrays and parent
    links once it has passed its gradient on, so the tape shrinks as the
    pass runs and is gone when it returns, even while ``loss`` is held.  A
    second pass through any of it raises :class:`ConsumedGraphError`; run
    the forward again instead.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return {}

    # nodes are ops and leaf tensors; each op's parents come before it in
    # ``ops``, which it joins when the ``expanded`` marker above it is popped
    root, expanded = loss.creator or loss, object()
    ops, leaves, seen, stack = [], [], set(), [root]
    while stack:
        node = stack.pop()
        if node is expanded:
            ops.append(stack.pop())
            continue
        if node in seen:
            continue
        seen.add(node)
        if type(node) is Tensor:
            leaves.append(node)
            continue
        parents = node.parents
        if parents is None:
            raise ConsumedGraphError(
                f"backward already ran through this graph and freed its "
                f"{type(node).__name__} op; run the forward pass again")
        stack.extend((node, expanded))
        for parent in parents:
            if parent is not None and parent not in seen:
                stack.append(parent)

    # every consumer of a node comes after it in ``ops``, so a node's
    # gradient is complete when the reversed walk reaches it
    pending: dict = {root: np.ones_like(loss.data)}
    for node in reversed(ops):
        grad = pending.pop(node, None)
        parents = node.parents
        grads = () if grad is None else node.backward(grad)
        node.__dict__.clear()       # saved arrays and parent links
        for parent, pgrad in zip(parents, grads):
            if pgrad is not None and parent is not None:
                total = pending.get(parent)
                pending[parent] = pgrad if total is None else total + pgrad
    return {leaf: pending[leaf] for leaf in reversed(leaves) if leaf in pending}
