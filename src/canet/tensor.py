"""Dense tensors with reverse-mode automatic differentiation.

Values live in numpy arrays, float32 by default; building a model from
float64 arrays switches the whole computation to 64-bit, which is what the
gradient checks use.  Every differentiable operation is a ``Function`` node
recording its inputs; :func:`backward` walks the recorded graph in reverse
topological order and accumulates gradients into every ``requires_grad``
tensor.  Gradients accumulate across calls until the caller clears them.
Inside a :class:`no_grad` block ops record nothing, so a forward-only pass
keeps no intermediate arrays alive.

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


class DegenerateMaskError(ValueError):
    """A softmax slice has every position masked out."""


class Tensor:
    """An n-dimensional array with optional gradient state."""

    __slots__ = ("data", "requires_grad", "grad", "creator")

    def __init__(self, data, requires_grad: bool = False, creator: Optional["Function"] = None):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.creator = creator

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

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

    def __radd__(self, other):
        return Add.apply(self._wrap(other), self)

    def __sub__(self, other):
        return Sub.apply(self, self._wrap(other))

    def __rsub__(self, other):
        return Sub.apply(self._wrap(other), self)

    def __mul__(self, other):
        return Mul.apply(self, self._wrap(other))

    def __rmul__(self, other):
        return Mul.apply(self._wrap(other), self)

    def __neg__(self):
        return Neg.apply(self)

    def __matmul__(self, other):
        return MatMul.apply(self, other)

    def __getitem__(self, key):
        return Slice.apply(self, key=key)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Sum.apply(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Mean.apply(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape) -> "Tensor":
        return Reshape.apply(self, shape=tuple(shape))

    def transpose(self, axes=None) -> "Tensor":
        return Transpose.apply(self, axes=axes)

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
    """One differentiable operation; remembers what backward needs."""

    def __init__(self, *inputs: Tensor):
        self.inputs = inputs

    def forward(self, *arrays, **kwargs) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> tuple:
        raise NotImplementedError

    @classmethod
    def apply(cls, *inputs, **kwargs) -> Tensor:
        tensors = tuple(t if isinstance(t, Tensor) else Tensor(t) for t in inputs)
        op = cls(*tensors)
        out = op.forward(*(t.data for t in tensors), **kwargs)
        if _TAPE.paused:
            return Tensor(out)
        requires = any(t.requires_grad for t in tensors)
        return Tensor(out, requires_grad=requires, creator=op if requires else None)


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


class Add(Function):
    def forward(self, a, b):
        self.shapes = (a.shape, b.shape)
        return a + b

    def backward(self, grad):
        sa, sb = self.shapes
        return _unbroadcast(grad, sa), _unbroadcast(grad, sb)


class Sub(Function):
    def forward(self, a, b):
        self.shapes = (a.shape, b.shape)
        return a - b

    def backward(self, grad):
        sa, sb = self.shapes
        return _unbroadcast(grad, sa), _unbroadcast(-grad, sb)


class Mul(Function):
    def forward(self, a, b):
        self.a, self.b = a, b
        return a * b

    def backward(self, grad):
        return (_unbroadcast(grad * self.b, self.a.shape),
                _unbroadcast(grad * self.a, self.b.shape))


class Neg(Function):
    def forward(self, a):
        return -a

    def backward(self, grad):
        return (-grad,)


class MatMul(Function):
    def forward(self, a, b):
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
        self.a, self.b = a, b
        try:
            return a @ b
        except ValueError as exc:
            raise ShapeError(f"matmul batch dimensions incompatible: {a.shape} @ {b.shape}") from exc

    def backward(self, grad):
        ga = grad @ np.swapaxes(self.b, -1, -2)
        gb = np.swapaxes(self.a, -1, -2) @ grad
        return _unbroadcast(ga, self.a.shape), _unbroadcast(gb, self.b.shape)


class Transpose(Function):
    def forward(self, a, axes=None):
        self.axes = axes
        if axes is None:
            return np.swapaxes(a, -1, -2)
        return np.transpose(a, axes)

    def backward(self, grad):
        if self.axes is None:
            return (np.swapaxes(grad, -1, -2),)
        return (np.transpose(grad, np.argsort(self.axes)),)


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


class Sum(Function):
    def forward(self, a, axis=None, keepdims=False):
        self.original = a.shape
        self.axis = axis
        self.keepdims = keepdims
        return a.sum(axis=axis, keepdims=keepdims)

    def backward(self, grad):
        if self.axis is not None and not self.keepdims:
            grad = np.expand_dims(grad, self.axis)
        return (np.broadcast_to(grad, self.original).copy(),)


class Mean(Function):
    def forward(self, a, axis=None, keepdims=False):
        self.original = a.shape
        self.axis = axis
        self.keepdims = keepdims
        if axis is None:
            self.count = a.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            self.count = int(np.prod([a.shape[i] for i in axes]))
        return a.mean(axis=axis, keepdims=keepdims)

    def backward(self, grad):
        if self.axis is not None and not self.keepdims:
            grad = np.expand_dims(grad, self.axis)
        return (np.broadcast_to(grad, self.original) / self.count,)


class Pow(Function):
    """Elementwise power with a constant exponent.

    Non-integer exponents require positive inputs; the model only uses this
    on eps-shifted variances, which are strictly positive.
    """

    def forward(self, a, exponent):
        self.a = a
        self.exponent = exponent
        return a ** exponent

    def backward(self, grad):
        return (grad * self.exponent * self.a ** (self.exponent - 1),)


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
    def forward(self, a, slope):
        self.slope = slope
        self.positive = a >= 0
        return np.where(self.positive, a, slope * a)

    def backward(self, grad):
        return (np.where(self.positive, grad, self.slope * grad),)


class Softmax(Function):
    """Softmax along one axis; positions where ``mask`` is True are excluded
    and come out exactly zero."""

    def forward(self, a, axis=-1, mask=None):
        self.axis = axis
        if mask is not None:
            # check the mask at its own size; np.where broadcasts it
            given = np.asarray(mask, dtype=bool)
            mask = given.reshape((1,) * (a.ndim - given.ndim) + given.shape)
            if mask.ndim != a.ndim or any(m not in (1, n) for m, n in zip(mask.shape, a.shape)):
                raise ShapeError(f"mask of shape {given.shape} does not broadcast to "
                                 f"scores of shape {a.shape}")
            if np.all(mask, axis=axis).any():
                raise DegenerateMaskError("softmax slice is fully masked")
            a = np.where(mask, -np.inf, a)
        out = a - np.max(a, axis=axis, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=axis, keepdims=True)
        self.out = out
        return out

    def backward(self, grad):
        inner = np.sum(grad * self.out, axis=self.axis, keepdims=True)
        return ((grad - inner) * self.out,)


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


def relu(x: Tensor) -> Tensor:
    return Relu.apply(x)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")
    return LeakyRelu.apply(x, slope=slope)


def softmax(x: Tensor, axis: int = -1, mask=None) -> Tensor:
    """Probability-normalize along ``axis``.

    ``mask`` marks positions to exclude (True = masked out); each slice must
    keep at least one live position or :class:`DegenerateMaskError` is raised.
    """
    if mask is not None:
        mask = getattr(mask, "data", mask)
    return Softmax.apply(x, axis=axis, mask=mask)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = Pow.apply(var + eps, exponent=-0.5)
    return centered * inv * gain + bias


def row_normalize(x: Tensor) -> Tensor:
    return RowNormalize.apply(x)


def sqrt(x: Tensor) -> Tensor:
    return Sqrt.apply(x)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    return Concat.apply(*tensors, axis=axis)


def backward(loss: Tensor) -> None:
    """Fill ``grad`` on every requires_grad tensor reachable from ``loss``.

    ``loss`` must be a scalar (size 1).  Gradients add into existing buffers;
    clear them (``grad = None``) between steps.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if node.creator is not None:
            for parent in node.creator.inputs:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

    pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        grad = pending.pop(id(node), None)
        if grad is None:
            continue
        if node.requires_grad:
            node.grad = grad if node.grad is None else node.grad + grad
        if node.creator is None:
            continue
        for parent, pgrad in zip(node.creator.inputs, node.creator.backward(grad)):
            if pgrad is None or not parent.requires_grad:
                continue
            pid = id(parent)
            if pid in pending:
                pending[pid] = pending[pid] + pgrad
            else:
                pending[pid] = pgrad
