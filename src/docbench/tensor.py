"""Dense tensor with reverse-mode automatic differentiation.

Everything is backed by contiguous numpy arrays in single or double
precision.  Graphs are built implicitly while computing; ``Tensor.backward``
extracts the tape in topological order and walks it once in reverse.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

_DTYPE_TAGS = {np.dtype(np.float32): "float32", np.dtype(np.float64): "float64"}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}
_FORMAT = "docbench-tensors-v1"


class ShapeError(ValueError):
    """Raised when operand dimensions do not compose."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "name", "_vjp")

    def __init__(self, data, requires_grad=False, dtype=None, name=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.size == 0:
            raise ShapeError(f"zero-extent tensor of shape {arr.shape} rejected")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self.parents = ()
        self.name = name
        self._vjp = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_op(op, parents, data, vjp):
        """Wrap an op result; ``vjp(grad_out)`` yields one gradient per parent."""
        out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
        if out.requires_grad:
            out.op = op
            out.parents = tuple(parents)
            out._vjp = vjp
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag}, op={self.op!r})"

    def item(self):
        return float(self.data.reshape(-1)[0])

    def _coerce(self, other):
        if isinstance(other, Tensor):
            if other.dtype != self.dtype:
                raise ShapeError(f"dtype mismatch: {self.dtype} vs {other.dtype}")
            return other
        return Tensor(np.asarray(other, dtype=self.dtype))

    # -- elementwise arithmetic (broadcasting) -----------------------------

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self, other
        out = a.data + b.data

        def vjp(g):
            return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

        return Tensor.from_op("add", (a, b), out, vjp)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        out = a.data * b.data

        def vjp(g):
            return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

        return Tensor.from_op("mul", (a, b), out, vjp)

    __rmul__ = __mul__

    def __neg__(self):
        return Tensor.from_op("neg", (self,), -self.data, lambda g: (-g,))

    def __sub__(self, other):
        other = self._coerce(other)
        a, b = self, other
        out = a.data - b.data

        def vjp(g):
            return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

        return Tensor.from_op("sub", (a, b), out, vjp)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __truediv__(self, other):
        other = self._coerce(other)
        a, b = self, other
        out = a.data / b.data

        def vjp(g):
            ga = _unbroadcast(g / b.data, a.shape)
            gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
            return ga, gb

        return Tensor.from_op("div", (a, b), out, vjp)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents supported")
        a, n = self, float(exponent)
        out = a.data ** n

        def vjp(g):
            return (g * n * a.data ** (n - 1.0),)

        return Tensor.from_op("pow", (a,), out, vjp)

    # -- matmul -------------------------------------------------------------

    def __matmul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError("matmul operands must have at least 2 dims")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
        out = a.data @ b.data

        def vjp(g):
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
            return ga, gb

        return Tensor.from_op("matmul", (a, b), out, vjp)

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out = a.data.reshape(shape)
        return Tensor.from_op("reshape", (a,), out, lambda g: (g.reshape(a.shape),))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inverse = tuple(np.argsort(axes))
        out = a.data.transpose(axes)
        return Tensor.from_op("transpose", (a,), out, lambda g: (g.transpose(inverse),))

    def __getitem__(self, key):
        a = self
        out = a.data[key]

        def vjp(g):
            full = np.zeros_like(a.data)
            full[key] = g  # basic indexing only: slices never alias
            return (full,)

        return Tensor.from_op("slice", (a,), out, vjp)

    # -- reductions ------------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self
        out = a.data.sum(axis=axis, keepdims=keepdims)

        def vjp(g):
            return (_expand_reduced(g, a.shape, axis, keepdims),)

        return Tensor.from_op("sum", (a,), out, vjp)

    def mean(self, axis=None, keepdims=False):
        a = self
        out = a.data.mean(axis=axis, keepdims=keepdims)
        count = a.data.size if axis is None else np.prod(
            [a.shape[i] for i in _normalize_axes(axis, a.ndim)]
        )

        def vjp(g):
            return (_expand_reduced(g, a.shape, axis, keepdims) / count,)

        return Tensor.from_op("mean", (a,), out, vjp)

    # -- pointwise nonlinearities ------------------------------------------------

    def exp(self):
        a = self
        out = np.exp(a.data)
        return Tensor.from_op("exp", (a,), out, lambda g: (g * out,))

    def log(self):
        a = self
        return Tensor.from_op("log", (a,), np.log(a.data), lambda g: (g / a.data,))

    def sqrt(self):
        a = self
        out = np.sqrt(a.data)
        return Tensor.from_op("sqrt", (a,), out, lambda g: (g * 0.5 / out,))

    def relu(self):
        a = self
        mask = a.data > 0
        out = np.where(mask, a.data, 0.0).astype(a.dtype, copy=False)
        return Tensor.from_op("relu", (a,), out, lambda g: (g * mask,))

    def sigmoid(self):
        a = self
        out = _sigmoid(a.data)
        return Tensor.from_op("sigmoid", (a,), out, lambda g: (g * out * (1.0 - out),))

    # -- backward --------------------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every tensor this scalar depends on; leaves
        accumulate in place, so a parameter's gradient stays a view of its
        optimizer's buffer."""
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")
        order = trace(self)
        self.grad = np.ones_like(self.data)
        for t in reversed(order):
            if t._vjp is None or t.grad is None:
                continue
            grads = t._vjp(t.grad)
            for parent, g in zip(t.parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                g = np.asarray(g, dtype=parent.dtype)
                if parent._vjp is not None:
                    parent.grad = g if parent.grad is None else parent.grad + g
                elif parent.grad is None:
                    parent.grad = g.copy()  # vjps may share one array (add)
                else:
                    parent.grad += g


def _sigmoid(x):
    """Logistic function as the single pass ``0.5*(1+tanh(x/2))``, which
    keeps the input dtype and cannot overflow."""
    out = np.multiply(x, 0.5, out=np.empty_like(x))
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _unbroadcast(g, shape):
    """Sum gradient over axes that were broadcast in the forward pass."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _normalize_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_reduced(g, shape, axis, keepdims):
    """Broadcast a reduced gradient back to the pre-reduction shape."""
    if axis is None:
        return np.broadcast_to(g, shape).copy()
    if not keepdims:
        g = np.expand_dims(g, tuple(sorted(_normalize_axes(axis, len(shape)))))
    return np.broadcast_to(g, shape).copy()


# -- tape ------------------------------------------------------------------------


def trace(root: Tensor) -> list:
    """Tensors reachable from ``root``, topologically ordered (parents first,
    ``root`` last)."""
    order = []
    seen = {id(root)}
    stack = [(root, iter(root.parents))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for p in it:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p.parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


# -- serialization ---------------------------------------------------------------
#
# Checkpoint format: one UTF-8 JSON header line describing the named tensors in
# order, then the raw little-endian payloads concatenated back to back.


@contextlib.contextmanager
def atomic_write(path, mode="w"):
    """Open a temporary file beside ``path`` that replaces ``path`` only when
    the block completes; on any failure ``path`` is left as it was and the
    temporary file is removed."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_tensors(path, arrays, meta=None):
    """Write named arrays as header-JSON + flat little-endian payload,
    atomically."""
    entries = []
    payloads = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        tag = _DTYPE_TAGS.get(arr.dtype)
        if tag is None:
            raise ValueError(f"unsupported dtype {arr.dtype} for tensor {name!r}")
        entries.append({"name": name, "shape": list(arr.shape), "dtype": tag})
        payloads.append(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
    header = {"format": _FORMAT, "tensors": entries}
    if meta is not None:
        header["meta"] = meta
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for blob in payloads:
            fh.write(blob)


def load_tensors(path):
    """Inverse of :func:`save_tensors`; returns ``(arrays, meta)``.

    Raises ``ValueError`` naming ``path`` on a damaged header, an unknown
    format or dtype tag, a short payload, or bytes after the last payload.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: unreadable header ({exc})") from None
        if not (line.endswith(b"\n") and isinstance(header, dict)
                and header.get("format") == _FORMAT):
            raise ValueError(f"{path}: not a docbench tensor file")
        arrays = {}
        for entry in header.get("tensors", []):
            name = entry.get("name")
            dtype = _TAG_DTYPES.get(entry.get("dtype"))
            if dtype is None:
                raise ValueError(f"{path}: tensor {name!r} has unknown dtype tag")
            dtype = dtype.newbyteorder("<")
            shape = tuple(entry["shape"])
            size = int(np.prod(shape)) * dtype.itemsize
            raw = fh.read(size)
            if len(raw) != size:
                raise ValueError(f"{path}: tensor {name!r} needs {size} bytes, "
                                 f"file has {len(raw)} left")
            arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
            arrays[name] = arr.astype(dtype.newbyteorder("="))
        if fh.read(1):
            raise ValueError(f"{path}: unexpected bytes after the last tensor")
    return arrays, header.get("meta")
