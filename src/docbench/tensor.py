"""Dense tensor with reverse-mode automatic differentiation.

Everything is backed by float64 numpy arrays, the one precision the engine
computes in and its tensor files store.  Graphs are built implicitly while
computing; ``Tensor.backward`` extracts the tape in topological order and
walks it once in reverse.
Inside ``no_grad()`` nothing is recorded: every op result is a plain leaf.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

_FORMAT = "docbench-tensors-v1"
_recording = True


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block, so each activation can die as soon
    as its consumer has run; the previous setting returns on exit."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class ShapeError(ValueError):
    """Raised when operand dimensions do not compose."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_vjp")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.size == 0:
            raise ShapeError(f"zero-extent tensor of shape {arr.shape} rejected")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self.parents = ()
        self._vjp = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_op(op, parents, data, vjp):
        """Wrap an op result; ``vjp(grad_out)`` yields one gradient per parent.
        Under ``no_grad()`` the result is a leaf and ``vjp`` is dropped."""
        out = Tensor(data, requires_grad=_recording
                     and any(p.requires_grad for p in parents))
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

    def item(self):
        return float(self.data.reshape(-1)[0])

    def _coerce(self, other):
        return other if isinstance(other, Tensor) else Tensor(other)

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

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape):
        a = self
        out = a.data.reshape(shape)
        return Tensor.from_op("reshape", (a,), out, lambda g: (g.reshape(a.shape),))

    def __getitem__(self, key):
        a = self
        out = a.data[key]

        def vjp(g):
            full = np.zeros_like(a.data)
            full[key] = g  # basic indexing only: slices never alias
            return (full,)

        return Tensor.from_op("slice", (a,), out, vjp)

    # -- the one pointwise nonlinearity ----------------------------------------

    def sigmoid(self):
        a = self
        out = _sigmoid(a.data)
        return Tensor.from_op("sigmoid", (a,), out, lambda g: (g * out * (1.0 - out),))

    # -- backward --------------------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every tensor this scalar depends on; leaves
        accumulate in place, so a parameter's gradient stays a view of its
        optimizer's buffer."""
        if not _recording:
            raise RuntimeError("backward called inside no_grad(): nothing was recorded")
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
# Tensor file format (checkpoints and corpus images): one UTF-8 JSON header line
# describing the named float64 tensors in order, then their raw little-endian
# payloads concatenated back to back.


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
    """Write named float64 arrays as header-JSON + flat little-endian
    payload, atomically; any other dtype is refused, naming the tensor."""
    arrays = {name: np.asarray(arr) for name, arr in arrays.items()}
    for name, arr in arrays.items():
        if arr.dtype != np.float64:
            raise ValueError(f"tensor {name!r} is {arr.dtype}, not float64")
    header = {"format": _FORMAT, "tensors": [
        {"name": name, "shape": list(arr.shape), "dtype": "float64"}
        for name, arr in arrays.items()]}
    if meta is not None:
        header["meta"] = meta
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").data)


def load_tensors(path):
    """Inverse of :func:`save_tensors`; returns ``(arrays, meta)``.

    Raises ``ValueError`` naming ``path`` on a damaged header, an unknown
    format, a dtype tag other than float64, a bad shape, a short payload, or
    bytes after the last payload.
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
            name, tag = entry.get("name"), entry.get("dtype")
            if tag != "float64":
                raise ValueError(f"{path}: tensor {name!r} has unknown dtype tag "
                                 f"{tag!r}, expected 'float64'")
            try:
                arr = np.empty(entry.get("shape"), dtype="<f8")
            except (TypeError, ValueError):
                raise ValueError(f"{path}: tensor {name!r} has bad shape "
                                 f"{entry.get('shape')!r}") from None
            got = fh.readinto(arr)  # straight into the array: no second buffer
            if got != arr.nbytes:
                raise ValueError(f"{path}: tensor {name!r} needs {arr.nbytes} bytes, "
                                 f"file has {got} left")
            arrays[name] = arr
        if fh.read(1):
            raise ValueError(f"{path}: unexpected bytes after the last tensor")
    return arrays, header.get("meta")
