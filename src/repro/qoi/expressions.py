"""QoI expression trees with interval arithmetic.

A :class:`QoI` node evaluates pointwise over named variable arrays and,
crucially, propagates *intervals*: if every variable ``v_i`` is known
only up to ``±e_i``, interval evaluation yields pointwise lower/upper
envelopes of the QoI, hence a rigorous bound on the QoI error — the
``estimate_QoI_error`` kernel of Algorithm 3. Supported operations cover
the paper's base QoI families (linear combinations, products, squares,
square roots, absolute values).

Expressions compose with Python operators::

    vt = sqrt(square(var("vx")) + square(var("vy")) + square(var("vz")))
"""

from __future__ import annotations

import numpy as np

Number = float | int


class QoI:
    """Base expression node."""

    def evaluate(self, values: dict[str, np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def interval(
        self,
        values: dict[str, np.ndarray],
        bounds: dict[str, float | np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pointwise (lo, hi) envelope given per-variable error bounds."""
        raise NotImplementedError

    def variables(self) -> set[str]:
        raise NotImplementedError

    # Operator sugar -----------------------------------------------------
    def __add__(self, other: "QoI | Number") -> "QoI":
        return _Add(self, _wrap(other))

    def __radd__(self, other: Number) -> "QoI":
        return _Add(_wrap(other), self)

    def __sub__(self, other: "QoI | Number") -> "QoI":
        return _Sub(self, _wrap(other))

    def __rsub__(self, other: Number) -> "QoI":
        return _Sub(_wrap(other), self)

    def __mul__(self, other: "QoI | Number") -> "QoI":
        return _Mul(self, _wrap(other))

    def __rmul__(self, other: Number) -> "QoI":
        return _Mul(_wrap(other), self)

    def __neg__(self) -> "QoI":
        return _Mul(_Const(-1.0), self)


def _wrap(x: "QoI | Number") -> QoI:
    return x if isinstance(x, QoI) else _Const(float(x))


class _Var(QoI):
    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, values):
        if self.name not in values:
            raise KeyError(f"variable {self.name!r} not provided")
        return np.asarray(values[self.name], dtype=np.float64)

    def interval(self, values, bounds):
        v = self.evaluate(values)
        e = np.asarray(bounds.get(self.name, 0.0), dtype=np.float64)
        if np.any(e < 0):
            raise ValueError(f"negative error bound for {self.name!r}")
        return v - e, v + e

    def variables(self):
        return {self.name}

    def __repr__(self):
        return f"var({self.name!r})"


class _Const(QoI):
    def __init__(self, value: float) -> None:
        self.value = float(value)

    def evaluate(self, values):
        return np.float64(self.value)

    def interval(self, values, bounds):
        v = np.float64(self.value)
        return v, v

    def variables(self):
        return set()

    def __repr__(self):
        return f"const({self.value})"


class _Add(QoI):
    def __init__(self, a: QoI, b: QoI) -> None:
        self.a, self.b = a, b

    def evaluate(self, values):
        return self.a.evaluate(values) + self.b.evaluate(values)

    def interval(self, values, bounds):
        alo, ahi = self.a.interval(values, bounds)
        blo, bhi = self.b.interval(values, bounds)
        return alo + blo, ahi + bhi

    def variables(self):
        return self.a.variables() | self.b.variables()

    def __repr__(self):
        return f"({self.a!r} + {self.b!r})"


class _Sub(QoI):
    def __init__(self, a: QoI, b: QoI) -> None:
        self.a, self.b = a, b

    def evaluate(self, values):
        return self.a.evaluate(values) - self.b.evaluate(values)

    def interval(self, values, bounds):
        alo, ahi = self.a.interval(values, bounds)
        blo, bhi = self.b.interval(values, bounds)
        return alo - bhi, ahi - blo

    def variables(self):
        return self.a.variables() | self.b.variables()

    def __repr__(self):
        return f"({self.a!r} - {self.b!r})"


class _Mul(QoI):
    def __init__(self, a: QoI, b: QoI) -> None:
        self.a, self.b = a, b

    def evaluate(self, values):
        return self.a.evaluate(values) * self.b.evaluate(values)

    def interval(self, values, bounds):
        alo, ahi = self.a.interval(values, bounds)
        blo, bhi = self.b.interval(values, bounds)
        p1, p2, p3, p4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
        lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
        hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
        return lo, hi

    def variables(self):
        return self.a.variables() | self.b.variables()

    def __repr__(self):
        return f"({self.a!r} * {self.b!r})"


class _Square(QoI):
    def __init__(self, a: QoI) -> None:
        self.a = a

    def evaluate(self, values):
        v = self.a.evaluate(values)
        return v * v

    def interval(self, values, bounds):
        lower, upper = _abs_interval(*self.a.interval(values, bounds))
        # Squaring is monotone on |x|, so these are the squares' bounds.
        return (np.multiply(lower, lower, out=lower),
                np.multiply(upper, upper, out=upper))

    def variables(self):
        return self.a.variables()

    def __repr__(self):
        return f"square({self.a!r})"


class _Sqrt(QoI):
    def __init__(self, a: QoI) -> None:
        self.a = a

    def evaluate(self, values):
        v = self.a.evaluate(values)
        if np.any(v < 0):
            raise ValueError("sqrt of negative QoI value")
        return np.sqrt(v)

    def interval(self, values, bounds):
        lo, hi = self.a.interval(values, bounds)
        # Perturbed inputs may dip below zero; the true value is >= 0,
        # so clamping keeps the envelope valid.
        return np.sqrt(np.maximum(lo, 0.0)), np.sqrt(np.maximum(hi, 0.0))

    def variables(self):
        return self.a.variables()

    def __repr__(self):
        return f"sqrt({self.a!r})"


class _Abs(QoI):
    def __init__(self, a: QoI) -> None:
        self.a = a

    def evaluate(self, values):
        return np.abs(self.a.evaluate(values))

    def interval(self, values, bounds):
        lower, upper = _abs_interval(*self.a.interval(values, bounds))
        lower += 0.0  # a straddling interval's −0.0 is +0.0
        return lower, upper

    def variables(self):
        return self.a.variables()

    def __repr__(self):
        return f"abs({self.a!r})"


def _abs_interval(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """``|x|``'s bounds over ``[lo, hi]`` as fresh float64 arrays, in the
    clamp form: lower ``max(0, max(lo, −hi))`` (0 when the interval
    straddles zero), upper ``max(|lo|, |hi|)``."""
    shape = np.broadcast(lo, hi).shape
    lower, upper = np.empty(shape), np.empty(shape)
    np.maximum(np.abs(lo, out=lower), np.abs(hi, out=upper), out=upper)
    np.maximum(lo, np.negative(hi, out=lower), out=lower)
    np.maximum(lower, 0.0, out=lower)
    return lower, upper


# -- public constructors --------------------------------------------------
def var(name: str) -> QoI:
    """A named input variable."""
    return _Var(name)


def const(value: float) -> QoI:
    """A constant."""
    return _Const(value)


def add(a: QoI, b: QoI) -> QoI:
    return _Add(a, b)


def square(a: QoI) -> QoI:
    return _Square(a)


def sqrt(a: QoI) -> QoI:
    return _Sqrt(a)


def absval(a: QoI) -> QoI:
    return _Abs(a)


def v_total(names: tuple[str, str, str] = ("vx", "vy", "vz")) -> QoI:
    """The paper's evaluation QoI: ``sqrt(Vx² + Vy² + Vz²)``."""
    x, y, z = (var(n) for n in names)
    return sqrt(square(x) + square(y) + square(z))


# -- error estimation kernels ----------------------------------------------
def pointwise_qoi_error(
    qoi: QoI,
    values: dict[str, np.ndarray],
    bounds: dict[str, float | np.ndarray],
) -> np.ndarray:
    """Pointwise sup of |QoI(true) − QoI(reconstructed)|.

    The reconstructed values sit inside the interval envelope, and so
    does the truth; the distance from the reconstructed QoI to the
    farther envelope edge bounds the error.
    """
    return _pointwise(qoi, values, bounds)[0]


def _pointwise(qoi, values, bounds) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pointwise_qoi_error` and the centre ``qoi.evaluate(values)``
    it measures from."""
    lo, hi = qoi.interval(values, bounds)
    center = qoi.evaluate(values)
    return np.maximum(hi - center, center - lo), center


def estimate_qoi_error(
    qoi: QoI,
    values: dict[str, np.ndarray],
    bounds: dict[str, float | np.ndarray],
) -> float:
    """Supremum (over grid points) of the pointwise QoI error bound.

    This is the τ′ of Algorithm 3 — cheap, fully vectorized, rigorous.
    """
    return _estimate(qoi, values, bounds)[0]


def _estimate(qoi, values, bounds) -> tuple[float, np.ndarray, int]:
    """:func:`estimate_qoi_error`, the centre it measured from, which
    Algorithm 3 returns as the QoI values rather than evaluate again, and
    the flat index of the worst point, which CP decays its bounds
    against (``-1`` on an empty grid)."""
    pw, center = _pointwise(qoi, values, bounds)
    if not pw.size:
        return 0.0, center, -1
    worst = int(np.argmax(pw))
    return float(pw.flat[worst]), center, worst


_UNARY = {_Square: "square", _Sqrt: "sqrt", _Abs: "abs"}
_BINARY = {_Add: "add", _Sub: "sub", _Mul: "mul"}


def _memo_key(qoi: QoI):
    """A hashable key equal for equal expressions: a library node keys
    by its structure (a constant by ``float.hex``, so ``0.0`` and
    ``-0.0`` differ); any other :class:`QoI` keys by identity, so whoever
    stores the key must also hold the object."""
    kind = type(qoi)
    if kind is _Var:
        return ("var", qoi.name)
    if kind is _Const:
        return ("const", qoi.value.hex())
    if kind in _UNARY:
        return (_UNARY[kind], _memo_key(qoi.a))
    if kind in _BINARY:
        return (_BINARY[kind], _memo_key(qoi.a), _memo_key(qoi.b))
    return ("id", id(qoi))
