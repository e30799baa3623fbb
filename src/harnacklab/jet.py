"""Truncated multivariate Taylor arithmetic (jets).

A jet represents a smooth function near a base point p by the normalized
coefficients of its Taylor expansion,

    f(x) = sum_alpha  c_alpha * (x - p)^alpha,        |alpha| <= order,

so that the partial derivative d^alpha f(p) equals c_alpha * alpha!.
Coefficients are stored densely in graded lexicographic order as an array of
shape (n_terms, batch): one jet value carries the expansions of f at a whole
batch of base points, and every operation vectorizes over that axis.

Arithmetic (+, -, *, /) and the analytic functions exp, log, sin, cos and real
powers are exact on truncated series: if the inputs carry the true
Taylor coefficients of their functions up to some order, the result carries
the true coefficients of the composite up to the propagated validity order.
Validity shrinks only under differentiation (by one) and is tracked on each
value; reading a coefficient beyond it raises :class:`JetOrderError` instead
of returning a number that merely looks plausible.

Jets are values: nothing writes into a jet's coefficients or rebinds its
attributes once it is built, so an operation returns a new jet or, where it
folds, an existing value. A jet and a plain number (:data:`NUMBER`) combine
under :class:`Element`'s rule, which ``gridlab``'s fields share: a number
moves the value row only (``x + c``, ``x - c``, ``c - x``) or scales every
row (``x * c``, ``x / c``), and ``c / x`` is c times ``x.reciprocal()``, so
``0.0 / x`` is 0.0 once x is found nonzero. A jet that has been read can be
read again, or shared between tensors, without going stale.

Products and the analytic functions are truncated at the validity order
(Griewank & Walther, *Evaluating Derivatives*, ch. 13): a product of jets
valid to order d forms only the coefficient pairs whose target degree is
<= d, and its rows past d are zero. Graded storage makes this a prefix: the
rows of degree <= d are ``[0, n_upto[d])`` and the pairs that feed them are
``[0, pairs_upto[d])`` of the target-sorted multiplication table.

A space may also cap the degree of single variables: ``jet_space(n_vars,
order, caps)`` keeps only the exponents with ``e[v] <= caps[v]`` (a time
variable that no consumer differentiates twice needs degree 1 only), and only
the product pairs whose target respects the caps. A target row inside the
caps is fed only by pairs inside them, in the same relative order, so every
row a capped space keeps is bit-identical to the uncapped space's. Each value
tracks the degree it has left in each capped variable (``Jet.left``): a
partial in a capped variable uses one up, and differentiating past it raises
:class:`JetCapError` rather than returning the zero rows that a missing
degree would leave. ``lookup`` refuses an exponent outside the caps.
"""

import functools
import itertools
import math

import numpy as np


# A plain number: what arithmetic on a field element treats as a constant.
NUMBER = (int, float, np.floating, np.integer)


class Element:
    """A field element's arithmetic, with itself and with plain numbers.

    A number is a constant, taken as a float, and folds the scalar
    identities with the operands of a sum or a product in either order:
    ``x * 0.0`` is the number 0.0, and ``x + 0.0``, ``x - 0.0``, ``x * 1.0``
    and ``x / 1.0`` are ``x`` itself; ``x / 0.0`` raises ZeroDivisionError,
    as for a float. The folds are exact up to the sign of a zero (and a
    non-finite ``x * 0.0``, which IEEE makes NaN, folds to 0.0). Any other
    operand goes to one data operation of the subclass: ``_shift`` (x + c,
    and x - c as x + (-c), which IEEE makes the same), ``_scale``,
    ``_unscale``, ``_rsub`` (c - x), ``_rdiv`` (c / x), or ``_add``,
    ``_sub``, ``_mul`` and ``_div`` of two elements. ``_coerce`` takes an
    operand to a float, an element of the same kind, or None, for which an
    operator returns NotImplemented.
    """

    __array_ufunc__ = None  # keep numpy scalars from hijacking binary ops

    def _coerce(self, other):
        if isinstance(other, self.__class__):
            return other
        return float(other) if isinstance(other, NUMBER) else None

    def __add__(self, other):
        o = self._coerce(other)
        if o.__class__ is float:
            return self if o == 0.0 else self._shift(o)
        return NotImplemented if o is None else self._add(o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o.__class__ is float:
            return self if o == 0.0 else self._shift(-o)
        return NotImplemented if o is None else self._sub(o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._rsub(o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o.__class__ is float:
            if o == 0.0:
                return 0.0
            return self if o == 1.0 else self._scale(o)
        return NotImplemented if o is None else self._mul(o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.__class__ is float:
            if o == 0.0:
                raise ZeroDivisionError(f"{type(self).__name__} divided by zero")
            return self if o == 1.0 else self._unscale(o)
        return NotImplemented if o is None else self._div(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._rdiv(o)


class JetError(ValueError):
    pass


class SingularPointError(JetError):
    """Operation hit a point outside the function's domain (1/0, log of <= 0)."""


class JetOrderError(JetError):
    """Requested information beyond the jet's validity order."""


class JetCapError(JetOrderError):
    """Requested a degree in variable ``var`` beyond its cap ``cap``: no
    higher total order supplies it."""

    def __init__(self, message: str, var: int, cap: int):
        super().__init__(message)
        self.var = var
        self.cap = cap


@functools.lru_cache(maxsize=None)
def jet_space(n_vars: int, order: int, caps: tuple | None = None) -> "JetSpace":
    return JetSpace(n_vars, order, caps)


class JetSpace:
    """Index tables for dense jets in ``n_vars`` variables up to total ``order``,
    with degree at most ``caps[v]`` in variable v (``caps`` None, or an entry
    None: no cap).

    Build once per (n_vars, order, caps) via :func:`jet_space`; jets sharing a
    space share its multiplication and differentiation tables.
    """

    def __init__(self, n_vars: int, order: int, caps=None):
        if n_vars < 1 or order < 0:
            raise JetError(f"bad jet space ({n_vars} vars, order {order})")
        self.n_vars = n_vars
        self.order = order
        caps = (None,) * n_vars if caps is None else tuple(caps)
        if len(caps) != n_vars or any(c is not None and c < 0 for c in caps):
            raise JetError(f"bad degree caps {caps} for {n_vars} variables")
        # degree bound per variable; ``order`` where a variable is not capped
        self.caps = tuple(order if c is None else min(int(c), order) for c in caps)

        exps = []
        for total in range(order + 1):
            block = [e for e in itertools.product(
                         *(range(min(total, c) + 1) for c in self.caps))
                     if sum(e) == total]
            block.sort()
            exps.extend(block)
        self.exponents = np.array(exps, dtype=np.int64)
        self.size = len(exps)
        self.degrees = self.exponents.sum(axis=1)

        # Integer keys in base (order+1) are collision-free: each component of a
        # representable multi-index is <= order.
        base = order + 1
        weights = base ** np.arange(n_vars, dtype=np.int64)
        keys = self.exponents @ weights
        self._key_sort = np.argsort(keys)
        self._sorted_keys = keys[self._key_sort]
        self._weights = weights

        i_idx, j_idx = np.meshgrid(np.arange(self.size), np.arange(self.size),
                                   indexing="ij")
        keep = (self.degrees[i_idx] + self.degrees[j_idx] <= order)
        ii = i_idx[keep]
        jj = j_idx[keep]
        target = self.exponents[ii] + self.exponents[jj]
        inside = np.all(target <= self.caps, axis=1)
        ii, jj = ii[inside], jj[inside]
        kk = self._lookup(target[inside])
        srt = np.argsort(kk, kind="stable")
        self._mul_i = ii[srt]
        self._mul_j = jj[srt]
        kk = kk[srt]
        uniq, seg = np.unique(kk, return_index=True)
        if not np.array_equal(uniq, np.arange(self.size)):
            raise JetError("multiplication table misses target indices")
        self._mul_seg = seg

        # Rows are graded and pairs sorted by target, so validity d is a prefix
        # of both: rows [0, n_upto[d]) and pairs [0, pairs_upto[d]). When the
        # caps leave no row of degree d, n_upto[d] repeats n_upto[d - 1] and
        # so does the pair count: either validity reads the same prefix.
        n_upto = np.searchsorted(self.degrees, np.arange(order + 1), side="right")
        ends = np.append(seg, len(kk))
        self.n_upto = tuple(int(n) for n in n_upto)
        self.pairs_upto = tuple(int(ends[n]) for n in n_upto)
        self._validity_of_rows = {n: d for d, n in enumerate(self.n_upto)}
        self._scratch = np.empty((2, 0))

        self._d_src = []
        self._d_dst = []
        self._d_mul = []
        for v in range(n_vars):
            src = np.nonzero(self.exponents[:, v] >= 1)[0]
            lowered = self.exponents[src].copy()
            lowered[:, v] -= 1
            self._d_src.append(src)
            self._d_dst.append(self._lookup(lowered))
            self._d_mul.append(self.exponents[src, v].astype(float)[:, None])

    def _lookup(self, exps: np.ndarray) -> np.ndarray:
        keys = exps @ self._weights
        pos = np.searchsorted(self._sorted_keys, keys)
        return self._key_sort[pos]

    def lookup(self, exps) -> np.ndarray:
        """Indices of multi-index exponents: one index for one exponent
        tuple, an array for rows of them. Each must be representable: inside
        the total order and the caps."""
        exps = np.asarray(exps, dtype=np.int64)
        if exps.shape[-1:] != (self.n_vars,) or np.any(exps < 0) \
                or np.any(exps.sum(axis=-1) > self.order) \
                or np.any(exps > self.caps):
            raise JetError(f"multi-index {exps.tolist()} not representable "
                           f"in this space (order {self.order}, caps {self.caps})")
        return self._lookup(exps)

    def mul_raw(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two coefficient arrays of one shape (n, batch), holding
        the rows ``[0, n)`` with n = ``n_upto[d]``.

        The row count gives the validity d (all ``size`` rows for d = order).
        Only the pairs feeding degree <= d are formed, in two gather buffers
        kept on the space (so one space must not multiply in two threads at
        once); the result is a fresh (size, batch) array, zero past row n.
        """
        n, batch = a.shape
        d = self._validity_of_rows.get(n)
        if d is None or b.shape != a.shape:
            raise JetError(f"operands of shapes {a.shape} and {b.shape} are "
                           "not one validity prefix of this space")
        p = self.pairs_upto[d]
        if self._scratch.shape[1] < len(self._mul_i) * batch:
            self._scratch = np.empty((2, len(self._mul_i) * batch))
        ta = self._scratch[0, :p * batch].reshape(p, batch)
        tb = self._scratch[1, :p * batch].reshape(p, batch)
        # mode="clip" keeps np.take from buffering ``out``; indices are in range
        np.take(a, self._mul_i[:p], axis=0, out=ta, mode="clip")
        np.take(b, self._mul_j[:p], axis=0, out=tb, mode="clip")
        np.multiply(ta, tb, out=ta)
        out = np.empty((self.size, batch))
        np.add.reduceat(ta, self._mul_seg[:n], axis=0, out=out[:n])
        out[n:] = 0.0
        return out

    def constant(self, values) -> "Jet":
        """The constant jet with value ``values[k]`` at base point k."""
        coeffs = np.zeros((self.size, len(values)))
        coeffs[0] = values
        return Jet(self, coeffs, self.order)

    def variables(self, point) -> list:
        """Coordinate jets x_v = p_v + (x - p)_v at base points ``point``.

        ``point`` has shape (n_vars,) or (n_vars, batch). Seeds are exact
        polynomials, so they carry full validity order.
        """
        point = np.asarray(point, dtype=float)
        if point.ndim == 1:
            point = point[:, None]
        if point.shape[0] != self.n_vars:
            raise JetError(f"expected {self.n_vars} coordinates, got {point.shape[0]}")
        out = []
        for v in range(self.n_vars):
            coeffs = np.zeros((self.size, point.shape[1]))
            coeffs[0] = point[v]
            if self.order >= 1:
                e = [0] * self.n_vars
                e[v] = 1
                coeffs[self.lookup(e)] = 1.0
            out.append(Jet(self, coeffs, self.order))
        return out

    def sinusoid(self, w, theta) -> "Jet":
        """The jet of sin(theta_k + w . (x - p_k)) at each base point p_k.

        ``w`` holds one frequency per variable and ``theta`` (batch,) the
        phase at each base point. The Taylor coefficients of sin of an affine
        argument are known exactly (Griewank & Walther, ch. 13): row alpha is
        sin^{(|alpha|)}(theta) * w^alpha / alpha!, written here without
        forming a product. A row with a zero factor w_v^{alpha_v} is exactly
        0.0, so a variable of frequency 0 (a time or deformation variable)
        has zero rows. The jet is an exact function: full validity order.
        """
        w = np.asarray(w, dtype=float)
        if w.shape != (self.n_vars,):
            raise JetError(f"expected {self.n_vars} frequencies, got {w.shape}")
        theta = np.asarray(theta, dtype=float)
        fact = np.array([math.factorial(k) for k in range(self.order + 1)],
                        dtype=float)
        scale = np.prod(w ** self.exponents, axis=1) \
            / np.prod(fact[self.exponents], axis=1)
        derivs = np.array(_sin_derivatives(theta, self.order + 1))
        rows = np.nonzero(scale)[0]
        coeffs = np.zeros((self.size, len(theta)))
        coeffs[rows] = derivs[self.degrees[rows]] * scale[rows, None]
        return Jet(self, coeffs, self.order)


def _sin_derivatives(theta, count: int, shift: int = 0) -> list:
    """sin^{(m + shift)}(theta) for m < count, read off the derivative cycle
    sin^{(m)} = (sin, cos, -sin, -cos)[m mod 4]; shift 1 gives cos's."""
    s, c = np.sin(theta), np.cos(theta)
    cycle = (s, c, -s, -c)
    return [cycle[(m + shift) % 4] for m in range(count)]


def _meet(a: tuple, b: tuple) -> tuple:
    """Degrees left per variable in a value computed from two others."""
    return a if a == b else tuple(map(min, a, b))


class Jet(Element):
    """A batch of truncated Taylor expansions: ``coeffs`` is (size, batch),
    valid to total degree ``order`` and, in each capped variable v, to degree
    ``left[v]`` (``left`` defaults to the space's caps)."""

    # Bound in this class's own dict, not only inherited: the benchmark's
    # tracer reads Jet.__dict__["__mul__"] and "__rmul__" to count products.
    __mul__ = __rmul__ = Element.__mul__

    def __init__(self, space: JetSpace, coeffs: np.ndarray, order: int,
                 left: tuple | None = None):
        self.space = space
        self.coeffs = coeffs
        self.order = order
        self.left = space.caps if left is None else left

    @property
    def batch(self) -> int:
        return self.coeffs.shape[1]

    def value(self) -> np.ndarray:
        return self.coeffs[0].copy()

    def coeff(self, alpha) -> np.ndarray:
        idx = self.space.lookup(alpha)
        if self.space.degrees[idx] > self.order:
            raise JetOrderError(
                f"coefficient {tuple(alpha)} beyond validity order {self.order}")
        for v, (k, left) in enumerate(zip(alpha, self.left)):
            if k > left:
                raise JetCapError(f"coefficient {tuple(alpha)} beyond the "
                                  f"degree {left} left in variable {v}",
                                  v, self.space.caps[v])
        return self.coeffs[idx].copy()

    def partial(self, v: int) -> "Jet":
        if self.order < 1:
            raise JetOrderError("cannot differentiate a jet of validity order 0")
        sp = self.space
        left = self.left
        if sp.caps[v] < sp.order:
            if left[v] < 1:
                raise JetCapError(
                    f"cannot differentiate in variable {v} more than "
                    f"{sp.caps[v]} time(s): the space caps its degree there",
                    v, sp.caps[v])
            left = left[:v] + (left[v] - 1,) + left[v + 1:]
        out = np.zeros_like(self.coeffs)
        out[sp._d_dst[v]] = self.coeffs[sp._d_src[v]] * sp._d_mul[v]
        return Jet(sp, out, self.order - 1, left)

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise JetError("jets from different spaces")
            return other
        return float(other) if isinstance(other, NUMBER) else None

    def _shift(self, c: float) -> "Jet":
        coeffs = self.coeffs.copy()
        coeffs[0] += c
        return Jet(self.space, coeffs, self.order, self.left)

    def _rsub(self, c: float) -> "Jet":
        coeffs = -self.coeffs
        coeffs[0] += c
        return Jet(self.space, coeffs, self.order, self.left)

    def _scale(self, c: float) -> "Jet":
        return Jet(self.space, self.coeffs * c, self.order, self.left)

    def _unscale(self, c: float) -> "Jet":
        return Jet(self.space, self.coeffs / c, self.order, self.left)

    def _rdiv(self, c: float):
        return c * self.reciprocal()

    def _add(self, o: "Jet") -> "Jet":
        return Jet(self.space, self.coeffs + o.coeffs, min(self.order, o.order),
                   _meet(self.left, o.left))

    def _sub(self, o: "Jet") -> "Jet":
        return Jet(self.space, self.coeffs - o.coeffs, min(self.order, o.order),
                   _meet(self.left, o.left))

    def _mul(self, o: "Jet") -> "Jet":
        d = min(self.order, o.order)
        n = self.space.n_upto[d]
        return Jet(self.space, self.space.mul_raw(self.coeffs[:n], o.coeffs[:n]), d,
                   _meet(self.left, o.left))

    def _div(self, o: "Jet") -> "Jet":
        return self * o.reciprocal()

    def __neg__(self):
        return Jet(self.space, -self.coeffs, self.order, self.left)

    def __pow__(self, n):
        if isinstance(n, (int, np.integer)):
            if n < 0:
                return self.reciprocal() ** (-int(n))
            result = 1.0
            base = self
            n = int(n)
            while n:
                if n & 1:
                    result = result * base
                n >>= 1
                if n:
                    base = base * base
            return result
        return self.pow_real(float(n))

    def _compose(self, series) -> "Jet":
        """Evaluate sum_m a_m * (self - value)^m by Horner; ``series[m]`` is a_m.

        The loop starts at the validity order: (self - value)^m has no terms
        below degree m, so higher terms only reach rows past it.
        """
        sp = self.space
        d = self.order
        n = sp.n_upto[d]
        u = self.coeffs[:n].copy()
        u[0] = 0.0
        out = np.zeros_like(self.coeffs)
        out[0] = series[d]
        for m in range(d - 1, -1, -1):
            out = sp.mul_raw(out[:n], u)
            out[0] += series[m]
        return Jet(sp, out, d, self.left)

    def reciprocal(self) -> "Jet":
        c0 = self.coeffs[0]
        if np.any(c0 == 0.0):
            raise SingularPointError("reciprocal of a jet with zero value")
        series = [1.0 / c0]
        for _ in range(self.order):
            series.append(-series[-1] / c0)
        return self._compose(series)

    def exp(self) -> "Jet":
        e0 = np.exp(self.coeffs[0])
        series = [e0 / math.factorial(m) for m in range(self.order + 1)]
        return self._compose(series)

    def log(self) -> "Jet":
        c0 = self.coeffs[0]
        if np.any(c0 <= 0.0):
            raise SingularPointError("log of a jet with non-positive value")
        series = [np.log(c0)]
        for m in range(1, self.order + 1):
            series.append((-1.0) ** (m - 1) / (m * c0 ** m))
        return self._compose(series)

    def pow_real(self, a: float) -> "Jet":
        c0 = self.coeffs[0]
        if np.any(c0 <= 0.0):
            raise SingularPointError("real power of a jet with non-positive value")
        series = [c0 ** a]
        for m in range(1, self.order + 1):
            series.append(series[-1] * (a - m + 1) / (m * c0))
        return self._compose(series)

    def sin(self) -> "Jet":
        series = [v / math.factorial(m) for m, v in
                  enumerate(_sin_derivatives(self.coeffs[0], self.order + 1))]
        return self._compose(series)

    def cos(self) -> "Jet":
        series = [v / math.factorial(m) for m, v in
                  enumerate(_sin_derivatives(self.coeffs[0], self.order + 1, 1))]
        return self._compose(series)

    def __repr__(self):
        return (f"Jet(vars={self.space.n_vars}, order={self.order}, "
                f"batch={self.batch}, value~{np.mean(self.coeffs[0]):.6g})")


def first_order_step(u: Jet, v: int, rhs: Jet, order: int) -> Jet:
    """A fresh jet, valid to ``order``: u with its v-degree-1 rows set from
    rhs's v-degree-0 rows, so that du/dx_v = rhs at v-degree 0.

    The space must cap v at degree 1. Those are then the rows that
    ``partial`` reads for d/dx_v, and its differentiation table names them
    with every multiplier 1.
    """
    sp = u.space
    if sp.caps[v] != 1:
        raise JetError(f"a first-order step needs variable {v} capped at "
                       f"degree 1, not {sp.caps[v]}")
    coeffs = u.coeffs.copy()
    coeffs[sp._d_src[v]] = rhs.coeffs[sp._d_dst[v]]
    return Jet(sp, coeffs, order, u.left[:v] + (1,) + u.left[v + 1:])
