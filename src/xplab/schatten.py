"""Symmetric-matrix spectral calculus, Schatten norms, trace inequalities.

Eigensolves use LAPACK through ``numpy.linalg``: ``eigh`` for spectral
decompositions (reordered to descending eigenvalues), batched over the
subset sums of ``psd_xp_report``, and ``eigvalsh`` where only eigenvalues
are needed, batched over whole sign-pattern stacks.
One private function, ``_eig_power``, raises a spectrum to a power: the
spectral A^q of ``SymMatrix.power`` and the traces of ``trace_power``,
which are sums of the powered eigenvalues with no matrix formed.  At
fractional q it clips tiny negative eigenvalues attributable to roundoff.
The PSD-subadditivity counterexample is evaluated in exact
rational arithmetic for integer exponents, because the quadratic form of
interest is a ~1e-12 cancellation of O(1) entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .inequalities import (
    InequalityReport,
    _xp_moments,
    signed_power_mean,
    subset_average,
)
from .lattice import SamplePlan, _blocks, _norm_power, make_sample_plan
from .rng import stream

__all__ = [
    "SymMatrix",
    "eigen_sym",
    "schatten_norm",
    "trace_power",
    "trace_mixed",
    "MainQge1",
    "Qlt1",
    "LambdaFamily",
    "Holder",
    "LiebThirring",
    "OpConvex",
    "trace_inequality_report",
    "PsdCounterexample",
    "psd_counterexample",
    "random_psd",
    "schatten_xp_report",
    "psd_xp_report",
    "khinchine_report",
]

_PSD_CLIP = 1e-12


@dataclass(frozen=True)
class SymMatrix:
    """Real symmetric matrix with a spectral cache and a PSD flag."""

    entries: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    psd: bool

    @staticmethod
    def from_array(a: np.ndarray) -> "SymMatrix":
        a = np.asarray(a, dtype=float)
        if a.size == 0:
            raise ValueError("a matrix must have order >= 1")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"a matrix must be square, got shape {a.shape}")
        sym = 0.5 * (a + a.T)
        vals, vecs = np.linalg.eigh(sym)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        for arr in (sym, vals, vecs):
            arr.setflags(write=False)
        return SymMatrix(sym, vals, vecs, bool(vals[-1] >= _clip_floor(vals)))

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    def power(self, q: float) -> np.ndarray:
        """Spectral A^q; fractional q requires (numerically) PSD input."""
        return (self.eigenvectors * _eig_power(self.eigenvalues, q)) @ self.eigenvectors.T


def _clip_floor(vals: np.ndarray) -> float:
    """-_PSD_CLIP * max(max |lambda|, 1) for a spectrum sorted descending:
    eigenvalues above it count as nonnegative roundoff."""
    return -_PSD_CLIP * max(abs(vals[0]), abs(vals[-1]), 1.0)


def _eig_power(vals: np.ndarray, q: float) -> np.ndarray:
    """lambda^q of a spectrum sorted descending.  Unless q is an integer >= 0,
    eigenvalues in [_clip_floor, 0) become 0 and any lower one is an error."""
    if float(q) == int(q) and q >= 0:
        return vals ** int(q)
    clipped = vals.copy()
    clipped[(clipped < 0) & (clipped >= _clip_floor(vals))] = 0.0
    if np.any(clipped < 0):
        raise ValueError(f"fractional power {q} of a matrix with negative eigenvalue")
    return clipped**q


def _as_sym(a: "SymMatrix | np.ndarray") -> SymMatrix:
    return a if isinstance(a, SymMatrix) else SymMatrix.from_array(np.asarray(a))


def eigen_sym(a: "SymMatrix | np.ndarray") -> tuple[np.ndarray, np.ndarray]:
    """Spectrum (eigenvalues descending, eigenvector columns)."""
    m = _as_sym(a)
    return m.eigenvalues, m.eigenvectors


# ---------------------------------------------------------------------------
# norms and traces
# ---------------------------------------------------------------------------


def schatten_norm(a: "SymMatrix | np.ndarray", p: float) -> float:
    """l_p norm of the singular values (eigenvalues when symmetric)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    arr = a.entries if isinstance(a, SymMatrix) else np.asarray(a, dtype=float)
    power = _schatten_power(p, np.array_equal(arr, arr.T))
    return float(power(arr[None])[0]) ** (1.0 / p)


def trace_power(a: "SymMatrix | np.ndarray", q: float) -> float:
    """tr(A^q), the sum of lambda^q (PSD required for fractional q)."""
    return float(np.sum(_eig_power(_as_sym(a).eigenvalues, q)))


def trace_mixed(
    a: "SymMatrix | np.ndarray", b: "SymMatrix | np.ndarray", q: float
) -> float:
    """tr(A^q B) via the spectral functional calculus for A^q."""
    ma, mb = _as_sym(a), _as_sym(b)
    return float(np.trace(ma.power(q) @ mb.entries))


# ---------------------------------------------------------------------------
# trace inequality kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MainQge1:
    """(tr((A+B)^q A))^{1/q} <= (tr A^{q+1})^{1/q} + (tr B^q A)^{1/q}, q >= 1."""

    q: float


@dataclass(frozen=True)
class Qlt1:
    """tr((A+B)^q A) <= tr A^{q+1} + tr B^q A, 0 < q < 1."""

    q: float


@dataclass(frozen=True)
class LambdaFamily:
    """tr((A+B)^{q-1} A) <= min_l tr A^q / l^r + tr(B^{q-1}A)/(1-l)^r."""

    q: float


@dataclass(frozen=True)
class Holder:
    """Alternating-word trace vs the two-factor interpolation bound.

    a = (a_0..a_k), b = (b_1..b_k) with sum(a)+sum(b) = q+1 and the cyclic
    constraint b_j + b_{j+1} <= 2q a_j (with b_0 := b_k).
    """

    q: float
    a: tuple[float, ...]
    b: tuple[float, ...]


@dataclass(frozen=True)
class LiebThirring:
    """tr((XYX)^r) <= tr(X^r Y^r X^r), r >= 1."""

    r: float


@dataclass(frozen=True)
class OpConvex:
    """A^t/s^{t-1} + B^t/(1-s)^{t-1} - (A+B)^t is PSD for t in [1,2]."""

    theta: float
    s: float


_LAMBDA_GRID = np.arange(1, 1026) / 1026.0
_TINY = np.finfo(float).tiny  # slack for terms below the normal range


def trace_inequality_report(
    a: "SymMatrix | np.ndarray",
    b: "SymMatrix | np.ndarray",
    kind: "MainQge1 | Qlt1 | LambdaFamily | Holder | LiebThirring | OpConvex",
) -> InequalityReport:
    """Evaluate one trace inequality instance on a PSD pair."""
    ma, mb = _as_sym(a), _as_sym(b)
    _matrix_stack([ma, mb])
    if not (ma.psd and mb.psd):
        raise ValueError("trace inequalities require PSD inputs")
    d = ma.order
    params = {"d": d, "kind": type(kind).__name__, **vars(kind)}

    if isinstance(kind, (MainQge1, Qlt1)):
        q, main = kind.q, isinstance(kind, MainQge1)
        if (q < 1) if main else not 0 < q < 1:
            raise ValueError(f"{type(kind).__name__} requires {'q >= 1' if main else '0 < q < 1'}")
        root = 1.0 / q if main else 1.0  # x ** 1.0 is x
        msum = SymMatrix.from_array(ma.entries + mb.entries)
        lhs = trace_mixed(msum, ma, q) ** root
        t1 = trace_power(ma, q + 1.0) ** root
        t2 = trace_mixed(mb, ma, q) ** root
        return InequalityReport("trace_main_qge1" if main else "trace_qlt1", params, lhs,
                                {"pure": t1, "mixed": t2}, None)

    if isinstance(kind, LambdaFamily):
        q = kind.q
        if q < 1:
            raise ValueError("LambdaFamily requires q >= 1")
        r = max(q - 2.0, 0.0)
        msum = SymMatrix.from_array(ma.entries + mb.entries)
        lhs = trace_mixed(msum, ma, q - 1.0)
        v = trace_power(ma, q)
        z = trace_mixed(mb, ma, q - 1.0)
        # one vector pass finds the grid points near the minimum; the scalar
        # expression, whose pow may differ from numpy's vector pow in the
        # last bit, is minimized over those points only.  The band is sized
        # by the terms, not by their sum, which z's roundoff can make
        # negative or cancel; a NaN or infinite minimum keeps every point.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            head = v / _LAMBDA_GRID**r
            tail = z / (1.0 - _LAMBDA_GRID) ** r
            vec = head + tail
            size = np.abs(head) + np.abs(tail)
            i = vec.argmin()
            band = 1e-12 * (size + size[i]) + _TINY
            lams = list(_LAMBDA_GRID[~(vec - vec[i] > band)])
        if r > 0 and v > 0 and z > 0:
            # closed-form minimizer of v/l^r + z/(1-l)^r, unless it rounds to
            # an end of (0, 1), where a term divides by zero
            lam_star = 1.0 / (1.0 + (z / v) ** (1.0 / (r + 1.0)))
            if 0.0 < lam_star < 1.0:
                lams.append(lam_star)
        rhs = float(min(v / lam**r + z / (1.0 - lam) ** r for lam in lams))
        return InequalityReport(
            "trace_lambda_family", params, lhs, {"min_over_lambda": rhs}, None,
            extra={"r": r, "v": v, "z": z},
        )

    if isinstance(kind, Holder):
        q = kind.q
        av, bv = tuple(kind.a), tuple(kind.b)
        if len(av) != len(bv) + 1 and len(av) != len(bv):
            # word A^{a_0} B^{b_1} A^{a_1} ... B^{b_k}: k+1 a's and k b's,
            # or the cyclic k = len(b) with a_k merged into a_0.
            raise ValueError("need len(a) == len(b) + 1 or len(a) == len(b)")
        if any(x < 0 for x in av + bv):
            raise ValueError("word exponents must be nonnegative")
        total = math.fsum(av) + math.fsum(bv)
        if abs(total - (q + 1.0)) > 1e-12:
            raise ValueError("word exponents must sum to q + 1")
        k = len(bv)
        cyc_b = (bv[-1],) + bv  # b_0 := b_k
        for j in range(min(len(av), k)):
            if cyc_b[j] + cyc_b[j + 1] > 2.0 * q * av[j] + 1e-12:
                raise ValueError("constraint b_j + b_{j+1} <= 2 q a_j violated")
        word = np.eye(d)
        for i, ai in enumerate(av):
            word = word @ ma.power(ai)
            if i < k:
                word = word @ mb.power(bv[i])
        lhs = float(np.trace(word))
        sb = math.fsum(bv)
        rhs = trace_power(ma, q + 1.0) ** (1.0 - sb / q) * trace_mixed(
            mb, ma, q
        ) ** (sb / q)
        return InequalityReport("trace_holder", params, lhs, {"interpolated": rhs}, None)

    if isinstance(kind, LiebThirring):
        r = kind.r
        if r < 1:
            raise ValueError("LiebThirring requires r >= 1")
        x, y = ma, mb
        xyx = SymMatrix.from_array(x.entries @ y.entries @ x.entries)
        lhs = trace_power(xyx, r)
        xr, yr = x.power(r), y.power(r)
        rhs = float(np.trace(xr @ yr @ xr))
        return InequalityReport("trace_lieb_thirring", params, lhs, {"powered": rhs}, None)

    if isinstance(kind, OpConvex):
        theta, s = kind.theta, kind.s
        if not 1.0 <= theta <= 2.0:
            raise ValueError("OpConvex requires theta in [1, 2]")
        if not 0.0 < s < 1.0:
            raise ValueError("OpConvex requires s in (0, 1)")
        msum = SymMatrix.from_array(ma.entries + mb.entries)
        gap = (
            ma.power(theta) / s ** (theta - 1.0)
            + mb.power(theta) / (1.0 - s) ** (theta - 1.0)
            - msum.power(theta)
        )
        min_eig = float(np.linalg.eigvalsh(0.5 * (gap + gap.T))[0])
        return InequalityReport(
            "trace_op_convex", params, min_eig, {"lower_bound": 0.0}, None,
            extra={"min_eigenvalue": min_eig},
        )

    raise TypeError(f"unknown trace inequality kind {kind!r}")


# ---------------------------------------------------------------------------
# PSD-subadditivity counterexample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsdCounterexample:
    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    quadratic_form: float
    min_eigenvalue: float


def _float(x: Fraction) -> float:
    """float(x), or +-inf for an x past the largest float."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def psd_counterexample(s: float, q: float, big_k: float) -> PsdCounterexample:
    """The 2x2 family showing K(A^q + B^q) - (A+B)^q is not PSD in general.

    A = diag(s^2, 0), B = [[1, s], [s, s^2]], w = (-s, 1).  Returns the
    quadratic form <(K(A^q+B^q) - (A+B)^q) w, w> and the minimum eigenvalue.
    Integer q is evaluated in exact rational arithmetic (the form is a tiny
    cancellation of O(1) entries), and an exact value past the largest float
    is +-inf; fractional q uses float spectral calculus.
    """
    if s <= 0 or q <= 0:
        raise ValueError("require s > 0 and q > 0")
    a = np.array([[s * s, 0.0], [0.0, 0.0]])
    b = np.array([[1.0, s], [s, s * s]])
    w = np.array([-s, 1.0])
    if float(q) == int(q):
        sf = Fraction(s)  # s^2 exactly, not the rounded s * s entries of a and b
        qa = np.array([[sf * sf, 0], [0, 0]], dtype=object)
        qb = np.array([[1, sf], [sf, sf * sf]], dtype=object)
        wf = np.array([-sf, 1], dtype=object)
        power = np.linalg.matrix_power
        gap = Fraction(big_k) * (power(qa, int(q)) + power(qb, int(q))) - power(qa + qb, int(q))
        form = _float(wf @ gap @ wf)
        gap_f = np.vectorize(_float, otypes=[float])(gap)
    else:
        pa = _as_sym(a).power(q)
        pb = _as_sym(b).power(q)
        ps = _as_sym(a + b).power(q)
        gap_f = big_k * (pa + pb) - ps
        form = float(w @ gap_f @ w)
    min_eig = float(np.linalg.eigvalsh(0.5 * (gap_f + gap_f.T))[0])
    return PsdCounterexample(a, b, w, form, min_eig)


# ---------------------------------------------------------------------------
# random matrices
# ---------------------------------------------------------------------------


def random_psd(d: int, seed: int, purpose: str = "psd") -> SymMatrix:
    """A = G G^T / d with standard normal G."""
    if d < 1:
        raise ValueError("d must be >= 1")
    gen = stream(seed, purpose)
    g = gen.normal(size=(d, d))
    a = g @ g.T / d
    return SymMatrix.from_array(a)


# ---------------------------------------------------------------------------
# noncommutative X_p reports
# ---------------------------------------------------------------------------


def _schatten_power(p: float, symmetric: bool):
    """Batched ||.||_{S_p}^p for stacks of matrices, one eigvalsh per stack."""

    def fn(batch: np.ndarray) -> np.ndarray:
        if symmetric:
            return _norm_power(np.linalg.eigvalsh(batch), p, p)
        gram = np.swapaxes(batch, -1, -2) @ batch
        vals = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
        return np.sum(vals ** (p / 2.0), axis=-1)

    return fn


def _matrix_stack(mats: Sequence["SymMatrix | np.ndarray"]) -> list[np.ndarray]:
    arrs = [m.entries if isinstance(m, SymMatrix) else np.asarray(m, dtype=float) for m in mats]
    d = arrs[0].shape
    if any(m.shape != d for m in arrs):
        raise ValueError("all matrices must have equal shape")
    return arrs


def schatten_xp_report(
    mats: Sequence["SymMatrix | np.ndarray"],
    k: int,
    p: float,
    plan: SamplePlan,
) -> InequalityReport:
    """The coefficient inequality with absolute values replaced by S_p norms.

    The moments come from the helper of linear_xp_report with the batched
    S_p power in place of the l_p one.  A 1x1 matrix has ``eigvalsh`` equal
    to its entry, so for d = 1 the report equals linear_xp_report on the
    same plan bit for bit.
    """
    arrs = _matrix_stack(mats)
    n, d = len(arrs), arrs[0].shape[0]
    if p < 2:
        raise ValueError("p must be >= 2")
    symmetric = all(np.array_equal(m, m.T) for m in arrs)
    lhs, ell, rad = _xp_moments(arrs, k, _schatten_power(p, symmetric), plan)
    return InequalityReport(
        "schatten_xp",
        {"p": p, "n": n, "k": k, "d": d},
        lhs,
        {"ell_p": (k / n) * ell, "rademacher": (k / n) ** (p / 2) * rad},
        plan,
    )


def _subset_traces(
    entries: np.ndarray, subsets: Sequence[tuple[int, ...]], q: float
) -> list[float]:
    """``trace_power(SymMatrix.from_array(sum(entries[j-1] for j in S)), q)``
    for each subset S, bit for bit, with one ``eigh`` per ``_blocks`` slice
    of the subsets (at most ``_BLOCK`` floats of sums, at least one subset).

    The sums add the matrices column by column onto zeros, the float
    additions of Python ``sum`` (``np.add.reduce`` over a stack of 1x1
    matrices sums pairwise from eight terms on).  Each matrix's spectrum is
    a reversed row of the block, with the strides of ``SymMatrix.eigenvalues``,
    so its powers take the same numpy loops: numpy's pow rounds differently
    on other layouts.
    """
    d = entries.shape[-1]
    traces = []
    for block in _blocks(len(subsets), d * d):
        idx = np.asarray(subsets[block]) - 1
        total = np.zeros((len(idx), d, d))
        for col in idx.T:
            total += entries[col]
        vals, _ = np.linalg.eigh(0.5 * (total + np.swapaxes(total, 1, 2)))
        traces += [float(np.sum(_eig_power(w[::-1], q))) for w in vals]
    return traces


def psd_xp_report(
    mats: Sequence["SymMatrix | np.ndarray"],
    k: int,
    q: float,
    plan: SamplePlan | None = None,
) -> InequalityReport:
    """Subset-averaged tr((sum_{j in S} B_j)^q) vs the max of two terms.

    rhs = max{(k/n) sum_j tr B_j^q, (k/n)^q tr((sum_j B_j)^q)} for PSD B_j.
    """
    syms = [_as_sym(m) for m in mats]
    if any(not m.psd for m in syms):
        raise ValueError("psd_xp_report requires PSD inputs")
    n = len(syms)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    if q < 1:
        raise ValueError("q must be >= 1")
    if plan is None:
        plan = make_sample_plan(1, n, k, math.comb(n, k), 0, letters=1)
    entries = np.stack(_matrix_stack(syms))
    lhs = subset_average(lambda subsets: _subset_traces(entries, subsets, q), n, k, plan,
                         batched=True)
    t1 = (k / n) * math.fsum(trace_power(m, q) for m in syms)
    t2 = (k / n) ** q * trace_power(sum(m.entries for m in syms), q)
    rhs = max(t1, t2)
    return InequalityReport(
        "psd_xp",
        {"q": q, "n": n, "k": k, "d": syms[0].order},
        lhs,
        {"max_term": rhs},
        plan,
        extra={"sum_term": t1, "full_term": t2},
    )


def khinchine_report(
    mats: Sequence["SymMatrix | np.ndarray"],
    p: float,
    plan: SamplePlan,
) -> InequalityReport:
    """Sign-averaged Schatten moments vs row/column square functions.

    lhs = E ||sum_j eps_j A_j||_{S_p}^p;
    rhs = tr((sum A_j^T A_j)^{p/2}) + tr((sum A_j A_j^T)^{p/2}).
    extra reports both direction ratios.
    """
    arrs = _matrix_stack(mats)
    n = len(arrs)
    if p < 2:
        raise ValueError("p must be >= 2")
    power = _schatten_power(p, all(np.array_equal(m, m.T) for m in arrs))
    lhs = signed_power_mean(arrs, tuple(range(1, n + 1)), power, plan)
    rhs = (trace_power(sum(m.T @ m for m in arrs), p / 2.0)
           + trace_power(sum(m @ m.T for m in arrs), p / 2.0))
    report = InequalityReport(
        "khinchine",
        {"p": p, "n": n, "d": arrs[0].shape[0]},
        lhs,
        {"square_functions": rhs},
        plan,
    )
    if rhs > 0 and lhs > 0:
        report.extra["upper_ratio"] = lhs / rhs
        report.extra["easy_direction_ratio"] = rhs / lhs
    return report
