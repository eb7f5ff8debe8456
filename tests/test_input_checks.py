"""Every input check of the inequality and Schatten reports, called from the
library: each row names the exception and the message it must carry."""

import numpy as np
import pytest

from xplab.inequalities import (
    BMW,
    Pisier,
    convolution_probe,
    cotype_report,
    linear_xp_report,
    metric_xp_report,
    reverse_linear_xp_report,
    reverse_metric_xp_report,
    scaling_witness_report,
    smoothness_report,
)
from xplab.lattice import GridFunction, SamplePlan
from xplab.operators import HypercubeFunction
from xplab.schatten import (
    Holder,
    LambdaFamily,
    LiebThirring,
    MainQge1,
    OpConvex,
    Qlt1,
    khinchine_report,
    psd_counterexample,
    psd_xp_report,
    random_psd,
    schatten_norm,
    schatten_xp_report,
    trace_inequality_report,
)

PLAN = SamplePlan("exhaustive", 10**6, 0)
PSD = random_psd(2, 0)
INDEFINITE = np.diag([1.0, -1.0])


def grid(modulus: int, n: int) -> GridFunction:
    return GridFunction(modulus, n, 1, 2.0, np.zeros((modulus,) * n + (1,)))


def cube(n: int) -> HypercubeFunction:
    return HypercubeFunction(n, 1, np.zeros((2,) * n + (1,)))


def trace(kind) -> None:
    trace_inequality_report(PSD, PSD, kind)


CASES = {
    # inequalities.py
    "xp-moments-k": (lambda: linear_xp_report([1.0, 2.0], 3, 4.0, PLAN),
                     ValueError, r"k=3 out of range for n=2"),
    "empty-coefficients": (lambda: linear_xp_report([], 1, 4.0, PLAN),
                           ValueError, "nonempty vector"),
    "linear-p": (lambda: linear_xp_report([1.0], 1, 1.5, PLAN), ValueError, "p must be >= 2"),
    "reverse-linear-p": (lambda: reverse_linear_xp_report([1.0], 1, 1.5, PLAN),
                         ValueError, "p must be >= 2"),
    "metric-k": (lambda: metric_xp_report(grid(4, 2), 3, PLAN),
                 ValueError, r"k=3 out of range for n=2"),
    "reverse-metric-modulus": (lambda: reverse_metric_xp_report(grid(4, 2), 1, PLAN),
                               ValueError, "modulus divisible by 8"),
    "reverse-metric-k": (lambda: reverse_metric_xp_report(grid(8, 2), 0, PLAN),
                         ValueError, r"k=0 out of range for n=2"),
    "smoothness-n": (lambda: smoothness_report(cube(0), BMW(3.0, 4.0)),
                     ValueError, "dimension n >= 1"),
    "smoothness-kind": (lambda: smoothness_report(cube(2), Qlt1(0.5)),
                        TypeError, "unknown smoothness kind"),
    "cotype-s": (lambda: cotype_report(grid(4, 2), 0.0, "three-letter", PLAN),
                 ValueError, r"s=0\.0 must be > 0"),
    "cotype-odd-modulus": (lambda: cotype_report(grid(3, 2), 2.0, "three-letter", PLAN),
                           ValueError, "even modulus"),
    "cotype-variant": (lambda: cotype_report(grid(4, 2), 2.0, "bogus", PLAN),
                       ValueError, "unknown cotype variant 'bogus'"),
    "probe-n": (lambda: convolution_probe(grid(4, 0), 2.0), ValueError, "dimension n >= 1"),
    "witness-m": (lambda: scaling_witness_report(0, 2, 1, 2.0), ValueError, "m >= 1, got m=0"),
    "witness-k": (lambda: scaling_witness_report(2, 2, 3, 2.0),
                  ValueError, r"k=3 out of range for n=2"),
    # schatten.py
    "schatten-norm-p": (lambda: schatten_norm(PSD, 0.5), ValueError, "p must be >= 1"),
    "trace-psd": (lambda: trace_inequality_report(INDEFINITE, PSD, MainQge1(2.0)),
                  ValueError, "require PSD inputs"),
    "main-q": (lambda: trace(MainQge1(0.5)), ValueError, "MainQge1 requires q >= 1"),
    "qlt1-q": (lambda: trace(Qlt1(1.5)), ValueError, "Qlt1 requires 0 < q < 1"),
    "lambda-q": (lambda: trace(LambdaFamily(0.5)), ValueError, "LambdaFamily requires q >= 1"),
    "holder-lengths": (lambda: trace(Holder(1.0, (1.0,), (0.5, 0.5))),
                       ValueError, r"len\(a\) == len\(b\) \+ 1"),
    "holder-negative": (lambda: trace(Holder(1.0, (-0.5, 1.5), (1.0,))),
                        ValueError, "nonnegative"),
    "holder-sum": (lambda: trace(Holder(1.0, (1.0, 1.0), (1.0,))),
                   ValueError, r"sum to q \+ 1"),
    "holder-constraint": (lambda: trace(Holder(1.0, (0.1, 0.1), (1.8,))),
                          ValueError, "constraint b_j"),
    "lieb-thirring-r": (lambda: trace(LiebThirring(0.5)),
                        ValueError, "LiebThirring requires r >= 1"),
    "op-convex-theta": (lambda: trace(OpConvex(2.5, 0.5)), ValueError, r"theta in \[1, 2\]"),
    "op-convex-s": (lambda: trace(OpConvex(1.5, 1.0)), ValueError, r"s in \(0, 1\)"),
    "trace-kind": (lambda: trace(Pisier(4.0)), TypeError, "unknown trace inequality kind"),
    "counterexample-s-q": (lambda: psd_counterexample(0.1, 0.0, 2.0),
                           ValueError, "require s > 0 and q > 0"),
    "matrix-shapes": (lambda: schatten_xp_report([np.eye(2), np.eye(3)], 1, 4.0, PLAN),
                      ValueError, "equal shape"),
    "schatten-xp-p": (lambda: schatten_xp_report([np.eye(2)], 1, 1.5, PLAN),
                      ValueError, "p must be >= 2"),
    "psd-xp-psd": (lambda: psd_xp_report([INDEFINITE], 1, 2.0),
                   ValueError, "requires PSD inputs"),
    "psd-xp-k": (lambda: psd_xp_report([PSD], 2, 2.0), ValueError, r"k=2 out of range for n=1"),
    "psd-xp-q": (lambda: psd_xp_report([PSD], 1, 0.5), ValueError, "q must be >= 1"),
    "khinchine-p": (lambda: khinchine_report([np.eye(2)], 1.5, PLAN),
                    ValueError, "p must be >= 2"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_bad_input_raises_at_the_report(name):
    call, error, match = CASES[name]
    with pytest.raises(error, match=match):
        call()
