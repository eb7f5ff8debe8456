"""Every input check of the library's reports, operators, grids and
embeddings, called from the library: each row names the exception and the
message it must carry."""

import numpy as np
import pytest

from xplab.complexify import (
    bridge_report,
    circular_moment,
    complexification_norm,
    contraction_check,
)
from xplab.embeddings import (
    composite_grid_distortion,
    distortion,
    distortion_from_matrices,
    grid_bounds,
    grid_round_map,
    rosenthal_distortion,
    rosenthal_distortion_two_level,
    schoenberg_embed,
)
from xplab.inequalities import (
    BMW,
    Enflo,
    Pisier,
    convolution_probe,
    convolution_search,
    cotype_report,
    displacement_report,
    linear_xp_report,
    metric_xp_report,
    reverse_linear_xp_report,
    reverse_metric_xp_report,
    scaling_witness_report,
    smoothness_report,
)
from xplab.lattice import (
    Diagonal,
    Edge,
    FixedShift,
    GridFunction,
    LatticePoint,
    SamplePlan,
    ShiftedSet,
    gap_moment,
    geodesic,
    make_sample_plan,
    subset_stream,
)
from xplab.operators import (
    DS,
    Ej,
    HypercubeFunction,
    box_average,
    character,
    edge_average,
    rad_identity_residual_grid,
)
from xplab.schatten import (
    Holder,
    LambdaFamily,
    LiebThirring,
    MainQge1,
    OpConvex,
    Qlt1,
    SymMatrix,
    khinchine_report,
    psd_counterexample,
    psd_xp_report,
    random_psd,
    schatten_norm,
    schatten_xp_report,
    trace_inequality_report,
    trace_power,
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
    "empty-vectors": (lambda: bridge_report([[], []], 1, 1, 4.0, PLAN),
                      ValueError, "got 2 vectors of length 0"),
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
    "smoothness-enflo-r": (lambda: smoothness_report(cube(2), Enflo(0.0)),
                           ValueError, r"Enflo exponent r=0\.0 must be > 0"),
    "smoothness-bmw-q": (lambda: smoothness_report(cube(2), BMW(0.0, 4.0)),
                         ValueError, r"BMW exponent q=0\.0 must be > 0"),
    "smoothness-bmw-p": (lambda: smoothness_report(cube(2), BMW(3.0, -1.0)),
                         ValueError, r"BMW exponent p=-1\.0 must be > 0"),
    "smoothness-pisier-p": (lambda: smoothness_report(cube(2), Pisier(-2.0)),
                            ValueError, r"Pisier exponent p=-2\.0 must be > 0"),
    "cotype-s": (lambda: cotype_report(grid(4, 2), 0.0, "three-letter", PLAN),
                 ValueError, r"s=0\.0 must be > 0"),
    "cotype-odd-modulus": (lambda: cotype_report(grid(3, 2), 2.0, "three-letter", PLAN),
                           ValueError, "even modulus"),
    "cotype-variant": (lambda: cotype_report(grid(4, 2), 2.0, "bogus", PLAN),
                       ValueError, "unknown cotype variant 'bogus'"),
    "probe-n": (lambda: convolution_probe(grid(4, 0), 2.0), ValueError, "dimension n >= 1"),
    "search-trials": (lambda: convolution_search(8, 2, 4.0, 0, 0),
                      ValueError, "convolution search requires trials >= 1, got trials=0"),
    "witness-m": (lambda: scaling_witness_report(0, 2, 1, 2.0), ValueError, "m >= 1, got m=0"),
    "witness-k": (lambda: scaling_witness_report(2, 2, 3, 2.0),
                  ValueError, r"k=3 out of range for n=2"),
    # not S = [1, 1] echoed beside the moments of {1}
    "displacement-repeated-subset": (lambda: displacement_report(grid(4, 2), (1, 1), 1, 2.0),
                                     ValueError, r"subset \(1, 1\) repeats an entry"),
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
    "trace-matrix-shapes": (lambda: trace_inequality_report(PSD, np.eye(3), MainQge1(2.0)),
                            ValueError, "equal shape"),
    "psd-xp-matrix-shapes": (lambda: psd_xp_report([PSD, np.eye(3)], 1, 2.0),
                             ValueError, "equal shape"),
    "schatten-xp-p": (lambda: schatten_xp_report([np.eye(2)], 1, 1.5, PLAN),
                      ValueError, "p must be >= 2"),
    "psd-xp-psd": (lambda: psd_xp_report([INDEFINITE], 1, 2.0),
                   ValueError, "requires PSD inputs"),
    "psd-xp-k": (lambda: psd_xp_report([PSD], 2, 2.0), ValueError, r"k=2 out of range for n=1"),
    "psd-xp-q": (lambda: psd_xp_report([PSD], 1, 0.5), ValueError, "q must be >= 1"),
    "random-psd-d": (lambda: random_psd(0, 0), ValueError, "d must be >= 1"),
    "matrix-order": (lambda: SymMatrix.from_array(np.zeros((0, 0))),
                     ValueError, "a matrix must have order >= 1"),
    "power-negative-eigenvalue": (lambda: SymMatrix.from_array(INDEFINITE).power(0.5),
                                  ValueError, "fractional power 0.5 of a matrix with negative"),
    "trace-power-negative-eigenvalue": (lambda: trace_power(INDEFINITE, 0.5), ValueError,
                                        "fractional power 0.5 of a matrix with negative"),
    "khinchine-p": (lambda: khinchine_report([np.eye(2)], 1.5, PLAN),
                    ValueError, "p must be >= 2"),
    # lattice.py
    "point-modulus": (lambda: LatticePoint((1,), 0), ValueError, "modulus must be positive"),
    "point-add": (lambda: LatticePoint((1, 2), 4) + (1,), ValueError, "dimension mismatch"),
    "subset-range": (lambda: gap_moment(grid(4, 2), ShiftedSet((3,), 1), PLAN),
                     ValueError, r"subset \(3,\) not contained in 1..2"),
    "grid-shape": (lambda: GridFunction(4, 2, 1, 2.0, np.zeros((4, 1))),
                   ValueError, r"values shape \(4, 1\) != \(4, 4, 1\)"),
    "grid-value-p": (lambda: GridFunction(4, 1, 1, 0.5, np.zeros((4, 1))),
                     ValueError, "value_p must be >= 1"),
    "grid-shift": (lambda: grid(4, 2).shift((1,)), ValueError, "shift dimension mismatch"),
    "plan-subset-mode": (lambda: SamplePlan("exhaustive", 1, 0, subset_mode="bogus"),
                         ValueError, "unknown subset_mode 'bogus'"),
    "plan-budget": (lambda: SamplePlan("exhaustive", 0, 0), ValueError, "budget must be >= 1"),
    "make-plan-dimension": (lambda: make_sample_plan(4, 0, 1, 100, 0),
                            ValueError, "modulus and dimension must be >= 1"),
    "make-plan-budget": (lambda: make_sample_plan(4, 2, 1, 0, 0),
                         ValueError, "budget must be >= 1"),
    "edge-index": (lambda: gap_moment(grid(4, 2), Edge(3), PLAN),
                   ValueError, "edge index 3 not in 1..2"),
    "fixed-shift-dimension": (lambda: gap_moment(grid(4, 2), FixedShift((1,)), PLAN),
                              ValueError, "fixed shift dimension mismatch"),
    "displacement-spec": (lambda: gap_moment(grid(4, 2), Pisier(2.0), PLAN),
                          TypeError, "unknown displacement spec"),
    "geodesic-empty": (lambda: geodesic([]), ValueError, "nonempty integer vector"),
    "subset-stream-k": (lambda: next(subset_stream(2, 3, PLAN)),
                        ValueError, r"k=3 out of range for n=2"),
    # operators.py
    "box-modulus": (lambda: box_average(grid(6, 1), DS((1,), 1)),
                    ValueError, "modulus divisible by 4"),
    "box-radius": (lambda: box_average(grid(4, 1), DS((1,), 3)),
                   ValueError, "R=3 too large for modulus 4"),
    "box-kind": (lambda: box_average(grid(4, 1), Ej(1)), TypeError, "unknown box kind"),
    "edge-kind": (lambda: edge_average(grid(4, 1), DS((1,), 1)),
                  TypeError, "unknown edge kind"),
    "edge-average-index": (lambda: edge_average(grid(4, 2), Ej(3)),
                           ValueError, "index 3 not in 1..2"),
    "hypercube-shape": (lambda: HypercubeFunction(2, 1, np.zeros((2, 1))),
                        ValueError, r"values shape \(2, 1\) != \(2, 2, 1\)"),
    "character-modulus": (lambda: character(LatticePoint((1,), 4)),
                          ValueError, "characters require modulus divisible by 8"),
    "identity-grid-modulus": (lambda: rad_identity_residual_grid(grid(4, 1)),
                              ValueError, "identity requires modulus divisible by 8"),
    # complexify.py
    "pair-norm-p": (lambda: complexification_norm([1.0], [0.0], 0.5),
                    ValueError, "p must be >= 1"),
    # not a silent broadcast of v, a norm of 0 or numpy's broadcast error
    "pair-norm-broadcast": (lambda: complexification_norm([1.0, 2.0, 3.0], [0.5], 3.0),
                            ValueError, "u and v must have one length: got 3 and 1"),
    "pair-norm-lengths": (lambda: complexification_norm([1.0, 2.0], [1.0, 2.0, 3.0], 3.0),
                          ValueError, "u and v must have one length: got 2 and 3"),
    "pair-norm-empty": (lambda: complexification_norm([], [], 3.0),
                        ValueError, "u and v must not be empty: got vectors of length 0"),
    "pair-norm-matrix": (lambda: complexification_norm([[1.0]], [[0.0]], 3.0), ValueError,
                         r"u and v must be 1-D vectors: got shapes \(1, 1\) and \(1, 1\)"),
    "pair-norm-scalar": (lambda: complexification_norm(1.0, 0.0, 3.0), ValueError,
                         r"u and v must be 1-D vectors: got shapes \(\) and \(\)"),
    "circular-moment-p": (lambda: circular_moment(0.5), ValueError, "p must be >= 1"),
    "contraction-p": (lambda: contraction_check([1.0], [[1.0]], 0.5, PLAN),
                      ValueError, "p must be >= 1"),
    "contraction-count": (lambda: contraction_check([1.0, 2.0], [[1.0]], 2.0, PLAN),
                          ValueError, "coefficient/vector count mismatch"),
    "bridge-p": (lambda: bridge_report([[1.0]], 1, 1, 0.5, PLAN), ValueError, "p must be >= 1"),
    "bridge-k": (lambda: bridge_report([[1.0]], 1, 2, 2.0, PLAN),
                 ValueError, r"k=2 out of range for n=1"),
    # embeddings.py
    "rosenthal-q": (lambda: rosenthal_distortion(4, 2.0, 4.0),
                    ValueError, r"require 2 < q <= p"),
    "rosenthal-n": (lambda: rosenthal_distortion(0, 3.0, 4.0), ValueError, "n must be >= 1"),
    "two-level-q": (lambda: rosenthal_distortion_two_level(4, 5.0, 4.0),
                    ValueError, r"require 2 < q <= p"),
    "coincident-source": (lambda: distortion_from_matrices(np.zeros((2, 2)), 1.0 - np.eye(2)),
                          ValueError, "coincident source points with distinct images"),
    "distortion-points": (lambda: distortion(np.zeros((1, 2)), np.zeros((1, 2)), 2.0, 2.0),
                          ValueError, "at least 2 points"),
    "schoenberg-q": (lambda: schoenberg_embed(np.eye(2), 1.5), ValueError, "q must be >= 2"),
    "grid-round-m": (lambda: grid_round_map([0], 1), ValueError, "m must be >= 2"),
    "grid-bounds-q": (lambda: grid_bounds(4, 4, 4.0, 4.0), ValueError, "require 2 < q < p"),
    "grid-pair-budget": (lambda: composite_grid_distortion(3, 2, 3.0, 4.0, "rosenthal", budget=10),
                         ValueError, "16 grid points exceed the pair budget"),
    "grid-one-point": (lambda: composite_grid_distortion(0, 2, 3.0, 4.0, "rosenthal"),
                       ValueError, "requires m >= 1 and n >= 1, got m=0, n=2"),
    "grid-negative-m": (lambda: composite_grid_distortion(-3, 2, 3.0, 4.0, "rosenthal"),
                        ValueError, "requires m >= 1 and n >= 1, got m=-3, n=2"),
    "grid-negative-n": (lambda: composite_grid_distortion(2, -1, 3.0, 4.0, "rosenthal"),
                        ValueError, "requires m >= 1 and n >= 1, got m=2, n=-1"),
    "grid-embedding": (lambda: composite_grid_distortion(1, 2, 3.0, 4.0, "bogus"),
                       ValueError, "unknown embedding 'bogus'"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_bad_input_raises_at_the_report(name):
    call, error, match = CASES[name]
    with pytest.raises(error, match=match):
        call()


def test_grid_function_equality_with_another_type_is_not_implemented():
    # Python then falls back to identity, so a grid never equals a non-grid
    assert grid(4, 1).__eq__(np.zeros((4, 1))) is NotImplemented
    assert grid(4, 1) != "grid"
