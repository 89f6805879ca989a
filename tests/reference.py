"""Reference computations that only tests call: the SimpleLSH transform of
one point, the key of one vector in one table of a built index, and the
general comparison with its witness as a set.  Each is checked against, or
drives, the library code that a solve runs."""

import math

import numpy as np

from assortmax.mips import _pack_bits
from assortmax.solvers import _general_step


def simple_lsh_transform(x: np.ndarray, scale: float) -> np.ndarray:
    """Map x with |x| <= scale to the unit sphere one dimension up.

    Returns [x / scale ; sqrt(1 - |x/scale|^2)], which has unit norm; inner
    products against unit queries padded with a zero are monotone in the
    original inner products, so argmaxes are preserved.
    """
    x = np.asarray(x, dtype=float)
    if not 0 < scale < math.inf:  # also rejects NaN
        raise ValueError("scale must be positive and finite")
    if not np.isfinite(x).all():
        raise ValueError("point must be finite")
    r2 = float(x @ x) / (scale * scale)
    if r2 > 1.0 + 1e-9:
        raise ValueError(f"point norm {math.sqrt(r2) * scale:.6g} exceeds scale {scale:.6g}")
    return np.concatenate([x / scale, [math.sqrt(max(0.0, 1.0 - r2))]])


def hash_key(x_transformed: np.ndarray, table: int, index) -> int:
    """Key of a unit-norm transformed vector in one table of ``index``.

    Bit t is 1 exactly when the t-th hyperplane projection is >= 0; a zero
    projection counts as positive so equal inputs always collide.
    """
    x = np.asarray(x_transformed, dtype=float)
    if x.size != index.dim:
        raise ValueError(f"vector has dimension {x.size}, expected {index.dim}")
    raw = index.projections[table] @ x
    return int(_pack_bits(raw >= 0.0))


def compare_step_general(K: float, mips, inst):
    """Does any feasible set have revenue >= K?  The solvers' own step,
    with its witness as the engine's set, or (False, None).

    With an exact engine the answer is exact and the witness attains the
    maximum margin sum.  With a hashed engine a miss can only produce a
    false negative: the returned candidate's score is its true inner
    product, so a positive answer is always certified.
    """
    raised = _general_step(mips, inst)(K)
    return (False, None) if raised is None else (True, mips.points.source[raised[1]])
