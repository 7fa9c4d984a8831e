"""Certificates, slope lower bounds, and empirical error-rate classification.

Three diagnostics relate a solver run to the brute-force oracle:

* build_certificate freezes the oracle's optimal follower/leader levels
  and cross-checks, by sampling C, that three candidate descriptions of
  the optimal set agree (bounds description, sum-sublevel description,
  equality description). Disagreement flags the certificate invalid;
  the exact min over C of h + f, below level_sum, says why.
* strong_slope_lower_bound estimates the infimum of the follower
  objective's gradient norm away from its minimizers; a positive bound
  yields a Hoffman-type constant, which drives the linear error rate.
* fit_rate classifies the empirical decay of the oracle-vs-solver gap
  by its log-log slope: linear rate, square-root rate, or, when the gap
  is numerically zero, exact selection.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (GENERAL, LINEAR, QUADRATIC, BilevelProblem, FieldSection, Polytope,
                    require_finite, require_int)
from .lower_solver import (RANK_TOL, _feasible_points, _fw_run, enumerate_vertices,
                           frank_wolfe_minimize, independent_rows, vertex_lmo)
from .oracle import OracleSolution

GAP_FLOOR = 1e-12
SLOPE_UNAVAILABLE_CUT = 1e-4
CERT_SAMPLES = 1000   # points of C sampled by build_certificate
SLOPE_SAMPLES = 1000  # points of C sampled by strong_slope_lower_bound
SLOPE_SEED = 0
SLOPE_EXCLUSION = 1e-6  # radius around each located minimizer left out of the bound

EXACT_SELECTION = "exact_selection"
LINEAR_RATE = "linear_rate"
SQRT_RATE = "sqrt_rate"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Certificate:
    problem: str
    follower_level: float   # optimal follower value
    leader_level: float     # worst-case leader value at the optimum
    level_sum: float        # follower_level + leader_level
    tol: float
    membership: Callable    # x -> bool, the sum-sublevel test on C
    valid: bool
    n_samples: int
    n_counterexamples: int
    counterexamples: tuple  # first few (x, h, f, in_bounds, in_sum, in_equality)
    min_sum: float          # min over C of (h + f)(y*, .), by Frank-Wolfe
    min_sum_x: np.ndarray   # its minimizer


@dataclass(frozen=True)
class SlopeEstimate:
    slope_lower: float
    hoffman_constant: float  # 1 / slope_lower when positive, inf otherwise
    validity: str            # exact_linear | sampled | unavailable


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    classification: str
    tau: float
    n_points: int


def build_certificate(problem: BilevelProblem, oracle: OracleSolution,
                      tol=1e-6, seed=0) -> Certificate:
    """Certify the oracle solution by sampled set-description agreement.

    At each of CERT_SAMPLES points of C (drawn from seed) the three
    descriptions of the optimal set are evaluated at tolerance tol (the
    sum description at 2*tol, since it adds two bounds): h <=
    follower_level + tol and f <= leader_level + tol; h + f <= level_sum
    + 2*tol; |h - follower_level| <= tol and |f - leader_level| <= tol.
    A sample on which they disagree is a counterexample and invalidates
    the certificate: a wrong oracle value or a failed problem assumption.
    The returned membership is the same sum-sublevel test (C and h + f
    <= level_sum + 2*tol), and the oracle point must pass it.

    min_sum = min over C of h + f (by Frank-Wolfe) is at most level_sum;
    when it is lower (QB: 3 < 4), its minimizer min_sum_x lies in the sum
    description but not in the optimal set. Before any work, ValueError
    naming the argument unless tol is finite and nonnegative and seed an
    integer >= 0 (numpy integers count, bools do not).
    """
    if oracle.problem != problem.name:
        raise ValueError("oracle does not belong to this problem")
    require_finite("tol", tol)
    require_int("seed", seed, 0)
    alpha = oracle.follower_value
    beta = oracle.leader_value
    sigma = alpha + beta
    y = oracle.y
    f = problem.leader_objective
    h = problem.follower_objective
    C = problem.follower_set

    # the test keeps these three functions, not the fields and their gradients
    contains, h_at, f_at = C.contains, h.evaluate, f.evaluate

    def membership(x):
        return bool(contains(x) and h_at(y, x) + f_at(y, x) <= sigma + 2 * tol)

    rng = np.random.default_rng(seed)
    X = _feasible_points(enumerate_vertices(C), CERT_SAMPLES, rng)
    hv = h.batch(y, X)
    fv = f.batch(y, X)
    in_bounds = (hv <= alpha + tol) & (fv <= beta + tol)
    in_sum = (hv + fv) <= sigma + 2 * tol
    in_eq = (np.abs(hv - alpha) <= tol) & (np.abs(fv - beta) <= tol)
    bad = (in_bounds != in_sum) | (in_sum != in_eq)
    counterexamples = tuple(
        (X[i].copy(), float(hv[i]), float(fv[i]),  # a view would keep all of X
         bool(in_bounds[i]), bool(in_sum[i]), bool(in_eq[i]))
        for i in np.nonzero(bad)[0][:32]
    )
    valid = not bad.any() and membership(oracle.x)
    hs, fs = h.fix(y), f.fix(y)
    sum_section = FieldSection(
        value=lambda x: hs.value(x) + fs.value(x),
        grad=lambda x: hs.grad(x) + fs.grad(x),
        value_batch=lambda X: hs.value_batch(X) + fs.value_batch(X),
        structure=GENERAL if GENERAL in (h.structure, f.structure) else QUADRATIC,
        convex_in_x=h.convex_in_x and f.convex_in_x,
    )
    sum_min = frank_wolfe_minimize(sum_section, C, tol=1e-12)
    return Certificate(
        problem=problem.name, follower_level=float(alpha),
        leader_level=float(beta), level_sum=float(sigma), tol=float(tol),
        membership=membership, valid=valid, n_samples=len(X),
        n_counterexamples=int(bad.sum()), counterexamples=counterexamples,
        min_sum=sum_min.value, min_sum_x=sum_min.x,
    )


def _null_space_directions(C, rng, count):
    A = C.A[independent_rows(C.A)]
    n = C.dim
    # orthonormal basis of the null space of the equality rows
    _, s, Vt = np.linalg.svd(A)
    rank = int((s > RANK_TOL).sum())
    basis = Vt[rank:]
    if basis.shape[0] == 0:
        return np.empty((0, n))
    coeffs = rng.standard_normal((count, basis.shape[0]))
    dirs = coeffs @ basis
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs / np.maximum(norms, 1e-300)


def strong_slope_lower_bound(field, y, C: Polytope) -> SlopeEstimate:
    """Lower-bound the infimum of the gradient norm away from minimizers.

    Linear fields have a constant gradient, so the bound is exact. For
    other fields the candidate set is SLOPE_SAMPLES feasible points (drawn
    from SLOPE_SEED) plus probe points just outside the SLOPE_EXCLUSION
    ball around each located minimizer (where the infimum is typically
    attained); candidates that are themselves minimal are dropped,
    matching the convention that the slope vanishes at local minima. A
    bound below 1e-4 is reported as unavailable: no useful Hoffman
    constant follows from it.
    """
    section = field.fix(y)
    V = enumerate_vertices(C)
    if field.structure == LINEAR:
        norm = float(np.linalg.norm(section.grad(V[0])))  # round-off below 1e-12 reads 0
        return _slope_estimate(norm if norm > 1e-12 else 0.0, "exact_linear", cut=1e-12)

    rng = np.random.default_rng(SLOPE_SEED)
    samples = _feasible_points(V, SLOPE_SAMPLES, rng)

    lmo = vertex_lmo(V)
    runs = [_fw_run(section, lmo, v, 1e-10, 1000) for v in V]
    minima = np.array([r[0] for r in runs])
    best_val = min(r[1] for r in runs)

    probe_r = 2.0 * SLOPE_EXCLUSION
    probes = []
    dirs = _null_space_directions(C, rng, 16)
    for m in minima:
        for d in dirs:
            p = m + probe_r * d
            if p.min() >= -1e-12:
                probes.append(np.clip(p, 0.0, None))
    candidates = np.vstack([samples] + ([probes] if probes else []))

    # drop candidates inside the excluded ball of a located minimizer or
    # whose value says they belong to the argmin set
    keep = np.ones(len(candidates), dtype=bool)
    for m in minima:
        keep &= np.linalg.norm(candidates - m, axis=1) > SLOPE_EXCLUSION
    vals = section.value_batch(candidates)
    keep &= vals > best_val + 1e-12 * (1.0 + abs(best_val))
    candidates = candidates[keep]
    if len(candidates) == 0:
        return _slope_estimate(0.0, "sampled")
    norms = np.array([np.linalg.norm(section.grad(x)) for x in candidates])
    return _slope_estimate(float(norms.min()), "sampled")


def _slope_estimate(sigma, validity, cut=SLOPE_UNAVAILABLE_CUT):
    """Every SlopeEstimate: a bound sigma below cut is unavailable, with an
    infinite Hoffman constant; otherwise the constant is 1 / sigma."""
    if sigma < cut:
        return SlopeEstimate(slope_lower=sigma, hoffman_constant=math.inf,
                             validity="unavailable")
    return SlopeEstimate(slope_lower=sigma, hoffman_constant=1.0 / sigma, validity=validity)


def fit_rate(gaps, tau=0.15) -> RateFit:
    """Classify the decay rate of (epsilon, gap) pairs by log-log slope.

    Every epsilon must be positive and finite and every gap finite.
    Gaps at or below the 1e-12 floor (negative ones too) are treated as
    numerically zero; if none survive, the selection was exact at every
    epsilon, which is stronger than any power rate. Otherwise at least 4
    points spanning two decades of epsilon are required for a
    least-squares fit. tau, the slack on the slopes 1 and 1/2, must be
    finite and nonnegative.
    """
    require_finite("tau", tau)
    pairs = [(float(e), float(g)) for e, g in gaps]
    for k, (e, g) in enumerate(pairs):
        require_finite(f"epsilon of pair {k} ({e!r}, {g!r})", e, positive=True)
        if not math.isfinite(g):
            raise ValueError(f"gap of pair {k} ({e!r}, {g!r}) must be finite, got {g}")
    pts = [(e, g) for e, g in pairs if g > GAP_FLOOR]
    if not pts:
        return RateFit(slope=math.inf, intercept=math.nan, r_squared=1.0,
                       classification=EXACT_SELECTION, tau=tau, n_points=0)
    if len(pts) < 4:
        raise ValueError("rate fit needs at least 4 points above the gap floor")
    eps = np.array([p[0] for p in pts])
    if eps.max() / eps.min() < 100.0:
        raise ValueError("rate fit needs epsilons spanning at least two decades")
    gap = np.array([p[1] for p in pts])
    lx, ly = np.log(eps), np.log(gap)
    design = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - design @ np.array([slope, intercept])
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    if slope >= 1.0 - tau:
        cls = LINEAR_RATE
    elif slope >= 0.5 - tau:
        cls = SQRT_RATE
    else:
        cls = INCONCLUSIVE
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=r2, classification=cls, tau=tau, n_points=len(pts))
