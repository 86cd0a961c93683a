"""Multi-user sum-rate machinery: rates, the regularized-ZF family and its
far-field closed forms, weighted-MMSE precoding (one eigendecomposition of
the system matrix per iteration gives the precoder, its power test and the
exact power multiplier, which a safeguarded Newton iteration finds on Python
floats; no linear solve, bisection or scale-back), conjugate-gradient
optimization of the reflection phases on the unit-modulus manifold, and the
discrete sequential position search, which scores all feasible candidates of
an antenna in one batched evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidParameterError, MultiplierBracketError, SingularMatrixError
from .su_opt import (_MAX_OUTER, _OUTER_TOL, _TINY, _checked_columns, _grid_product,
                     _index_gap, _require_finite)

if TYPE_CHECKING:
    from .su_opt import SamplingGrid

# Newton steps of the power multiplier search before it gives up
_MAX_NEWTON = 100
# Relative sum-rate gain at which `wmmse` stops, and its cap on iterations
_WMMSE_TOL = 1e-6
_WMMSE_MAX_ITER = 200
# `manifold_cg`'s Armijo constant, step shrink and trial steps per search
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 30


def _user_rates(h_rows: np.ndarray, w: np.ndarray, noise_power: float) -> np.ndarray:
    """log2(1 + SINR) of every user for stacked cascaded rows (K, N) and W (N, K)."""
    h_rows = np.atleast_2d(np.asarray(h_rows))
    w = np.atleast_2d(np.asarray(w))
    if h_rows.shape[1] != w.shape[0]:
        raise InvalidParameterError("precoder row count does not match antenna count")
    # per-row (1, N) @ (N, K) products, stacked: (K, N) @ (N, K) rounds
    # differently, and test_sum_rate_is_sum_of_user_rates pins these bits
    gains = np.abs((h_rows[:, None, :] @ w)[:, 0, :]) ** 2
    signal = gains.diagonal()
    interference = np.add.reduce(gains, 1) - signal
    return np.log2(1 + signal / (interference + noise_power))


def sum_rate(h_rows: np.ndarray, w: np.ndarray, noise_power: float) -> float:
    """Sum over users of `_user_rates`, in user order."""
    return float(sum(_user_rates(h_rows, w, noise_power).tolist()))


def rzf(h_rows: np.ndarray, reg: float, powers) -> np.ndarray:
    """Regularized-ZF precoding matrix (N, K); columns carry power p_k.

    reg = 0 is ZF (requires invertible Gram), reg = noise power is MMSE, and
    reg -> infinity approaches the matched-filter direction.
    """
    h_rows = np.atleast_2d(np.asarray(h_rows))
    powers = np.asarray(powers, dtype=float)
    if reg < 0:
        raise InvalidParameterError("regularizer must be >= 0")
    gram = h_rows @ h_rows.conj().T
    a = gram + reg * np.eye(h_rows.shape[0])
    if reg == 0 and np.linalg.cond(gram) > 1e12:
        raise SingularMatrixError("channel Gram matrix is singular; ZF undefined")
    directions = h_rows.conj().T @ np.linalg.inv(a)
    norms = np.linalg.norm(directions, axis=0)
    if np.any(norms == 0):
        raise SingularMatrixError("zero precoding direction")
    return directions / norms * np.sqrt(powers)


def rzf_rate_far_field(q, powers, num_mas: int, noise_power: float) -> np.ndarray:
    """Per-user rates under rank-1 far-field cascades q_k v^H; independent of
    the antenna positions."""
    q = np.asarray(q)
    powers = np.asarray(powers, dtype=float)
    qsq = np.abs(q) ** 2
    other = np.sum(powers) - powers
    return np.log2(1 + num_mas * powers * qsq / (num_mas * qsq * other + noise_power))


def _wmmse_weights(hw, noise_power):
    """MMSE receivers chi, weights kappa = 1 / MSE = 1 + SINR and the sum
    rate sum_k log2(kappa_k) of the links hw[k, i] = h_k^H w_i."""
    gains = hw.real ** 2 + hw.imag ** 2
    total = np.add.reduce(gains, 1) + noise_power
    signal = gains.diagonal()
    kappa = 1.0 + signal / (total - signal)
    return hw.diagonal() / total, kappa, float(np.add.reduce(np.log2(kappa)))


def _wmmse_system(h_rows, chi, kappa):
    """A0 = H^H diag(|chi|^2 kappa) H and rhs = H^H diag(chi kappa): the
    precoder for multiplier mu solves (A0 + mu I) W = rhs."""
    h_herm = h_rows.conj().T
    return (h_herm * (np.abs(chi) ** 2 * kappa)) @ h_rows, h_herm * (chi * kappa)


def _wmmse_precoder(u, proj, inv):
    """U diag(inv) U^H rhs for A0 = U diag(lam) U^H and proj = U^H rhs: the
    precoder (A0 + mu I)^-1 rhs when inv = 1 / (lam + mu)."""
    return u @ (proj * inv[:, None])


def _power_multiplier(lam, b, power):
    """The multiplier mu > 0 at which the precoder power p(mu) = sum_j b_j /
    (lam_j + mu)^2 meets `power` to 1e-12 relative; the caller has checked
    that the precoder at mu = 0 exceeds it.

    p is convex and decreasing, so Newton's method started at the lower
    bound max_j sqrt(b_j / power) - lam_j (no single term may exceed the
    power) climbs to the root. A step that leaves the bracket [lo, hi]
    bisects it instead; p(hi) <= power at hi = sqrt(sum_j b_j / power), as
    no lam_j is negative. The sums run on Python floats.
    """
    terms = [(lam_j, b_j) for lam_j, b_j in zip(lam.tolist(), b.tolist()) if b_j > 0]
    mu = lo = max([0.0] + [math.sqrt(b_j / power) - lam_j for lam_j, b_j in terms])
    if lo > 2.0 ** 200:  # far beyond the multiplier of any physical channel
        raise MultiplierBracketError(
            f"precoder power exceeds {power:.3g} for every multiplier up to {lo:.3g}")
    hi = math.sqrt(sum(b_j for _, b_j in terms) / power)
    for _ in range(_MAX_NEWTON):
        p = slope = 0.0
        for lam_j, b_j in terms:
            inv = 1.0 / (lam_j + mu)
            term = b_j * inv * inv
            p += term
            slope += term * inv  # -p'(mu) / 2
        if abs(p - power) <= 1e-12 * power:
            return mu
        lo, hi = (mu, hi) if p > power else (lo, mu)
        mu += (p - power) / (2.0 * slope)
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi)
    raise MultiplierBracketError(
        f"no multiplier meets the power {power:.3g} after {_MAX_NEWTON} steps")


def wmmse(h_rows: np.ndarray, w_init: np.ndarray, power: float,
          noise_power: float) -> tuple[np.ndarray, list[float]]:
    """Weighted-MMSE precoding via alternating closed-form updates.

    Each iteration takes one eigendecomposition A0 = U diag(lam) U^H of the
    system matrix and builds the precoder in that basis. At multiplier 0 it
    is the minimum-norm precoder, which inverts only the eigenvalues above
    1e-15 lam_max, as np.linalg.pinv does. If that exceeds the power budget,
    a safeguarded Newton iteration finds the exact multiplier, and the
    precoder meets the budget up to rounding. Each iterate's rate comes from
    the links that the next iteration's receivers are built from. Returns
    the final W and the sum-rate trace, which is non-decreasing.
    """
    h_rows = np.atleast_2d(np.asarray(h_rows))
    _require_finite(h_rows=h_rows)
    if not (power > 0 and noise_power > 0):
        raise InvalidParameterError("power and noise_power must be > 0")
    w = np.asarray(w_init, dtype=complex).copy()
    chi, kappa, rate = _wmmse_weights(h_rows @ w, noise_power)
    trace = [rate]
    for _ in range(_WMMSE_MAX_ITER):
        a0, rhs = _wmmse_system(h_rows, chi, kappa)
        lam, u = np.linalg.eigh(a0)
        lam = np.maximum(lam, 0.0)  # a0 is positive semidefinite; clip rounding below zero
        proj = u.conj().T @ rhs
        b = np.add.reduce(proj.real ** 2 + proj.imag ** 2, 1)
        # a0 can be rank-deficient (K < N, or a user weight driven to zero)
        inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 1e-15 * lam[-1])
        if np.add.reduce(b * inv * inv) > power * (1 + 1e-9):
            inv = 1.0 / (lam + _power_multiplier(lam, b, power))
        w_new = _wmmse_precoder(u, proj, inv)
        chi_new, kappa_new, rate = _wmmse_weights(h_rows @ w_new, noise_power)
        if rate < trace[-1]:
            # rounding at the fixed point; keep the monotone iterate
            break
        w, chi, kappa = w_new, chi_new, kappa_new
        trace.append(rate)
        if trace[-1] - trace[-2] <= _WMMSE_TOL * max(abs(trace[-2]), _TINY):
            break
    return w, trace


# ---------------------------------------------------------------------------
# Reflection optimization on the unit-modulus manifold


def interaction_vectors(h_iu: np.ndarray, h_bi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """r[k, i, :] = diag(h_iu_k^H) H w_i, the per-element cascade of precoder i
    seen by user k."""
    h_iu = np.atleast_2d(np.asarray(h_iu))
    hw = np.asarray(h_bi) @ np.asarray(w)  # (M, K)
    # C order, so that the objective and gradient reshape it without a copy
    return h_iu.conj()[:, None, :] * np.ascontiguousarray(hw.T)[None, :, :]


def neg_sum_rate(phi: np.ndarray, r: np.ndarray, noise_power: float) -> float:
    """Objective minimized on the manifold: negative sum rate in nats.

    The effective link of precoder i at user k is sum_m phi_m r[k,i,m], which
    matches the cascade h_iu^H diag(phi) H w exactly; the links z[k, i] are
    one (K*K, M) @ (M,) product.
    """
    k = r.shape[0]
    p = np.abs((r.reshape(k * k, -1) @ phi).reshape(k, k)) ** 2
    total = np.add.reduce(p, 1) + noise_power
    interf = total - p.diagonal()
    return -float(np.add.reduce(np.log(total) - np.log(interf)))


def euclidean_grad_f2(phi: np.ndarray, r: np.ndarray, noise_power: float) -> np.ndarray:
    """Euclidean (Wirtinger, x2 convention) gradient of `neg_sum_rate`.

    With this scaling the directional derivative along a perturbation d is
    Re{d^H grad}, which is what the finite-difference tests check.
    """
    k = r.shape[0]
    z = (r.reshape(k * k, -1) @ phi).reshape(k, k)
    p = np.abs(z) ** 2
    total = np.add.reduce(p, 1) + noise_power
    interf = total - p.diagonal()
    # d|phi^T r|^2 / d phi* = conj(r) (r^T phi) = conj(r) * z, so the gradient
    # is -2 sum_{k,i} c[k,i] conj(r[k,i]) with c = z (1/total_k - [i!=k]/interf_k)
    inv_total = 1.0 / total
    c = z * (inv_total - 1.0 / interf)[:, None]
    c.ravel()[::k + 1] = z.diagonal() * inv_total
    return -2.0 * (c.conj().ravel() @ r.reshape(k * k, -1)).conj()


def riemannian_project(grad: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the tangent space at phi; the same formula
    carries a tangent vector there, so it is also the vector transport."""
    return grad - (grad * phi.conj()).real * phi


def _retract_step(phi, step, eta):
    """phi + step * eta normalized entrywise onto the unit-modulus set."""
    v = phi + step * eta
    mags = np.abs(v)
    if np.count_nonzero(mags) < mags.size:
        zero = mags == 0
        # measure-zero event: keep the previous phase for the dead entries
        v = np.where(zero, phi, v)
        mags[zero] = 1.0
    return np.divide(v, mags, out=v)


def _norm(v):
    """np.linalg.norm's formula for a complex vector, without its dispatch."""
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


@dataclass
class ManifoldTrace:
    """Objective and gradient norm after each accepted step, and why the
    solver stopped: "tol" (gradient norm at most `grad_tol`), "max_iter" or
    "line_search" (no trial step met the Armijo condition)."""

    objective: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    exit: str = ""


def manifold_cg(h_iu, h_bi, w, phi_init, noise_power: float, *, grad_tol: float = 1e-6,
                max_iter: int = 500) -> tuple[np.ndarray, ManifoldTrace]:
    """Polak-Ribiere conjugate gradient on the unit-modulus manifold with an
    Armijo line search. The objective (negative sum rate) never increases on
    accepted steps.

    The first search starts at step 1; each later one at the Barzilai-Borwein
    length (s.s)/(s.y) of the last accepted step s and gradient change y, both
    transported to the new point, rescaled from the gradient to the new
    search direction (twice the last step when s.y <= 0)."""
    _require_finite(h_iu=h_iu, h_bi=h_bi, w=w, phi_init=phi_init)
    phi = np.asarray(phi_init, dtype=complex)
    if not phi.all():
        raise InvalidParameterError("phi_init has a zero entry, which has no phase")
    phi = phi / np.abs(phi)
    r = interaction_vectors(h_iu, h_bi, w)

    f = neg_sum_rate(phi, r, noise_power)
    grad = riemannian_project(euclidean_grad_f2(phi, r, noise_power), phi)
    eta = -grad
    gnorm = _norm(grad)
    trace = ManifoldTrace([f], [gnorm])
    step = 1.0

    for _ in range(max_iter):
        if gnorm <= grad_tol:
            break
        slope = np.vdot(grad, eta).real
        if slope >= 0:  # not a descent direction: restart
            eta = -grad
            slope = -gnorm ** 2
        for _ in range(_MAX_BACKTRACKS):
            cand = _retract_step(phi, step, eta)
            f_cand = neg_sum_rate(cand, r, noise_power)
            if f_cand <= f + _ARMIJO_C * step * slope:
                break
            step *= _BACKTRACK
        else:
            trace.exit = "line_search"
            return phi, trace
        # riemannian_project at the new point, inlined to share one conj
        cand_conj = cand.conj()
        grad_new = euclidean_grad_f2(cand, r, noise_power)
        grad_new -= (grad_new * cand_conj).real * cand
        eta_prev = eta - (eta * cand_conj).real * cand
        y = grad_new - (grad - (grad * cand_conj).real * cand)
        tau = max(0.0, np.vdot(grad_new, y).real / max(gnorm ** 2, _TINY))
        eta = tau * eta_prev - grad_new
        phi, grad, f = cand, grad_new, f_cand
        gnorm = _norm(grad)
        trace.objective.append(f)
        trace.grad_norm.append(gnorm)
        s_vec = step * eta_prev
        sy = np.vdot(s_vec, y).real
        if sy > 0:
            step = np.vdot(s_vec, s_vec).real / sy * gnorm / max(_norm(eta), _TINY)
        else:
            step *= 2.0
    trace.exit = "tol" if gnorm <= grad_tol else "max_iter"
    return phi, trace


# ---------------------------------------------------------------------------
# Discrete position search and the outer alternating loop


def sequential_position_search(cascade_table: np.ndarray, w: np.ndarray,
                               min_gap: int, init_indices,
                               noise_power: float) -> list[int]:
    """One sweep of one-at-a-time grid search of the antenna positions.

    `cascade_table` is (K, L): the cascaded channel seen by each user from an
    antenna at each grid point (for the current reflection). Each antenna in
    turn is moved to the grid index at least `min_gap` from every other
    antenna's index that maximizes the sum rate (the lowest index among
    ties); an empty feasible set keeps the current position. The sum rate
    never decreases.
    """
    cascade_table = np.atleast_2d(np.asarray(cascade_table))
    w = np.atleast_2d(np.asarray(w))
    indices = list(init_indices)
    num_mas = len(indices)
    for n in range(num_mas):
        keep = np.arange(num_mas) != n
        others = np.asarray(indices)[keep]
        blocked = np.zeros(cascade_table.shape[1], dtype=bool)
        for o in others.tolist():  # the indices closer than min_gap to o
            blocked[max(o - min_gap + 1, 0):o + min_gap] = True
        feasible = np.flatnonzero(~blocked)
        if len(feasible) == 0:
            continue
        # links[c, k, i] = h_k^H w_i with antenna n at candidate c: the
        # other antennas' part plus antenna n's; rates as in `_user_rates`
        base = cascade_table[:, others] @ w[keep]  # (K, K)
        links = base[None] + cascade_table[:, feasible].T[:, :, None] * w[n]
        gains = np.abs(links) ** 2
        signal = np.diagonal(gains, axis1=1, axis2=2)
        interference = np.add.reduce(gains, 2) - signal
        rates = np.add.reduce(np.log2(1 + signal / (interference + noise_power)), 1)
        indices[n] = int(feasible[np.argmax(rates)])
    return indices


@dataclass
class MuSolution:
    """Outcome of the multi-user alternating loop."""

    w: np.ndarray
    phi: np.ndarray
    positions: np.ndarray
    indices: list[int]
    rate: float  # the sum rate, bits/s/Hz
    trace: list[float]
    iterations: int


def ao_multi_user(h_iu, grid_columns, grid: SamplingGrid, phi_init, init_indices,
                  power: float, noise_power: float, *, min_spacing: float,
                  w_init=None, optimize_phi: bool = True,
                  optimize_positions: bool = True) -> MuSolution:
    """Alternate precoding (WMMSE), reflection (manifold CG) and positions (sequential
    grid search); the sum-rate trace is non-decreasing. `grid_columns` (M, L) holds the
    channel column of every grid point; `harness.cell_context` checks it and `h_iu` to be
    finite. Positions keep the index gap `grid.min_gap`, which must be at least the gap
    that `min_spacing` needs on this grid."""
    if grid.min_gap < _index_gap(min_spacing, grid.spacing):
        raise InvalidParameterError(
            f"grid index gap {grid.min_gap} is below the gap that "
            f"min_spacing {min_spacing:.4g} m needs on this grid")
    _require_finite(phi_init=phi_init, w_init=w_init)
    h_iu = np.atleast_2d(np.asarray(h_iu))
    phi = np.asarray(phi_init, dtype=complex).copy()
    indices = list(init_indices)
    grid_columns = _checked_columns(grid_columns, grid)

    def cascades(phi_cur):
        return _grid_product(h_iu.conj() * phi_cur, grid_columns)  # (K, L)

    table = cascades(phi)
    if w_init is None:
        h = table[:, indices]
        dirs = h.conj().T
        norms = np.linalg.norm(dirs, axis=0)
        norms[norms == 0] = 1.0
        w = dirs / norms * np.sqrt(power / h_iu.shape[0])
    else:
        w = np.asarray(w_init, dtype=complex).copy()

    trace = [sum_rate(table[:, indices], w, noise_power)]
    for _ in range(_MAX_OUTER):
        h = table[:, indices]
        w, _ = wmmse(h, w, power, noise_power)
        if optimize_phi:
            phi, _ = manifold_cg(h_iu, grid_columns[:, indices], w, phi,
                                 noise_power)
            table = cascades(phi)
        if optimize_positions:
            indices = sequential_position_search(table, w, grid.min_gap,
                                                 indices, noise_power)
        rate = sum_rate(table[:, indices], w, noise_power)
        trace.append(rate)
        if abs(trace[-1] - trace[-2]) <= _OUTER_TOL * max(abs(trace[-2]), _TINY):
            break
    return MuSolution(w=w, phi=phi, positions=grid.points[indices], indices=indices,
                      rate=trace[-1], trace=trace, iterations=len(trace) - 1)
