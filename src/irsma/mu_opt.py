"""Multi-user sum-rate machinery: rates, the regularized-ZF family and its
far-field closed forms, weighted-MMSE precoding (one eigendecomposition of
the system matrix per iteration gives both the power test of the
unconstrained precoder and the multiplier bisection, which runs on Python
floats), conjugate-gradient optimization of the reflection phases on the
unit-modulus manifold, and the discrete sequential position search, which
scores all feasible candidates of an antenna in one batched evaluation."""

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

# Doublings of the multiplier bracket's upper end (starting at 1) before the
# search gives up; 2**200 is far beyond any multiplier of a physical channel.
_MAX_DOUBLINGS = 200
# Armijo sufficient-decrease constant and step shrink of `manifold_cg`
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5


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


def mrt_rate_no_irs(path_gains, responses, powers, noise_power: float) -> np.ndarray:
    """Per-user matched-filter rates for direct far-field LoS channels.

    `responses` is (N, K) with per-user unit-modulus columns; the correlation
    |v_k^H v_i|^2 / N^2 couples users, so these rates do depend on positions.
    """
    gains = np.abs(np.asarray(path_gains)) ** 2
    v = np.atleast_2d(np.asarray(responses))
    powers = np.asarray(powers, dtype=float)
    # (K, K): p_i |v_k^H v_i|^2 / N^2, the power user k receives from user i's beam
    received = np.abs(v.conj().T @ v) ** 2 / v.shape[0] ** 2 * powers
    interference = np.sum(received, axis=1) - np.diagonal(received)
    return np.log2(1 + powers * gains / (gains * interference + noise_power))


def _wmmse_system(h_rows, chi, kappa):
    """A0 = H^H diag(|chi|^2 kappa) H and rhs = H^H diag(chi kappa): the
    precoder for multiplier mu solves (A0 + mu I) W = rhs."""
    h_herm = h_rows.conj().T
    return (h_herm * (np.abs(chi) ** 2 * kappa)) @ h_rows, h_herm * (chi * kappa)


def _wmmse_precoder(a0, rhs, mu):
    """The precoder (A0 + mu I)^-1 rhs for the system of `_wmmse_system`."""
    a = mu * np.eye(a0.shape[0], dtype=complex)
    a += a0
    if mu == 0:
        # a can be rank-deficient (K < N, or a user weight driven to zero);
        # the system stays consistent, so take the minimum-norm solution
        return np.linalg.pinv(a, hermitian=True) @ rhs
    return np.linalg.solve(a, rhs)


def _power_profile(a0, rhs):
    """Eigenvalues lam and weights b with ||_wmmse_precoder(mu)||_F^2 =
    sum_j b_j / (lam_j + mu)^2 for every mu > 0.

    The precoder is (A0 + mu I)^-1 rhs with A0 = U diag(lam) U^H, so its
    squared norm splits over the eigenvectors: b_j = ||(U^H rhs)_j||^2.
    """
    lam, u = np.linalg.eigh(a0)
    proj = u.conj().T @ rhs
    # a0 is positive semidefinite; clip rounding below zero
    return np.maximum(lam, 0.0), np.add.reduce(proj.real ** 2 + proj.imag ** 2, 1)


def _pinv_power(lam, b):
    """||_wmmse_precoder(0)||_F^2 from the profile (lam ascending, as eigh
    returns it): the minimum-norm precoder inverts only the eigenvalues that
    np.linalg.pinv keeps, those above 1e-15 lam_max."""
    kept = lam > 1e-15 * lam[-1]
    return float(np.add.reduce(b[kept] / lam[kept] ** 2))


def _power_multiplier(lam, b, power):
    """Bisection for the multiplier mu > 0 at which the precoder power
    sum_j b_j / (lam_j + mu)^2 meets `power`; the caller has checked that
    mu = 0 exceeds it.

    The power is a sequential sum on Python floats. For up to 7 eigenvalues
    that is bit for bit numpy's sum; from 8 on numpy sums pairwise, so mu
    may differ from a numpy evaluation in its last bit while still meeting
    the 1e-6 tolerance.
    """
    terms = list(zip(lam.tolist(), b.tolist()))

    def total_power(mu):
        total = 0.0
        for lam_j, b_j in terms:
            d = lam_j + mu
            total += b_j / (d * d)
        return total

    hi = 1.0
    for _ in range(_MAX_DOUBLINGS):
        if total_power(hi) <= power:
            break
        hi *= 2.0
    else:
        raise MultiplierBracketError(
            f"precoder power exceeds {power:.3g} for every multiplier up to {hi / 2:.3g}")
    lo = 0.0
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        p = total_power(mu)
        if abs(p - power) <= 1e-6 * power:
            return mu
        if p > power:
            lo = mu
        else:
            hi = mu
    return hi


def wmmse(h_rows: np.ndarray, w_init: np.ndarray, power: float, noise_power: float,
          tol: float = 1e-6, max_iter: int = 200) -> tuple[np.ndarray, list[float]]:
    """Weighted-MMSE precoding via alternating closed-form updates.

    Each iteration takes one eigendecomposition of the system matrix. It
    tells whether the minimum-norm precoder at multiplier 0 already meets the
    power budget; if not, it turns the power into a scalar function of the
    multiplier, which is bisected. The precoder is then solved once for the
    chosen multiplier, and scaled down to the budget if the solve overshoots
    it by more than 1e-6. Returns the final W and the sum-rate trace, which
    is non-decreasing.
    """
    h_rows = np.atleast_2d(np.asarray(h_rows))
    if not np.all(np.isfinite(h_rows)):
        raise InvalidParameterError("non-finite channel entries")
    if not (power > 0 and noise_power > 0):
        raise InvalidParameterError("power and noise_power must be > 0")
    w = np.asarray(w_init, dtype=complex).copy()
    trace = [sum_rate(h_rows, w, noise_power)]
    for _ in range(max_iter):
        hw = h_rows @ w  # (K, K): hw[k, i] = h_k^H w_i
        own = hw.diagonal()
        chi = own / (np.add.reduce(np.abs(hw) ** 2, 1) + noise_power)
        kappa = 1.0 / (1.0 - chi.conj() * own).real

        a0, rhs = _wmmse_system(h_rows, chi, kappa)
        lam, b = _power_profile(a0, rhs)
        mu = 0.0
        if _pinv_power(lam, b) > power * (1 + 1e-9):
            mu = _power_multiplier(lam, b, power)
        w_new = _wmmse_precoder(a0, rhs, mu)
        excess = np.vdot(w_new, w_new).real / power
        if excess > 1 + 1e-6:
            # an ill-conditioned solve can miss the power the eigenvalues give
            w_new /= math.sqrt(excess)
        rate = sum_rate(h_rows, w_new, noise_power)
        if rate < trace[-1]:
            # finite bisection tolerance at the fixed point; keep the monotone iterate
            break
        w = w_new
        trace.append(rate)
        if trace[-1] - trace[-2] <= tol * max(abs(trace[-2]), _TINY):
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


def manifold_cg(h_iu, h_bi, w, phi_init, noise_power: float, *,
                grad_tol: float = 1e-6, max_iter: int = 500,
                max_backtracks: int = 30) -> tuple[np.ndarray, ManifoldTrace]:
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
        for _ in range(max_backtracks):
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
    candidates = np.arange(cascade_table.shape[1])
    for n in range(num_mas):
        keep = np.arange(num_mas) != n
        others = np.asarray(indices)[keep]
        feasible = candidates[np.all(
            np.abs(candidates[:, None] - others[None, :]) >= min_gap, axis=1)]
        if len(feasible) == 0:
            continue
        # links[c, k, i] = h_k^H w_i with antenna n at candidate c: the
        # other antennas' part plus antenna n's; rates as in `_user_rates`
        base = cascade_table[:, others] @ w[keep]  # (K, K)
        links = base[None] + cascade_table[:, feasible].T[:, :, None] * w[n]
        gains = np.abs(links) ** 2
        signal = np.diagonal(gains, axis1=1, axis2=2)
        interference = np.sum(gains, axis=2) - signal
        rates = np.sum(np.log2(1 + signal / (interference + noise_power)), axis=1)
        indices[n] = int(feasible[np.argmax(rates)])
    return indices


@dataclass
class MuSolution:
    """Outcome of the multi-user alternating loop."""

    w: np.ndarray
    phi: np.ndarray
    positions: np.ndarray
    indices: list[int]
    sum_rate: float
    trace: list[float] = field(default_factory=list)
    iterations: int = 0


def ao_multi_user(h_iu, grid_columns, grid: SamplingGrid, phi_init, init_indices,
                  power: float, noise_power: float, *, min_spacing: float,
                  w_init=None, optimize_phi: bool = True,
                  optimize_positions: bool = True) -> MuSolution:
    """Alternate precoding (WMMSE), reflection (manifold CG) and positions
    (sequential grid search); the sum-rate trace is non-decreasing.
    `grid_columns` (M, L) holds the channel column of every grid point.
    Positions keep the index gap `grid.min_gap`, which must be at least the
    gap that `min_spacing` needs on this grid."""
    if grid.min_gap < _index_gap(min_spacing, grid.spacing):
        raise InvalidParameterError(
            f"grid index gap {grid.min_gap} is below the gap that "
            f"min_spacing {min_spacing:.4g} m needs on this grid")
    _require_finite(h_iu=h_iu, grid_columns=grid_columns, phi_init=phi_init)
    if w_init is not None:
        _require_finite(w_init=w_init)
    h_iu = np.atleast_2d(np.asarray(h_iu))
    num_users = h_iu.shape[0]
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
        w = dirs / norms * np.sqrt(power / num_users)
    else:
        w = np.asarray(w_init, dtype=complex).copy()

    trace = [sum_rate(table[:, indices], w, noise_power)]
    iterations = 0
    for _ in range(_MAX_OUTER):
        iterations += 1
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
                      sum_rate=trace[-1], trace=trace, iterations=iterations)
