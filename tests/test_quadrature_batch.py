"""The batched interval quadrature against the one-interval-at-a-time driver it replaced.

``reference_integrate`` is that driver, kept here as the oracle: one panel
sum per level of one piece, the two pieces of a straddling interval in turn,
and ``converge``'s per-bin loop over it.  Values, error estimates and
evaluation counts must match bit for bit, as must the error and partial
result of a run that fails.
"""

import math

import numpy as np
import pytest

from wojcikwalk import (
    EXAMPLE_CASE_IDS,
    SUPPORT_RADIUS,
    QuadratureConvergenceError,
    QuadratureResult,
    WalkParams,
    ac_density,
    fixture,
    integrate_ac,
    quadrature,
    weight_coefficients,
)

S = SUPPORT_RADIUS
_NODES, _WEIGHTS, _ORDER = quadrature._NODES, quadrature._WEIGHTS, quadrature._PANEL_ORDER


def _panel_sum(g, lo, hi, n):
    h = (hi - lo) / n
    starts = lo + h * np.arange(n)
    mids = starts + 0.5 * h
    pts = (mids[:, None] + (0.5 * h) * _NODES[None, :]).ravel()
    vals = np.reshape(g(pts), (n, _ORDER))
    return 0.5 * h * float((vals @ _WEIGHTS).sum())


def _refine_piece(g, lo, hi, tol, budget):
    n = 2
    value = _panel_sum(g, lo, hi, n)
    used = n * _ORDER
    est = math.inf
    while True:
        n *= 2
        cost = n * _ORDER
        if used + cost > budget:
            return value, est, used, False
        nxt = _panel_sum(g, lo, hi, n)
        used += cost
        est = abs(nxt - value)
        value = nxt
        if est <= tol:
            return value, est, used, True


def reference_integrate(density, tol, lo=-S, hi=S):
    """``integrate_ac`` as one scalar driver per interval, without its validation."""

    def transformed(u):
        return density(S * np.sin(u)) * S * np.cos(u)

    u_lo = math.asin(max(-1.0, min(1.0, lo / S)))
    u_hi = math.asin(max(-1.0, min(1.0, hi / S)))
    pieces = [(u_lo, 0.0), (0.0, u_hi)] if u_lo < 0.0 < u_hi else [(u_lo, u_hi)]
    total, total_err, total_used = 0.0, 0.0, 0
    budget = quadrature._BUDGET
    for p_lo, p_hi in pieces:
        value, est, used, converged = _refine_piece(
            transformed, p_lo, p_hi, tol / len(pieces), budget - total_used
        )
        total += value
        total_err += est
        total_used += used
        if not converged:
            raise QuadratureConvergenceError(
                f"no convergence to tol={tol:g} within {budget} evaluations (best estimate {total_err:g})",
                QuadratureResult(total, total_err, total_used),
            )
    return QuadratureResult(total, total_err, total_used)


def bits(results):
    """value, est_error and evaluations of each result, as exact integers."""
    values = np.array([[r.value, r.est_error] for r in results], dtype=np.float64)
    return values.view(np.uint64).tolist(), [r.evaluations for r in results]


def outcome(run):
    """Bits of the results of ``run()``, or the message and partial result it raised."""
    try:
        return "ok", bits(run())
    except QuadratureConvergenceError as exc:
        return str(exc), bits([exc.partial])


def batch_results(density, tol, lo, hi):
    value, est, used = quadrature._integrate_intervals(density, tol, lo, hi)
    return [QuadratureResult(*r) for r in zip(value.tolist(), est.tolist(), used.tolist())]


def random_params(n, seed):
    rng = np.random.default_rng(seed)
    params = []
    for _ in range(n):
        theta = rng.uniform(0.0, math.pi / 2.0)
        phi1, phi2 = rng.uniform(-3.0, 3.0, 2)
        phi = float(rng.uniform(0.01, 0.99))
        params.append(WalkParams(phi, math.cos(theta), math.sin(theta), float(phi1), float(phi2)))
    return params


CONFIGS = [fixture(case).params for case in EXAMPLE_CASE_IDS] + random_params(30, seed=1616)
CHUNKED_BINS = quadrature._MAX_PANELS // 2 + 5  # one density call more than fits at the first level


def check_batch(params, bins, tol, monkeypatch):
    coeffs = weight_coefficients(params)
    density = lambda x: ac_density(x, coeffs)
    edges = np.linspace(-S, S, bins + 1).tolist()
    lo, hi = edges[:-1], edges[1:]  # every bin, so an odd count has one straddling x = 0
    want = outcome(lambda: [reference_integrate(density, tol, a, b) for a, b in zip(lo, hi)])
    assert outcome(lambda: batch_results(density, tol, lo, hi)) == want
    # the same bits when every level is cut into many density calls
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 24)
    assert outcome(lambda: batch_results(density, tol, lo, hi)) == want
    monkeypatch.undo()
    # scalar calls: the full support and a straddling interval are batches of one
    for a, b in ((-S, S), (-0.31, 0.47), (0.2, S)):
        want = outcome(lambda: [reference_integrate(density, tol, a, b)])
        assert outcome(lambda: [integrate_ac(density, tol, lo=a, hi=b)]) == want, (a, b)


@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_batch_matches_per_interval_driver(index, monkeypatch):
    bins = (71, 1000)[index // 2 % 2]
    tol = (1e-9, 1e-12)[index % 2]
    check_batch(CONFIGS[index], bins, tol, monkeypatch)


@pytest.mark.parametrize("index, tol", [(2, 1e-9), (7, 1e-12)])
def test_batch_matches_per_interval_driver_past_one_chunk(index, tol, monkeypatch):
    check_batch(CONFIGS[index], CHUNKED_BINS, tol, monkeypatch)


def test_batch_matches_per_interval_driver_when_an_edge_bin_fails(monkeypatch):
    # the last of these 2909 bins stalls on rounding noise at tol 1e-12
    params = WalkParams(
        0.9270498733750353, 0.6466648611865446, 0.7627742505529319, 1.0833149906934698, 5.30434136517882
    )
    check_batch(params, 2909, 1e-12, monkeypatch)


def test_batch_failure_is_the_first_failing_interval(monkeypatch):
    # square-root kinks need more than 600 evaluations at tol 1e-12; each
    # case below fails in another place: the second half of a straddling
    # interval, its first half, a plain interval after a converged one
    monkeypatch.setattr(quadrature, "_BUDGET", 600)
    cases = [
        (0.1, [(-0.6, -0.4), (-0.2, 0.3), (-0.5, 0.15)]),
        (-0.1, [(-0.6, -0.4), (-0.2, 0.3), (0.05, 0.1)]),
        (0.55, [(-0.6, -0.4), (0.1, 0.2), (0.5, 0.6), (-0.3, 0.6)]),
    ]
    for kink, intervals in cases:
        density = lambda x: np.sqrt(np.abs(x - kink))
        lo, hi = [a for a, _ in intervals], [b for _, b in intervals]
        want = outcome(lambda: [reference_integrate(density, 1e-12, a, b) for a, b in intervals])
        assert want[0] != "ok"
        assert outcome(lambda: batch_results(density, 1e-12, lo, hi)) == want, kink
