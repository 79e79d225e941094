"""Acceptance suite: each test prints one pass/fail line for its criterion.

Criterion 5 covers the self-similar gap d2(h_eps, h) between the rescaled
kinetic and heat solutions.  5a checks the proven bound over the sweep.  The
paper's rate (exponent -1/2, linear in eps) is an upper limit, so 5b and 5c
check it one-sided, and pin the achieved (1+t)^-1, eps^2 behaviour two-sided
against ``selfsim_gap_oracle`` (conftest), a dense closed-form evaluation
that shares no code with the package (README, "Criterion 5").
"""

import math

import numpy as np

from rosenau import (
    GridSpec,
    SweepPoint,
    appendix_report,
    b_epsilon,
    bernoulli_kernel,
    d2_bound_check,
    d3_bound_check,
    delta_field,
    exact_decay_check,
    gaussian_initial,
    inverse_transform,
    kernel_by_name,
    mixture_initial,
    moment,
    rate_fit,
    regularized_propagator,
    rosenau_kernel,
    rosenau_propagate,
    singular_split,
    truncation_order,
    wild_partial_sum,
)
from rosenau.metrics import CONVEX_FUNCTIONALS, convex_functional
from rosenau.spectral import regularized_solution

from conftest import selfsim_gap_oracle

GRID = GridSpec(length=160.0, points=4096)
WIDE = GridSpec(length=600.0, points=8192)
SWEEP_EPS = (0.5, 0.2, 0.1, 0.05)
SWEEP_T = (0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0)
FIT_TIMES = tuple(np.geomspace(1.0, 100.0, 13))
FIT_WINDOW = (5.0, 100.0)
# stationary-phase constant c of the large-t gap eps^2 sigma^2 c / (e (1+t));
# the criterion-5 kernels have sigma = 1
LEADING_ORDER = {"central-diff": 1.0 / 12.0, "rosenau": 1.0}


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {tag} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def make_kernel(family, eps, sigma=1.0):
    return bernoulli_kernel(eps, sigma) if family == "central-diff" else rosenau_kernel(eps, sigma)


def d2_gap(family, eps, t, g0):
    kernel = make_kernel(family, eps)
    return SweepPoint(kernel, g0, kernel.sigma_sq, t).d2_gap.value


class TestCriterion01RepresentationEquivalence:
    def test_wild_sum_matches_fourier_propagator(self):
        g0 = gaussian_initial(GRID, 1.0)
        worst = 0.0
        for family in ("rosenau", "central-diff"):
            for eps in (0.5, 0.1):
                kernel = make_kernel(family, eps)
                for t in (0.1, 1.0, 10.0):
                    mu = kernel.lam * t / kernel.epsilon**2
                    n_star = truncation_order(mu, 1e-12)
                    part = wild_partial_sum(g0, kernel, t, n_star)
                    prop = rosenau_propagate(g0, kernel, t)
                    worst = max(worst, float(np.max(np.abs(part.values - prop.values))))
        report(1, worst <= 1e-10,
               f"wild sum vs propagator sup gap {worst:.2e} (tolerance 1e-10)")


class TestCriterion02ConservationTransport:
    def test_mass_and_second_moment(self):
        g0 = gaussian_initial(GRID, 1.0)
        times = [0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        worst_mass, worst_m2 = 0.0, 0.0
        for family in ("rosenau", "central-diff"):
            kernel = make_kernel(family, 0.1)
            slope = 2.0 * kernel.sigma**2  # lam/eps^2 times the variance eps^2 2 sigma^2 / lam
            m2_0 = moment(inverse_transform(g0), 2)
            for t in times:
                d = inverse_transform(rosenau_propagate(g0, kernel, t))
                worst_mass = max(worst_mass, abs(moment(d, 0) - 1.0))
                expect = m2_0 + slope * t
                worst_m2 = max(worst_m2, abs(moment(d, 2) - expect) / expect)
        ok = worst_mass <= 1e-10 and worst_m2 <= 1e-6
        report(2, ok, f"mass drift {worst_mass:.2e} (<=1e-10), "
                      f"second-moment relative error {worst_m2:.2e} (<=1e-6)")


class TestCriterion03Dissipation:
    def test_convex_functionals_nonincreasing(self):
        kernel = rosenau_kernel(0.3, 1.0)
        g0 = gaussian_initial(GRID, 1.0)
        times = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        worst = -math.inf
        for name, phi in CONVEX_FUNCTIONALS.items():
            vals = []
            for t in times:
                d = inverse_transform(regularized_solution(g0, kernel, t))
                vals.append(convex_functional(d, phi))
            worst = max(worst, max(b - a for a, b in zip(vals, vals[1:])))
        report(3, worst <= 1e-9,
               f"largest increase across r2, rlogr, r4 is {worst:.2e} (slack 1e-9)")


class TestCriterion04OptimalHeatRate:
    def test_bound_and_fitted_exponent(self):
        g0 = mixture_initial(GRID, 1.0)
        checks = exact_decay_check(g0, 1.0, list(FIT_TIMES))
        ok_bound = all(c.satisfied for c in checks)
        fit = rate_fit(list(zip(FIT_TIMES, [c.lhs for c in checks])), window=FIT_WINDOW)
        ok_fit = abs(fit.exponent + 1.0) <= 0.1
        report(4, ok_bound and ok_fit,
               f"bound satisfied at all {len(checks)} times: {ok_bound}; "
               f"fitted heat exponent {fit.exponent:+.3f} (target -1.0 +- 0.1)")


class TestCriterion05SuboptimalRate:
    def test_a_bounds_hold_over_sweep(self):
        data = {"gaussian-unit": gaussian_initial(GRID, 1.0),
                "mixture-unit": mixture_initial(GRID, 1.0)}
        n, worst_margin = 0, math.inf
        ok = True
        for family in ("rosenau", "central-diff"):
            for eps in SWEEP_EPS:
                for g0 in data.values():
                    for c in d2_bound_check(kernel_by_name(family, eps, 1.0), g0, SWEEP_T):
                        n += 1
                        ok = ok and c.satisfied
                        worst_margin = min(worst_margin, c.margin)
        report("5a", ok, f"{n} d2 bound checks, smallest margin {worst_margin:.3e}")

    def test_b_fitted_exponent_minus_half(self):
        # the paper's rate (1+t)^-1/2 caps the fitted exponent from above; the
        # achieved decay is pinned to the oracle and to its leading order
        # eps^2 sigma^2 c / (e (1+t)), c = 1/12 (central-diff) or 1 (rosenau)
        g0 = mixture_initial(GRID, 1.0)
        t_end = FIT_TIMES[-1]
        ok, parts = True, []
        for family in ("rosenau", "central-diff"):
            gaps = [d2_gap(family, 0.1, t, g0) for t in FIT_TIMES]
            oracle = [selfsim_gap_oracle(family, 0.1, t) for t in FIT_TIMES]
            exponent = rate_fit(list(zip(FIT_TIMES, gaps)), window=FIT_WINDOW).exponent
            ts, vals = zip(*((t, o) for t, o in zip(FIT_TIMES, oracle)
                           if FIT_WINDOW[0] <= t <= FIT_WINDOW[1]))
            oracle_exponent = np.polyfit(np.log1p(ts), np.log(vals), 1)[0]
            worst = max(abs(g / o - 1.0) for g, o in zip(gaps, oracle))
            leading = 0.1**2 * LEADING_ORDER[family] / (math.e * (1.0 + t_end))
            lead_err = abs(gaps[-1] / leading - 1.0)
            ok = (ok and exponent <= -0.5 and abs(exponent - oracle_exponent) <= 0.01
                  and worst <= 5e-3 and lead_err <= 0.02)
            parts.append(f"{family}: exponent {exponent:+.4f} vs oracle {oracle_exponent:+.4f}, "
                         f"gap vs oracle worst {worst:.1e}, t={t_end:g} gap vs leading order "
                         f"{lead_err:.1e}")
        report("5b", ok, "; ".join(parts)
               + " (exponent <= -0.5 and within 0.01 of oracle; gaps within 5e-3 of "
                 "oracle; leading order within 2%)")

    def test_c_linear_epsilon_scaling(self):
        # the paper's rate is linear in eps, so halving eps must at least
        # (nearly) halve the gap at t = 10; the achieved ratio is pinned to
        # the oracle's, which is ~4 (eps^2)
        g0 = mixture_initial(GRID, 1.0)
        ok, parts = True, []
        for family in ("rosenau", "central-diff"):
            gaps = {eps: d2_gap(family, eps, 10.0, g0) for eps in (0.2, 0.1, 0.05)}
            oracle = {eps: selfsim_gap_oracle(family, eps, 10.0) for eps in gaps}
            for hi, lo in ((0.2, 0.1), (0.1, 0.05)):
                r, q = gaps[hi] / gaps[lo], oracle[hi] / oracle[lo]
                ok = ok and r >= 1.6 and abs(r / q - 1.0) <= 0.01
                parts.append(f"{family} {hi:g}/{lo:g}: {r:.4f} vs oracle {q:.4f}")
        report("5c", ok, "halving ratios " + ", ".join(parts)
               + " (each >= 1.6 and within 1% of oracle)")


class TestCriterion06D3Bound:
    def test_bounds_and_b_epsilon_values(self):
        g0 = mixture_initial(GRID, 2.0)
        ok_bounds = True
        for family in ("rosenau", "central-diff"):
            kernel = make_kernel(family, 0.1)
            for c in d3_bound_check(kernel, g0, SWEEP_T):
                ok_bounds = ok_bounds and c.satisfied
        b_cd = b_epsilon(bernoulli_kernel(0.1, 1.0))
        ok_cd = abs(b_cd - 2.0 * 0.1**2) <= 1e-14
        b_ros = b_epsilon(rosenau_kernel(0.1, 1.0))
        ok_ros = abs(b_ros - 48.0 * 0.1**2) <= 1e-9 * 48.0 * 0.1**2
        # flagged scaling: the exact m4 gives an eps^2 family, not eps^3
        ratio = b_epsilon(rosenau_kernel(0.2, 1.0)) / b_ros
        ok_flag = abs(ratio - 4.0) <= 1e-6
        ok = ok_bounds and ok_cd and ok_ros and ok_flag
        report(6, ok,
               f"d3 bounds: {ok_bounds}; B(central-diff) = {b_cd:.6g} (= 2 eps^2 sigma^4); "
               f"B(rosenau) = {b_ros:.6g} (= 48 eps^2 sigma^4 exactly; eps-doubling "
               f"ratio {ratio:.3f} flags the eps^2 scaling of this family)")


class TestCriterion07SingularDecay:
    def test_atom_weight_and_decomposition(self):
        worst_w, worst_resid = 0.0, 0.0
        for family in ("rosenau", "central-diff"):
            for eps, t in ((0.3, 2.0), (0.5, 0.7), (1.0, 1.0)):
                kernel = make_kernel(family, eps)
                mu = kernel.lam * t / kernel.epsilon**2
                g1, w = singular_split(kernel, t, GRID)
                worst_w = max(worst_w, abs(w - math.exp(-mu)))
                p_reg = regularized_propagator(kernel, t, GRID)
                xi = GRID.xi()
                recon = p_reg.values + kernel.one_minus_symbol(xi) * math.exp(-mu)
                fund = rosenau_propagate(delta_field(GRID), kernel, t)
                worst_resid = max(worst_resid, float(np.max(np.abs(recon - fund.values))))
        ok = worst_w == 0.0 and worst_resid <= 1e-14
        report(7, ok, f"atom weight error {worst_w:.1e} (machine precision), "
                      f"decomposition residual {worst_resid:.2e} (<=1e-14)")


class TestCriterion08L1Convergence:
    def test_regularized_solution_converges(self):
        kernel = rosenau_kernel(0.2, 1.0)
        g0 = gaussian_initial(WIDE, 1.0)
        times = [1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 50.0, 75.0, 100.0, 150.0, 200.0]
        gaps = {t: SweepPoint(kernel, g0, kernel.sigma_sq, t).l1_reg_gap.value for t in times}
        ratio = gaps[200.0] / gaps[1.0]
        tail = [gaps[t] for t in times if t >= 20.0]
        monotone = all(b <= a + 1e-6 for a, b in zip(tail, tail[1:]))
        ok = ratio < 0.2 and monotone
        report(8, ok, f"gap(200)/gap(1) = {ratio:.4f} (< 0.2), "
                      f"tail (t >= 20) non-increasing: {monotone}")


class TestCriterion09AppendixBound:
    def test_growth_bounded_and_quadrature_stable(self):
        s = 0.9
        times = [0.0] + list(np.geomspace(0.1, 1000.0, 12))
        reports = [appendix_report(s, t, panels=128) for t in times]
        finite = all(math.isfinite(r.normalized) for r in reports)
        stable = True
        for t in (1.0, 100.0, 1000.0):
            a = appendix_report(s, t, panels=128).value
            b = appendix_report(s, t, panels=256).value
            stable = stable and abs(a - b) <= 0.01 * max(a, 1e-300)
        # the prefactor applied inside the square root is the form that
        # actually stays bounded; it peaks near 1.03 around t = 2 and then
        # settles toward 0.58
        balanced_max = max(r.value_balanced for r in reports)
        ok = finite and stable and balanced_max <= 1.5
        report(9, ok,
               f"B_s/(1+t)^0.1 finite on [0, 1e3]: {finite} "
               f"(max {max(r.normalized for r in reports):.3f}); quadrature stable "
               f"within 1%: {stable}; balanced form max {balanced_max:.3f}")


class TestCriterion10HeatL1Baseline:
    def test_scaled_gap_bounded(self):
        g0 = mixture_initial(WIDE, 1.0)
        scaled = [SweepPoint(None, g0, 1.0, t).l1_heat_gap.value * math.sqrt(1.0 + 2.0 * t)
                  for t in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)]
        ok = all(math.isfinite(x) for x in scaled) and \
            all(b <= a + 1e-9 for a, b in zip(scaled, scaled[1:]))
        report(10, ok,
               f"||g - heat kernel||_L1 sqrt(1+2t) non-increasing from {scaled[0]:.4f} "
               f"to {scaled[-1]:.4f} over t in [1, 100]")
