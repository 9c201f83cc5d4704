"""Acceptance suite: one test per criterion, printed as a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  Each
test enforces its criterion at the stated tolerance; measured values are
embedded in the assertion messages.
"""

import math
import time
from dataclasses import replace

import numpy as np
import flexsat as fx
from flexsat import analysis
from conftest import FREQS, random_params

OMEGA_GRID = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 6.0)
T_LATE_MAX = 1000.0  # longest passive run criterion 08 will simulate, in seconds


def report(num: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_01_zero_frequency_transfer():
    with Timer() as tm:
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(5):
            p = random_params(rng)
            got = fx.transfer_beam(0.0, p)
            want = np.diag([2.0 * p.gamma, 2.0 * p.gamma / 3.0])
            worst = max(worst, float(np.abs(got - want).max()))
    ok = worst < 1e-12 and tm.elapsed < 1.0
    msg = report(1, ok, f"panel transfer at zero frequency: max dev {worst:.2e} ({tm.elapsed:.2f}s)")
    assert ok, msg


def test_criterion_02_characteristic_roots():
    def oracle(k):
        f = lambda mu: math.cosh(mu) * math.cos(mu) + 1.0
        lo, hi = (1.0, math.pi) if k == 1 else (math.pi * (k - 1), math.pi * k)
        flo = f(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if flo * f(mid) <= 0.0:
                hi = mid
            else:
                lo, flo = mid, f(mid)
        return 0.5 * (lo + hi)

    with Timer() as tm:
        dev_oracle = max(abs(fx.beam_mu(k) - oracle(k)) for k in range(1, 6))
        gaps = [abs(fx.beam_mu(k) - math.pi * (k - 0.5)) for k in range(1, 6)]
        monotone = all(gaps[i + 1] < gaps[i] for i in range(4))
    ok = dev_oracle < 1e-10 and monotone and tm.elapsed < 1.0
    msg = report(2, ok, f"roots vs bisection oracle: dev {dev_oracle:.2e}, "
                        f"asymptote gap monotone: {monotone} ({tm.elapsed:.2f}s)")
    assert ok, msg


def test_criterion_03_oracle_equivalence(params):
    with Timer() as tm:
        rows = dict(analysis.transfer_error_report(params, (6, 8, 12, 16), OMEGA_GRID))
    errs = [rows[N] for N in (6, 8, 12, 16)]
    # At or below this floor the error is double-precision rounding noise, and
    # its order along N carries no information about convergence.
    floor = 100.0 * np.finfo(float).eps
    accurate = rows[12] < 1e-3
    converging = all(errs[i + 1] < errs[i] or errs[i + 1] <= floor for i in range(3))
    at_floor = errs[-1] <= floor
    ok = accurate and converging and at_floor and tm.elapsed < 10.0
    msg = report(3, ok, f"max rel errors along N 6/8/12/16: "
                        f"{errs[0]:.2e} {errs[1]:.2e} {errs[2]:.2e} {errs[3]:.2e}; "
                        f"N=12 < 1e-3: {accurate}, strictly decreasing or at the "
                        f"floor {floor:.1e}: {converging}, N=16 at the floor: {at_floor} "
                        f"({tm.elapsed:.2f}s)")
    assert ok, msg


def test_criterion_04_exponential_stability(params, ss10):
    with Timer() as tm:
        margins = {N: fx.assemble(params, N).margin for N in (8, 12, 16)}
        margins[10] = ss10.margin
        all_stable = all(v > 0.0 for v in margins.values())
        grid = np.linspace(-200.0, 200.0, 401)
        vals = analysis.resolvent_norm_scan(ss10, grid)
        imax = int(np.argmax(vals))
        interior = 0 < imax < grid.size - 1
        end_ratio = max(vals[0], vals[-1]) / vals[imax]
    ok = all_stable and interior and end_ratio < 0.5 and tm.elapsed < 30.0
    msg = report(4, ok, f"margin(N=10) = {margins[10]:.4f} (all N stable: {all_stable}); "
                        f"resolvent max {vals[imax]:.3f} at w = {grid[imax]:.1f} "
                        f"(interior: {interior}), endpoint/max = {end_ratio:.3f} "
                        f"({tm.elapsed:.2f}s)")
    assert ok, msg


def test_criterion_05_structural_identities(params, ss10, default_config, plant_only_ctrl):
    with Timer() as tm:
        collocation = bool(np.array_equal(ss10.B, ss10.C.T))

        ss0 = fx.assemble(fx.PhysicalParams(gamma=0.0), 10)
        sym0 = ss0.A.T + ss0.A
        top0 = float(np.max(np.linalg.eigvalsh(0.5 * (sym0 + sym0.T))))

        sym5 = ss10.A.T + ss10.A
        top5 = float(np.max(np.linalg.eigvalsh(0.5 * (sym5 + sym5.T))))
        nb = 2 * ss10.n_basis
        # the elastic block of the identity is structurally zero; strict
        # dissipation is carried by the damped velocity block
        vel_top5 = float(np.max(np.linalg.eigvalsh(sym5[nb:, nb:])))

        cl = fx.assemble_closed_loop(ss10, plant_only_ctrl)
        exo = fx.exosystem(
            (1.0, 2.0), np.zeros(2), np.zeros(4),
            wd_cos=[[0, 0, 0, 0], [0, 0, 0, 1.0]],
            wd_sin=[[0, 0, 1.0, 0], [0, 0, 0, 0]],
        )
        x0 = fx.project_initial_state(ss10, **default_config.initial_profiles())
        S, v0, E = exo.S, exo.v0, exo.E
        ne, nw = cl.n, S.shape[0]
        A_aug = np.zeros((ne + nw, ne + nw))
        A_aug[:ne, :ne] = cl.Ae
        A_aug[:ne, ne:] = cl.Be @ E
        A_aug[ne:, ne:] = S
        t, xs = fx.propagate_autonomous(A_aug, np.concatenate([x0, v0]), 15.0, 0.005, np.eye(ne + nw))
        xp = xs[:, : ss10.n]
        vel = xp[:, nb:]
        u_inj = (xs[:, ne:] @ E.T)[:, 2:4]
        y = xp @ ss10.C.T
        energy = 0.5 * np.einsum("ij,ij->i", xp, xp)
        supply = np.trapezoid(np.einsum("ij,ij->i", u_inj, y), t)
        dissip = np.trapezoid(np.einsum("ij,ij->i", vel, vel @ -ss10.A[nb:, nb:].T), t)  # D = -A's velocity block
        balance = abs(energy[-1] - energy[0] - supply + dissip)
        balance_ok = balance < 1e-5 * max(1.0, energy[0])

    ok = (collocation and top0 < 1e-10 and top5 <= 1e-10 and vel_top5 < 0.0
          and balance_ok and tm.elapsed < 5.0)
    msg = report(5, ok, f"HB = C^T exact: {collocation}; dissipativity top eig "
                        f"gamma=0: {top0:.1e}, gamma=5: {top5:.1e} "
                        f"(velocity block {vel_top5:.1e}); energy balance "
                        f"residual {balance:.2e} ({tm.elapsed:.2f}s)")
    assert ok, msg


def test_criterion_06_solver_residuals(ss10):
    with Timer() as tm:
        H, _ = fx.solve_sylvester_H(ss10, FREQS)
        im = fx.internal_model(FREQS)
        B1 = H @ ss10.B
        Q = 10.0 * np.eye(im.dim)
        R = 0.1 * np.eye(2)
        P, K, _, _ = fx.care_solve(im.G1, B1, Q, R)
        ric = im.G1.T @ P + P @ im.G1 - P @ B1 @ np.linalg.solve(R, B1.T @ P) + Q
        care_res = float(np.linalg.norm(ric) / np.linalg.norm(P))
        hurwitz = analysis.stability_margin(im.G1 - B1 @ K) > 0.0

        P1, K1, _, _ = fx.care_solve(np.zeros((1, 1)), np.eye(1), np.eye(1), np.eye(1))
        scalar1 = abs(P1[0, 0] - 1.0) < 1e-12 and abs(K1[0, 0] - 1.0) < 1e-12
        P2, K2, _, _ = fx.care_solve(np.eye(1), np.eye(1), 2.0 * np.eye(1), np.eye(1))
        scalar2 = (abs(P2[0, 0] - 1.0 - math.sqrt(3.0)) < 1e-12
                   and abs(K2[0, 0] - 1.0 - math.sqrt(3.0)) < 1e-12)

        # real regulator equation G1 H = H A + G2 C; G2 is I on the zero block
        # and sqrt(2) I on the trailing half of each rotation block
        G2 = np.zeros((im.dim, 2))
        for f, sl in im.blocks:
            G2[sl.stop - 2 : sl.stop] = np.eye(2) if f == 0.0 else math.sqrt(2.0) * np.eye(2)
        syl_res = float(
            np.linalg.norm(im.G1 @ H - H @ ss10.A - G2 @ ss10.C) / (1.0 + np.linalg.norm(H))
        )
    ok = (care_res < 1e-8 and hurwitz and scalar1 and scalar2
          and syl_res < 1e-8 and tm.elapsed < 5.0)
    msg = report(6, ok, f"Riccati rel residual {care_res:.2e} (stabilizing: {hurwitz}), "
                        f"scalar closed forms: {scalar1 and scalar2}, "
                        f"Sylvester rel residual {syl_res:.2e} ({tm.elapsed:.2f}s)")
    assert ok, msg


def test_criterion_07_regulation_zeros(ss10, passive_loop, observer_loop):
    with Timer() as tm:
        worst = 0.0
        for cl in (passive_loop, observer_loop):
            zeros = fx.regulation_zero_check(cl, FREQS)
            assert set(zeros) == {-5.0, -2.0, -1.0, 0.0, 1.0, 2.0, 5.0}
            worst = max(worst, max(zeros.values()))
        incomplete = fx.assemble_closed_loop(
            ss10, fx.build_passive_controller((0.0, 1.0, 2.0), 2.5, 4.0)
        )
        probe = fx.regulation_zero_check(incomplete, FREQS)[5.0]
    ok = worst < 1e-8 and probe > 0.01 and tm.elapsed < 5.0
    msg = report(7, ok, f"internal-model residuals < 1e-8: max {worst:.2e}; "
                        f"missing-frequency residual at w=5: {probe:.3f} ({tm.elapsed:.2f}s)")
    assert ok, msg


def test_criterion_08_end_to_end_tracking(default_config, passive_loop, observer_loop,
                                           passive_trace, observer_trace):
    def ratio(trace, t_late):
        nrm = np.linalg.norm(trace.e, axis=1)
        return nrm[trace.t >= t_late].max() / nrm[trace.t <= 1.0].max()

    with Timer() as tm:
        m_pas = analysis.stability_margin(passive_loop.Ae)
        m_obs = analysis.stability_margin(observer_loop.Ae)
        # Convergence is asymptotic, so each loop is judged after the same decay
        # budget: the observer's window [1, 12] spans 11 * m_obs time constants,
        # and the passive window starts once as many of its own have passed.
        # A loop too slow to reach that point within T_LATE_MAX is not simulated.
        t_late = 1.0 + 11.0 * m_obs / m_pas if m_pas > 0.0 else math.inf
        ratios = {"observer": ratio(observer_trace, 12.0), "passive": math.inf}
        if t_late <= T_LATE_MAX:
            long_cfg = replace(default_config, t_final=float(math.ceil(t_late + 3.0)))
            ratios["passive"] = ratio(analysis.simulate_from_config(long_cfg, passive_loop), t_late)
        reference = {"passive": ratio(passive_trace, 12.0), "observer": ratios["observer"]}
    tracking_ok = all(r < 0.05 for r in ratios.values())
    margins_ok = m_obs > m_pas
    comparison_ok = reference["observer"] < reference["passive"]
    ok = tracking_ok and margins_ok and comparison_ok and tm.elapsed < 20.0
    msg = report(8, ok, f"late/early error ratios (threshold 0.05): observer "
                        f"{ratios['observer']:.4f} from t = 12, passive "
                        f"{ratios['passive']:.2e} from t_late = {t_late:.1f}; "
                        f"reference run from t = 12: observer {reference['observer']:.4f} "
                        f"< passive {reference['passive']:.4f}: {comparison_ok}; "
                        f"margins: observer {m_obs:.4f} > passive {m_pas:.4f}: {margins_ok} "
                        f"({tm.elapsed:.2f}s)")
    assert ok, msg


def test_criterion_09_robustness_to_plant_perturbation(params, passive_ctrl, observer_ctrl):
    with Timer() as tm:
        p_pert = params.scaled(gamma=0.9, m=1.1)
        ss_pert = fx.assemble(p_pert, 10)
        results = {}
        for name, ctrl in (("passive", passive_ctrl), ("observer", observer_ctrl)):
            cl = fx.assemble_closed_loop(ss_pert, ctrl)
            margin = analysis.stability_margin(cl.Ae)
            zeros = fx.regulation_zero_check(cl, FREQS)
            results[name] = (margin, max(zeros.values()))
    ok = all(m > 0.0 and z < 1e-8 for m, z in results.values()) and tm.elapsed < 10.0
    msg = report(9, ok, "perturbed plant (gamma x0.9, m x1.1), nominal controllers: "
                        + ", ".join(f"{k}: margin {m:.4f}, max residual {z:.2e}"
                                    for k, (m, z) in results.items())
                        + f" ({tm.elapsed:.2f}s)")
    assert ok, msg


def test_criterion_10_sweep_trends(default_config):
    with Timer() as tm:
        grids = {
            "c1": np.geomspace(0.5, 10.0, 7),
            "c2": np.geomspace(0.5, 10.0, 7),
            "r0": np.geomspace(0.01, 1.0, 7),
        }
        cfg_obs = replace(default_config, controller_kind="observer")
        res = {
            "c1": analysis.sweep(default_config, "c1", grids["c1"]),
            "c2": analysis.sweep(default_config, "c2", grids["c2"]),
            "r0": analysis.sweep(cfg_obs, "r0", grids["r0"]),
        }
        # The passive margin vanishes as c1 -> 0 and as c1 -> inf, so along c1
        # it must peak strictly inside the grid.
        m = res["c1"].margin
        peak = int(np.argmax(m))
        checks = {"c1_margin": 0 < peak < m.size - 1 and m[peak] > max(m[0], m[-1])}
        checks["c1_l2sq"] = res["c1"].l2sq[0] > res["c1"].l2sq[-1]
        r = res["c2"]
        checks["c2_margin"] = r.margin[0] > r.margin[-1]
        checks["c2_l2sq"] = r.l2sq[0] > r.l2sq[-1]
        r = res["r0"]
        checks["r0_margin"] = r.margin[0] > r.margin[-1]
        checks["r0_l2sq"] = r.l2sq[0] < r.l2sq[-1]
        all_stable = all(np.all(r.stable) for r in res.values())
    ok = all(checks.values()) and all_stable and tm.elapsed < 120.0
    detail = ", ".join(f"{k}: {'ok' if v else 'VIOLATED'}" for k, v in checks.items())
    msg = report(10, ok, f"c1 margin peak {m[peak]:.4f} at c1 = {grids['c1'][peak]:.2f} "
                         f"(endpoints {m[0]:.4f}, {m[-1]:.4f}); trends {detail}; "
                         f"all points stable: {all_stable} "
                         f"({tm.elapsed:.1f}s)")
    assert ok, msg


def test_criterion_11_integrator_exactness():
    with Timer() as tm:
        rng = np.random.default_rng(17)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        lam = np.array([-0.5, -1.0, -2.0, -3.5])
        A = Q @ np.diag(lam) @ Q.T
        x0 = np.array([1.0, -2.0, 0.5, 0.25])
        t, xs = fx.propagate_autonomous(A, x0, 2.0, 0.01, np.eye(4))
        want = np.einsum("ij,tj,kj,k->ti", Q, np.exp(np.outer(t, lam)), Q, x0)
        exact_err = float(np.max(np.abs(xs - want)))
        _, fine = fx.propagate_autonomous(A, x0, 2.0, 0.005, np.eye(4))
        halving_dev = float(np.max(np.abs(xs - fine[::2])))
    ok = exact_err < 1e-10 and halving_dev < 1e-10 and tm.elapsed < 1.0
    msg = report(11, ok, f"closed-form error {exact_err:.2e}, dt-halving deviation "
                         f"{halving_dev:.2e} ({tm.elapsed:.2f}s)")
    assert ok, msg
