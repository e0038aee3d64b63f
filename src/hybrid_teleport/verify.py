"""Oracle-vs-closed-form verification battery.

Runs every cross-engine comparison the library supports: Kraus evolution vs
closed-form channels, numeric negativity vs closed forms, pipeline vs
per-input expressions, closed-form averages vs quadrature, and the audited
formula variants that are documented to deviate. Checks carry tolerances and
fail the run; audits record measured deviations that are expected to be
nonzero and never fail the run.

The single-rail channel has no coherent amplitude: its evolution, readout
maps, per-input closed forms and Bloch averages depend on t alone. So its p->s
and s->p pipeline checks (summaries, branch validity and remainder Choi
matrices) run once per r, in the first oracle amplitude's pass, and its
closed-form averages and their quadratures once per r, at the first average
amplitude. Their deviations would only repeat at the other amplitudes, and a
check keeps its first largest deviation, so every ``worst_at`` names the
first amplitude either way.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import audits, averages, entanglement, teleport
from .averages import QuadratureSpec
from .channels import (
    ChannelParams,
    evolve,
    hybrid_pc_initial,
    hybrid_ps_initial,
    rho_pc_analytic,
    rho_ps_analytic,
)
from .fock import VAC_IDX, default_fock_dim, trace_distance
from .teleport import BlochInput, Direction

DEFAULT_R_GRID = tuple(round(0.05 * i, 2) for i in range(20))  # 0.0 .. 0.95
DEFAULT_ALPHAS = (0.1, 0.54, 1.0, 2.0, 10.0)
ORACLE_ALPHAS = (0.5, 1.0, 2.0)
PIPELINE_R = (0.0, 0.3, 0.6, 0.8)


def _largest(deviations) -> tuple:
    """The largest deviation and its first location, (0.0, None) if none is above 0.

    A NaN deviation is larger than any number, and the first NaN is the largest.
    """
    dev, at = 0.0, None
    for d, where in deviations:
        if math.isnan(d):
            return d, where
        if d > dev:
            dev, at = d, where
    return dev, at


def _worst(name: str, tol: float, deviations) -> dict:
    """Check entry for the largest of ``(deviation, location)`` pairs.

    The first location of the largest deviation becomes ``worst_at``; there is
    none when that location is None or every deviation is 0. The check passes
    when the largest deviation is at most ``tol``.
    """
    dev, at = _largest(deviations)
    entry = {"name": name, "max_abs_deviation": float(dev), "tolerance": float(tol),
             "pass": bool(dev <= tol)}
    if at is not None:
        entry["worst_at"] = at
    return entry


def _audit(name: str, description: str, measured: dict) -> dict:
    return {"name": name, "description": description, "measured": measured}


def _angle_grid(n_theta: int, n_phi: int):
    thetas = np.linspace(0.0, math.pi, n_theta + 2)[1:-1]
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    return [(float(t), float(p)) for t in thetas for p in phis]


def _channel_checks(r_grid, oracle_alphas) -> list[dict]:
    pc, ps = [], []
    for alpha in oracle_alphas:
        dim = default_fock_dim(alpha)
        initial = hybrid_pc_initial(alpha, dim)
        for r in r_grid:
            params = ChannelParams.from_r(r, alpha)
            pc.append((trace_distance(evolve(initial, params.t), rho_pc_analytic(params, dim)),
                       {"r": r, "alpha": alpha}))
    ps_initial = hybrid_ps_initial()
    for r in r_grid:
        params = ChannelParams.from_r(r, 1.0)
        ps.append((trace_distance(evolve(ps_initial, params.t), rho_ps_analytic(params)), {"r": r}))
    # semigroup: two loss steps compose into one with the product decay
    rho = rho_pc_analytic(ChannelParams(t=1.0, alpha=1.0), 22)
    semigroup = [(trace_distance(evolve(evolve(rho, t1), t2), evolve(rho, t1 * t2)), None)
                 for t1, t2 in ((0.9, 0.8), (0.7, 0.95), (0.6, 0.6))]
    return [
        _worst("channel_pc_kraus_vs_closed", 1e-9, pc),
        _worst("channel_ps_kraus_vs_closed", 1e-12, ps),
        _worst("channel_semigroup", 1e-10, semigroup),
    ]


def _negativity_checks(r_grid, oracle_alphas) -> tuple[list[dict], list[dict]]:
    ps = [(abs(entanglement.negativity_numeric(rho_ps_analytic(params))
               - entanglement.negativity_ps_analytic(params.t)), None)
          for params in (ChannelParams.from_r(r, 1.0) for r in r_grid)]
    pc, ratios = [], []
    for alpha in oracle_alphas:
        dim = default_fock_dim(alpha)
        for r in r_grid:
            params = ChannelParams.from_r(r, alpha)
            num = entanglement.negativity_numeric(rho_pc_analytic(params, dim))
            pc.append((abs(num - entanglement.negativity_pc_closed(params)),
                       {"r": r, "alpha": alpha}))
            if num > 1e-6:
                ratios.append(audits.negativity_pc_variant(params) / num)
    schmidt = [(abs(entanglement.negativity_numeric(rho_pc_analytic(ChannelParams(1.0, 1.0), 24))
                    - math.sqrt(1.0 - math.exp(-4.0))), None)]
    checks = [
        _worst("negativity_ps_numeric_vs_quartic", 1e-12, ps),
        _worst("negativity_pc_numeric_vs_closed", 1e-9, pc),
        _worst("negativity_pc_schmidt_point", 1e-9, schmidt),
    ]
    ledger = [
        _audit(
            "negativity_pc_variant_scale",
            "closed-form variant over numeric negativity; a constant scale, "
            "the variant must be divided by this factor to match",
            {"ratio_min": float(min(ratios)), "ratio_max": float(max(ratios)),
             "ratio_mean": float(np.mean(ratios))} if ratios
            else dict.fromkeys(("ratio_min", "ratio_max", "ratio_mean")),
        )
    ]
    return checks, ledger


def _pipeline_checks(pipeline_r, oracle_alphas, n_theta, n_phi) -> tuple[list[dict], list[dict]]:
    angles = _angle_grid(n_theta, n_phi)
    terms = teleport._bloch_terms(*zip(*angles))
    fidelity = {d: [] for d in Direction}
    probability = {d: [] for d in Direction}
    branch_sum, valid, postselected, vacuum = [], [], [], []
    variant_dev = {Direction.P_TO_C: [], Direction.C_TO_P: []}
    fitted_mod, fitted_weight = [], []
    ps_initial = hybrid_ps_initial()

    # the single-rail directions depend on t alone: first amplitude's pass only
    for k, alpha in enumerate(oracle_alphas):
        directions = tuple(d for d in Direction if k == 0 or d.coherent)
        dim = default_fock_dim(alpha)
        pc_initial = hybrid_pc_initial(alpha, dim)
        for r in pipeline_r:
            params = ChannelParams.from_r(r, alpha)
            chan_pc = evolve(pc_initial, params.t)
            chan_ps = evolve(ps_initial, params.t) if k == 0 else None
            # closed-form fidelity and success probability over the whole angle grid,
            # keyed by (direction, postselected)
            closed = {
                (d, post): (teleport.fidelity_kernel(d, terms, params, post).tolist(),
                            teleport.success_kernel(d, terms, params, post).tolist())
                for d in directions for post in ((False, True) if d.onto_polarization else (False,))
            }
            for i, (theta, phi) in enumerate(angles):
                inp = BlochInput(theta, phi)
                for d in directions:
                    chan = chan_pc if d.coherent else chan_ps
                    summary = teleport.pipeline_summary(d, inp, params, channel=chan)
                    f_closed, p_closed = closed[d, False]
                    at = {"r": r, "alpha": alpha, "theta": theta, "phi": phi, "direction": d.value}
                    fidelity[d].append((abs(summary["fidelity"] - f_closed[i]), at))
                    probability[d].append((abs(summary["success_probability"] - p_closed[i]), at))
                    probs = summary["probabilities"].tolist()
                    branch_sum.append((abs(sum(probs) - 1.0), None))
                    # each branch's Hermiticity defect and imaginary trace, over its
                    # probability (the real trace), are those of its normalized output
                    stack = summary["stack"]
                    gaps = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2)).tolist()
                    traces = np.einsum("lii->l", stack).imag.tolist()
                    valid.append((max(max(gap, abs(im)) / p for gap, im, p in zip(gaps, traces, probs)
                                      if p > 1e-12), None))
                    if d.onto_polarization:
                        post = teleport.pipeline_summary(d, inp, params, channel=chan,
                                                         postselected=True)
                        f_closed, p_closed = closed[d, True]
                        postselected.append((abs(post["fidelity"] - f_closed[i]), None))
                        postselected.append((abs(post["success_probability"] - p_closed[i]), None))
                    if d in variant_dev:
                        variant_dev[d].append(abs(audits.per_input_fidelity_variant(d, inp, params)
                                                  - summary["fidelity"]))

            # vacuum removal and the success-modulation constant, once per (r, alpha)
            inp = BlochInput(math.pi / 2, 0.0)
            projected = teleport.pipeline_summary(Direction.C_TO_P, inp, params, channel=chan_pc,
                                                  postselected=True)["output"]
            vacuum.append((float(projected[VAC_IDX, VAC_IDX].real), None))
            prob = teleport.pipeline_summary(Direction.P_TO_C, inp, params,
                                             channel=chan_pc)["success_probability"]
            measured_a = 2.0 * prob / params.t**2 - 1.0  # u = 1 at this input
            fitted_mod.append((alpha, measured_a, math.exp(-2.0 * alpha * alpha)))
            # coherence weight of the c->p output, read off the pipeline fidelity
            f_pipe = teleport.pipeline_summary(Direction.C_TO_P, inp, params,
                                               channel=chan_pc)["fidelity"]
            q = params.coherence_factor
            p2 = 0.25  # |a|^2 |b|^2 at the equator
            weight = (f_pipe / params.t**2 - 0.5) / (q * p2)
            fitted_weight.append(weight)
            # every branch is a density matrix for every input: one eigvalsh of the
            # remainder's Choi matrix per (channel, direction)
            for d in directions:
                choi = teleport._remainder_choi(d, params, chan_pc if d.coherent else chan_ps)
                hermiticity = float(np.abs(choi - choi.conj().T).max())
                valid.append((max(hermiticity, -float(np.linalg.eigvalsh(choi)[0])), None))
            # carry only each check's worst pair so far into the next channel; as the
            # first largest pair, it leaves every check entry unchanged
            for pairs in (*fidelity.values(), *probability.values(), branch_sum, valid,
                          postselected):
                pairs[:] = [_largest(pairs)]

    checks = [
        _worst(f"pipeline_vs_closed_{quantity}_{d.value}", 1e-6, deviations[d])
        for quantity, deviations in (("fidelity", fidelity), ("probability", probability))
        for d in Direction
    ] + [
        _worst("pipeline_branch_probability_sum", 1e-10, branch_sum),
        _worst("pipeline_outputs_valid_density", 1e-10, valid),
        _worst("pipeline_postselected_vs_closed", 1e-10, postselected),
        _worst("postselect_removes_vacuum", 1e-14, vacuum),
    ]
    mod_residual = max(abs(m - qs) for _, m, qs in fitted_mod)
    ledger = [
        _audit(
            "pc_success_modulation_constant",
            "modulation of the p->c success probability around t^2/2, fitted from "
            "the pipeline at the equator input; equals exp(-2 alpha^2), i.e. the "
            "product of the coherence and overlap factors",
            {"fits": [{"alpha": a, "fitted": m, "exp_minus_2a2": qs} for a, m, qs in fitted_mod],
             "max_fit_residual": mod_residual},
        ),
        _audit(
            "cp_coherence_weight",
            "weight of the coherence term in the c->p output fidelity, read off the "
            "pipeline; the weight-1 closed-form variant deviates by the measured amount",
            {"fitted_weight": float(np.mean(fitted_weight)),
             "variant_max_deviation": max(variant_dev[Direction.C_TO_P], default=0.0)},
        ),
        _audit(
            "pc_per_input_conjugation",
            "p->c per-input fidelity variant with swapped conjugations in the "
            "coherence term; agrees with the pipeline only at phi in {0, pi}",
            {"variant_max_deviation": max(variant_dev[Direction.P_TO_C], default=0.0)},
        ),
    ]
    return checks, ledger


def _moment_checks(spec: QuadratureSpec) -> tuple[list[dict], list[dict]]:
    kernels = {
        1: lambda th, ph: np.cos(th / 2) ** 4,
        2: lambda th, ph: (np.cos(th / 2) * np.sin(th / 2)) ** 2,
        3: lambda th, ph: np.sin(th) * np.cos(ph),
        4: lambda th, ph: 2.0 * (np.cos(th / 2) * np.sin(th / 2)) ** 2 * np.cos(2 * ph),
    }
    # each closed form once over x, then against the quadrature point by point
    xs = [0.05 * i for i in range(1, 20)]
    quadrature = [
        (abs(averages.bloch_average(lambda th, ph: kernels[kind](th, ph)
                                    / (1.0 + x * np.sin(th) * np.cos(ph)), spec) - closed),
         {"kind": kind, "x": x})
        for kind in (1, 2, 3, 4)
        for x, closed in zip(xs, averages.moment_integral(kind, np.array(xs)).tolist())
    ]
    # series and closed form must agree around the switch point; the closed
    # forms carry ~1e-11 cancellation noise this close to zero, which is the
    # point of switching
    seam = [
        (abs(averages._moment_series(kind, x) - averages._moment_closed(kind, x)), None)
        for kind in (1, 2, 3, 4)
        for x in (9e-4, 1e-3, 2e-3, 5e-3)
    ]
    variant_devs = {}
    at = (1e-3, 0.1, 0.5)
    for x, closed in zip(at, averages.moment_integral(4, np.array(at)).tolist()):
        measured = audits.moment_integral_variant4(x) - closed
        predicted = (1 - x * x) * math.atanh(x) / (4 * x**3) - 1.0 / (4 * x * x)
        variant_devs[x] = {"deviation": measured, "residual_vs_formula": abs(measured - predicted)}
    checks = [
        _worst("moment_integrals_vs_quadrature", 1e-8, quadrature),
        _worst("moment_series_closed_seam", 1e-9, seam),
    ]
    ledger = [
        _audit(
            "fourth_moment_variant_limit",
            "kind-4 closed-form variant approaches -1/6 instead of 0 at x -> 0; "
            "deviation equals (1-x^2) artanh(x)/(4x^3) - 1/(4x^2)",
            {"value_at_1e-3": audits.moment_integral_variant4(1e-3),
             "deviations": {str(k): v for k, v in variant_devs.items()}},
        )
    ]
    return checks, ledger


def _average_checks(r_grid, alphas, spec: QuadratureSpec) -> tuple[list[dict], list[dict]]:
    rs = np.array(r_grid)
    closed_vs_quadrature = []
    for k, alpha in enumerate(alphas):
        # each closed form once over r, then against the quadrature point by point;
        # the single-rail ones depend on t alone: first amplitude only
        grid = ChannelParams.from_r(rs, alpha)
        closed = [(d, post, averages.avg_fidelity(d, grid, postselected=post).tolist(),
                   averages.avg_success_probability(d, grid, postselected=post).tolist())
                  for d in Direction if k == 0 or d.coherent
                  for post in ((False, True) if d.onto_polarization else (False,))]
        classical = averages.classical_limit(Direction.P_TO_C, grid).tolist()
        for i, r in enumerate(r_grid):
            params = ChannelParams.from_r(r, alpha)
            for d, post, fid, prob in closed:
                tag = f"_post_{d.value}" if post else f"_{d.value}"
                dev = abs(fid[i] - averages.avg_fidelity_quadrature(d, params, spec, post))
                closed_vs_quadrature.append((dev, {"what": "F" + tag, "r": r, "alpha": alpha}))
                dev = abs(prob[i] - averages.avg_success_quadrature(d, params, spec, post))
                closed_vs_quadrature.append((dev, {"what": "P" + tag, "r": r, "alpha": alpha}))
            dev = abs(classical[i] - averages.classical_limit_quadrature(params, spec))
            closed_vs_quadrature.append((dev, {"what": "F_cl_p->c", "r": r, "alpha": alpha}))

    # exact identities
    half_survival = (1 - rs * rs) / 2
    p_half = ChannelParams(t=0.5, alpha=1.0)
    exact = [(dev, None) for dev in np.abs(averages.avg_success_probability(
        Direction.P_TO_C, ChannelParams.from_r(rs, 1.0)) - half_survival).tolist()] + [
        (abs(averages.avg_success_probability(Direction.S_TO_P, p_half) - 0.5), None),
        (abs(averages.avg_fidelity(Direction.P_TO_S, ChannelParams(1.0, 1.0)) - 1.0), None),
        (abs(averages.avg_fidelity(Direction.P_TO_S, p_half) - 17.0 / 24.0), None),
    ]

    # gap approximation at large amplitude, closed forms only
    large = ChannelParams.from_r(rs[rs <= 0.5], 10.0)
    gap = [(dev, None) for dev in np.abs(averages.avg_fidelity(Direction.P_TO_C, large)
                                         - averages.avg_fidelity(Direction.C_TO_P, large)
                                         - averages.fidelity_gap_large_alpha(large)).tolist()]

    # amplitude making the two success probabilities closest in sup norm over the
    # paper's r grid, whatever grid the other checks run on
    paper_rs = np.array(DEFAULT_R_GRID)
    paper_half_survival = (1 - paper_rs * paper_rs) / 2
    sups = {a: float(np.abs(averages.avg_success_probability(
                Direction.C_TO_P, ChannelParams.from_r(paper_rs, a)) - paper_half_survival).max())
            for a in (0.30 + 0.01 * k for k in range(61))}
    best_alpha = min(sups, key=sups.get)
    star = {"alpha_star": best_alpha, "sup_at_star": sups[best_alpha]}

    checks = [
        _worst("avg_closed_vs_quadrature", 1e-8, closed_vs_quadrature),
        _worst("exact_reference_numbers", 1e-12, exact),
        _worst("gap_formula_large_alpha", 1e-3, gap),
        _worst("crossing_alpha_star", 0.05 + 1e-9, [(abs(best_alpha - 0.54), star)]),
    ]

    # audited variants
    ref = ChannelParams.from_r(0.6, 1.0)
    variant_avg = abs(audits.avg_fidelity_variant_pc(ref)
                      - averages.avg_fidelity_quadrature(Direction.P_TO_C, ref, spec))
    variant_cl = abs(audits.classical_limit_variant(ref)
                     - averages.classical_limit_quadrature(ref, spec))
    gap_r = np.linspace(0.01, 0.99, 99)
    sp = ChannelParams.from_r(gap_r, 1.0)
    gaps = np.abs(averages.avg_fidelity(Direction.P_TO_S, sp)
                  - averages.avg_fidelity(Direction.S_TO_P, sp, postselected=True))
    max_r, max_gap = gap_r[gaps.argmax()], gaps.max()
    r_below = gap_r[gaps < 0.01]
    ledger = [
        _audit(
            "pc_average_assembly",
            "p->c average assembled through the single-scale moment differences "
            "with a q/(q-1) prefactor; not the partial-fraction identity, so it "
            "deviates from the quadrature by O(1)",
            {"deviation_at_r0.6_alpha1": variant_avg},
        ),
        _audit(
            "classical_limit_expression",
            "literal alternative classical-limit expression for p->c; wrong "
            "small-overlap limit, deviation measured against the quadrature",
            {"deviation_at_r0.6_alpha1": variant_cl},
        ),
        _audit(
            "postselect_sp_fidelity_gap",
            "largest difference between the p->s average fidelity and the "
            "postselected s->p average fidelity over r; stays below 0.01 only "
            "on the small-r side",
            {"max_gap": float(max_gap), "at_r": float(max_r),
             "largest_r_with_gap_below_0.01": float(r_below.max()) if r_below.size else None},
        ),
    ]
    return checks, ledger


def run_battery(
    r_grid=DEFAULT_R_GRID,
    alphas=DEFAULT_ALPHAS,
    oracle_alphas=ORACLE_ALPHAS,
    pipeline_r=PIPELINE_R,
    spec: QuadratureSpec | None = None,
    angle_grid=(6, 8),
) -> dict:
    """Run every check and audit; returns a JSON-serializable report."""
    spec = spec or QuadratureSpec()
    started = time.perf_counter()
    checks: list[dict] = []
    ledger: list[dict] = []
    timings: dict[str, float] = {}
    phases = (
        ("channel", lambda: (_channel_checks(r_grid, oracle_alphas), [])),
        ("negativity", lambda: _negativity_checks(r_grid, oracle_alphas)),
        ("pipeline", lambda: _pipeline_checks(pipeline_r, oracle_alphas, *angle_grid)),
        ("moment", lambda: _moment_checks(spec)),
        ("average", lambda: _average_checks(r_grid, alphas, spec)),
    )
    for phase, run in phases:
        phase_started = time.perf_counter()
        c, a = run()
        timings[phase] = round(time.perf_counter() - phase_started, 3)
        checks.extend(c)
        ledger.extend(a)

    return {
        "passed": all(ch["pass"] for ch in checks),
        "elapsed_seconds": round(time.perf_counter() - started, 3),
        "grid": {"r": list(r_grid), "alphas": list(alphas),
                 "oracle_alphas": list(oracle_alphas), "pipeline_r": list(pipeline_r),
                 "quadrature": [spec.n_theta, spec.n_phi]},
        "checks": checks,
        "audits": ledger,
        "timings": timings,
    }


def format_report(report: dict) -> str:
    lines = []
    width = max(len(c["name"]) for c in report["checks"])
    for c in report["checks"]:
        status = "PASS" if c["pass"] else "FAIL"
        lines.append(
            f"{status}  {c['name']:<{width}}  max dev {c['max_abs_deviation']:.3e}"
            f"  (tol {c['tolerance']:.0e})"
        )
    lines.append("")
    lines.append("audited formula variants (documented deviations, informational):")
    for a in report["audits"]:
        lines.append(f"  {a['name']}: {a['description']}")
        lines.append(f"    measured: {a['measured']}")
    verdict = "ALL CHECKS PASSED" if report["passed"] else "CHECK FAILURES PRESENT"
    lines.append("")
    lines.append(f"{verdict} in {report['elapsed_seconds']} s")
    lines.append("phase seconds: " + ", ".join(f"{k} {v}" for k, v in report["timings"].items()))
    return "\n".join(lines)
