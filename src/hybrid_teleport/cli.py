"""Command-line front end: figure data, sweeps, single-shot runs, verification.

Subcommands:
  figure      reproduce the data behind one of the five reference figures (CSV)
  negativity  negativity sweep over r for a list of amplitudes (CSV)
  average     averaged fidelities and success probabilities over r (CSV)
  teleport    one teleportation evaluation at a given input (JSON)
  verify      the full oracle-vs-closed-form battery (text + JSON)

All CSV output is deterministic: fixed column order, floats at 12 significant
digits, '\\n' line endings. Oracle (brute-force) evaluations are limited to
alpha <= 2; larger amplitudes are served by the closed forms and marked
engine=analytic.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .averages import (
    QuadratureSpec,
    avg_fidelity,
    avg_success_probability,
    classical_limit,
)
from .channels import ChannelParams, rho_pc_analytic
from .entanglement import negativity_numeric, negativity_pc_closed, negativity_ps_analytic
from .fock import COHERENT_TAIL_TOL, coherent_tail_mass, default_fock_dim
from .teleport import (
    BlochInput,
    Direction,
    branch_probabilities_analytic,
    per_input_fidelity,
    per_input_success_probability,
    pipeline_summary,
)

ORACLE_ALPHA_MAX = 2.0

FIGURE_ALPHAS = {
    "fig1": (0.5, 1.0, 2.0),
    "fig2": (0.1, 1.0, 2.0, 10.0),
    "fig3": (0.1, 1.0, 0.54, 10.0),
    "fig5": (0.1, 1.0, 0.54, 10.0),
}


@dataclass(frozen=True)
class SweepConfig:
    """Grid and engine settings shared by all subcommands."""

    r_min: float = 0.0
    r_max: float = 0.95
    r_steps: int = 20
    alphas: tuple[float, ...] | None = None
    truncation: int | None = None
    quad_theta: int = 64
    quad_phi: int = 128
    engine: str = "auto"
    out: str | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.r_min <= self.r_max < 1.0):
            raise ValueError("need 0 <= r_min <= r_max < 1")
        if self.r_steps < 2:
            raise ValueError("r_steps must be >= 2")
        if self.alphas is not None and len(self.alphas) == 0:
            raise ValueError("alpha list must be nonempty")
        if self.engine not in ("auto", "analytic", "oracle", "both"):
            raise ValueError(f"unknown engine {self.engine!r}")

    def r_grid(self) -> list[float]:
        return [float(x) for x in np.linspace(self.r_min, self.r_max, self.r_steps)]

    def quad(self) -> QuadratureSpec:
        return QuadratureSpec(self.quad_theta, self.quad_phi)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _parse_config_file(path: str) -> dict:
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key = value): {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def _parse_alphas(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _build_config(args: argparse.Namespace) -> SweepConfig:
    cfg = SweepConfig()
    if getattr(args, "config", None):
        raw = _parse_config_file(args.config)
        known = {
            "r_min": float, "r_max": float, "r_steps": int,
            "alpha": _parse_alphas, "truncation": int,
            "quad_theta": int, "quad_phi": int, "engine": str, "out": str,
        }
        updates = {}
        for key, val in raw.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            target = "alphas" if key == "alpha" else key
            updates[target] = known[key](val)
        cfg = replace(cfg, **updates)
    overrides = {}
    for attr in ("r_min", "r_max", "r_steps", "truncation", "quad_theta", "quad_phi",
                 "engine", "out"):
        val = getattr(args, attr, None)
        if val is not None:
            overrides[attr] = val
    if isinstance(getattr(args, "alpha", None), str):
        overrides["alphas"] = _parse_alphas(args.alpha)
    return replace(cfg, **overrides)


def _resolve_engine(engine: str, alpha: float) -> str:
    if engine == "auto":
        return "oracle" if alpha <= ORACLE_ALPHA_MAX else "analytic"
    if engine == "oracle" and alpha > ORACLE_ALPHA_MAX:
        raise SystemExit(
            f"oracle engine is limited to alpha <= {ORACLE_ALPHA_MAX:g} "
            f"(got alpha={alpha:g}); use --engine analytic"
        )
    return engine


def _check_truncation(dim: int, alpha: float, direction: Direction) -> None:
    """Reject a Fock cutoff the coherent-state oracle cannot use, before any work."""
    if dim < 2:
        raise SystemExit(f"--truncation must be at least 2, got {dim}")
    if direction is Direction.C_TO_P and dim % 2:
        raise SystemExit(f"--truncation must be even for c-to-p (parity readout), got {dim}")
    tail = coherent_tail_mass(alpha, dim)
    if tail > COHERENT_TAIL_TOL:
        raise SystemExit(
            f"--truncation {dim} is too small for alpha={alpha:g}: coherent tail mass "
            f"{tail:.3e} exceeds {COHERENT_TAIL_TOL:g} (default cutoff {default_fock_dim(alpha)})"
        )


def _negativity_value(params: ChannelParams, engine: str, truncation: int | None) -> float:
    if engine == "analytic":
        return negativity_pc_closed(params)
    dim = truncation or default_fock_dim(params.alpha)
    return negativity_numeric(rho_pc_analytic(params, dim))


def _alpha_tag(alpha: float) -> str:
    return format(alpha, "g")


# ---------------------------------------------------------------------------
# figure command


def cmd_figure(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    fig = args.id
    out = Path(cfg.out or f"{fig}.csv")
    rs = cfg.r_grid()

    if fig == "fig1":
        alphas = cfg.alphas or FIGURE_ALPHAS["fig1"]
        engines = {a: _resolve_engine(cfg.engine if cfg.engine != "both" else "auto", a)
                   for a in alphas}
        header = ["r", "N_ps"] + [f"N_pc_a{_alpha_tag(a)}" for a in alphas] + ["engine"]
        tag = sorted(set(engines.values()))
        rows = []
        for r in rs:
            row = [r, negativity_ps_analytic(math.sqrt(1 - r * r))]
            for a in alphas:
                row.append(_negativity_value(ChannelParams.from_r(r, a), engines[a],
                                             cfg.truncation))
            row.append(tag[0] if len(tag) == 1 else "mixed")
            rows.append(row)
        _write_csv(out, header, rows)
        print(out)
        return 0

    if cfg.engine == "oracle":
        raise SystemExit(f"{fig} is produced from the closed forms; use --engine analytic/auto")

    if fig == "fig2":
        alphas = cfg.alphas or FIGURE_ALPHAS["fig2"]
        header = ["r", "F_p_to_c", "F_c_to_p", "F_cl_p_to_c", "F_cl_c_to_p", "engine"]
        written = []
        for a in alphas:
            rows = []
            for r in rs:
                params = ChannelParams.from_r(r, a)
                rows.append([
                    r,
                    avg_fidelity(Direction.P_TO_C, params),
                    avg_fidelity(Direction.C_TO_P, params),
                    classical_limit(Direction.P_TO_C, params),
                    classical_limit(Direction.C_TO_P, params),
                    "analytic",
                ])
            panel = out.with_name(f"{out.stem}_alpha{_alpha_tag(a)}{out.suffix}")
            _write_csv(panel, header, rows)
            written.append(panel)
        print("\n".join(str(p) for p in written))
        return 0

    if fig == "fig3":
        alphas = cfg.alphas or FIGURE_ALPHAS["fig3"]
        header = ["r", "P_p_to_c"] + [f"P_c_to_p_a{_alpha_tag(a)}" for a in alphas] + ["engine"]
        rows = []
        for r in rs:
            row = [r, (1 - r * r) / 2]
            for a in alphas:
                row.append(avg_success_probability(Direction.C_TO_P, ChannelParams.from_r(r, a)))
            row.append("analytic")
            rows.append(row)
        _write_csv(out, header, rows)
        print(out)
        return 0

    if fig == "fig4":
        header = ["r", "F_p_to_s", "F_s_to_p", "P_p_to_s", "P_s_to_p", "engine"]
        rows = []
        for r in rs:
            params = ChannelParams.from_r(r, 1.0)
            rows.append([
                r,
                avg_fidelity(Direction.P_TO_S, params),
                avg_fidelity(Direction.S_TO_P, params),
                avg_success_probability(Direction.P_TO_S, params),
                avg_success_probability(Direction.S_TO_P, params),
                "analytic",
            ])
        _write_csv(out, header, rows)
        print(out)
        return 0

    if fig == "fig5":
        alphas = cfg.alphas or FIGURE_ALPHAS["fig5"]
        header = (["r", "P_p_to_c"]
                  + [f"P_post_c_to_p_a{_alpha_tag(a)}" for a in alphas]
                  + ["P_p_to_s", "P_post_s_to_p", "engine"])
        rows = []
        for r in rs:
            t2 = 1 - r * r
            row = [r, t2 / 2]
            for a in alphas:
                row.append(avg_success_probability(
                    Direction.C_TO_P, ChannelParams.from_r(r, a), postselected=True))
            params = ChannelParams.from_r(r, 1.0)
            row.append(t2 / 2)
            row.append(avg_success_probability(Direction.S_TO_P, params, postselected=True))
            row.append("analytic")
            rows.append(row)
        _write_csv(out, header, rows)
        print(out)
        return 0

    raise SystemExit(f"unknown figure id {fig!r}")


# ---------------------------------------------------------------------------
# negativity and average sweeps (long format, engine per row)


def cmd_negativity(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    alphas = cfg.alphas or FIGURE_ALPHAS["fig1"]
    out = Path(cfg.out or "negativity.csv")
    header = ["r", "channel", "alpha", "negativity", "engine"]
    rows = []
    for r in cfg.r_grid():
        rows.append([r, "ps", "", negativity_ps_analytic(math.sqrt(1 - r * r)), "analytic"])
        for a in alphas:
            params = ChannelParams.from_r(r, a)
            if cfg.engine == "both":
                engines = ("analytic", "oracle") if a <= ORACLE_ALPHA_MAX else ("analytic",)
            else:
                engines = (_resolve_engine(cfg.engine, a),)
            for eng in engines:
                rows.append([r, "pc", a, _negativity_value(params, eng, cfg.truncation), eng])
    _write_csv(out, header, rows)
    print(out)
    return 0


def cmd_average(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    if cfg.engine in ("oracle", "both"):
        raise SystemExit("averages are closed-form only; the oracle cross-check lives in `verify`")
    alphas = cfg.alphas or (1.0,)
    directions = ([Direction.parse(args.direction)] if args.direction != "all"
                  else list(Direction))
    out = Path(cfg.out or "average.csv")
    header = ["r", "alpha", "direction", "avg_fidelity", "avg_success_probability",
              "classical_limit", "avg_fidelity_postselected",
              "avg_success_postselected", "engine"]
    rows = []
    for r in cfg.r_grid():
        for a in alphas:
            params = ChannelParams.from_r(r, a)
            for d in directions:
                post_f = post_p = ""
                if d in (Direction.C_TO_P, Direction.S_TO_P):
                    post_f = avg_fidelity(d, params, postselected=True)
                    post_p = avg_success_probability(d, params, postselected=True)
                rows.append([
                    r, a, d.value,
                    avg_fidelity(d, params),
                    avg_success_probability(d, params),
                    classical_limit(d, params),
                    post_f, post_p, "analytic",
                ])
    _write_csv(out, header, rows)
    print(out)
    return 0


# ---------------------------------------------------------------------------
# single-shot teleport


def cmd_teleport(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    direction = Direction.parse(args.direction)
    alpha = cfg.alphas[0] if cfg.alphas else 1.0
    if args.t is not None and args.r is not None:
        raise SystemExit("give either --t or --r, not both")
    if args.t is not None:
        params = ChannelParams(t=args.t, alpha=alpha)
    else:
        params = ChannelParams.from_r(args.r if args.r is not None else 0.0, alpha)
    inp = BlochInput(theta=args.theta, phi=args.phi)
    engine = cfg.engine if cfg.engine != "auto" else "analytic"
    if engine in ("oracle", "both") and params.alpha > ORACLE_ALPHA_MAX:
        raise SystemExit(f"oracle engine is limited to alpha <= {ORACLE_ALPHA_MAX:g}")
    fock_oracle = engine in ("oracle", "both") and direction in (Direction.P_TO_C, Direction.C_TO_P)
    if fock_oracle and cfg.truncation is not None:
        _check_truncation(cfg.truncation, params.alpha, direction)

    record = {
        "direction": direction.value,
        "theta": inp.theta,
        "phi": inp.phi,
        "t": params.t,
        "r": params.r,
        "alpha": params.alpha,
        "engine": engine,
        "postselected": bool(args.postselected),
    }
    post = bool(args.postselected)
    if post and direction not in (Direction.C_TO_P, Direction.S_TO_P):
        raise SystemExit("postselection applies to teleportation onto polarization")
    if engine in ("analytic", "both"):
        record["analytic"] = {
            "fidelity": per_input_fidelity(direction, inp, params, postselected=post),
            "success_probability": per_input_success_probability(direction, inp, params,
                                                                 postselected=post),
            "outcomes": branch_probabilities_analytic(direction, inp, params),
        }
    if engine in ("oracle", "both"):
        summary = pipeline_summary(direction, inp, params, dim=cfg.truncation,
                                   postselected=post)
        record["oracle"] = {
            "fidelity": summary["fidelity"],
            "success_probability": summary["success_probability"],
            "outcomes": [
                {"label": o.label, "probability": o.probability,
                 "correction": o.correction, "success": o.success}
                for o in summary["outcomes"]
            ],
        }
    text = json.dumps(record, indent=2, sort_keys=True)
    if cfg.out:
        Path(cfg.out).parent.mkdir(parents=True, exist_ok=True)
        Path(cfg.out).write_text(text + "\n")
        print(cfg.out)
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    kwargs = {"spec": cfg.quad()}
    if cfg.alphas is not None:
        kwargs["alphas"] = cfg.alphas
    if args.quick:
        kwargs["pipeline_r"] = (0.0, 0.6)
        kwargs["oracle_alphas"] = (0.5, 1.0)
        kwargs["angle_grid"] = (4, 6)
    report = verify_mod.run_battery(r_grid=tuple(cfg.r_grid()), **kwargs)
    print(verify_mod.format_report(report))
    if cfg.out:
        Path(cfg.out).parent.mkdir(parents=True, exist_ok=True)
        Path(cfg.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {cfg.out}")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", help="output path")
    parser.add_argument("--engine", choices=["auto", "analytic", "oracle", "both"])
    parser.add_argument("--r-min", dest="r_min", type=float)
    parser.add_argument("--r-max", dest="r_max", type=float)
    parser.add_argument("--r-steps", dest="r_steps", type=int)
    parser.add_argument("--alpha", help="comma-separated amplitude list")
    parser.add_argument("--truncation", type=int, help="Fock cutoff override")
    parser.add_argument("--quad-theta", dest="quad_theta", type=int)
    parser.add_argument("--quad-phi", dest="quad_phi", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybrid-teleport",
        description="teleportation between polarization and field-mode qubits under photon loss",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="CSV data behind one reference figure")
    p_fig.add_argument("id", choices=["fig1", "fig2", "fig3", "fig4", "fig5"])
    _add_common(p_fig)
    p_fig.set_defaults(func=cmd_figure)

    p_neg = sub.add_parser("negativity", help="negativity sweep (long-format CSV)")
    _add_common(p_neg)
    p_neg.set_defaults(func=cmd_negativity)

    p_avg = sub.add_parser("average", help="averaged fidelity/probability sweep (CSV)")
    p_avg.add_argument("--direction", default="all",
                       help="p-to-c, c-to-p, p-to-s, s-to-p or all")
    _add_common(p_avg)
    p_avg.set_defaults(func=cmd_average)

    p_tel = sub.add_parser("teleport", help="single teleportation evaluation (JSON)")
    p_tel.add_argument("--direction", required=True)
    p_tel.add_argument("--theta", type=float, required=True)
    p_tel.add_argument("--phi", type=float, required=True)
    p_tel.add_argument("--t", type=float)
    p_tel.add_argument("--r", type=float)
    p_tel.add_argument("--postselected", action="store_true")
    _add_common(p_tel)
    p_tel.set_defaults(func=cmd_teleport)

    p_ver = sub.add_parser("verify", help="oracle-vs-closed-form battery")
    p_ver.add_argument("--quick", action="store_true",
                       help="reduced pipeline grid for smoke runs")
    _add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
