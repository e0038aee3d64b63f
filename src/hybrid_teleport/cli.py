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
from dataclasses import dataclass
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
    check_postselection,
    per_input_fidelity,
    per_input_success_probability,
    pipeline_summary,
)

ORACLE_ALPHA_MAX = 2.0
ENGINES = ("auto", "analytic", "oracle", "both")

NEGATIVITY_ALPHAS = (0.5, 1.0, 2.0)  # fig1's amplitudes


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
        for a in self.alphas or ():
            ChannelParams(1.0, a)  # rejects an amplitude no closed form can take
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        self.quad()  # rejects a quadrature grid too small to use

    def r_grid(self) -> list[float]:
        return [float(x) for x in np.linspace(self.r_min, self.r_max, self.r_steps)]

    def quad(self) -> QuadratureSpec:
        return QuadratureSpec(self.quad_theta, self.quad_phi)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    # one '%' template per row type signature: floats (subclasses too) at 12 digits, else str
    path.parent.mkdir(parents=True, exist_ok=True)
    templates = {}
    lines = [",".join(header)]
    for row in rows:
        types = tuple(map(type, row))
        template = templates.get(types)
        if template is None:
            template = templates[types] = ",".join("%.12g" if issubclass(kind, float) else "%s"
                                                   for kind in types)
        lines.append(template % tuple(row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _parse_alphas(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


# options common to every subcommand, each both a flag (--r-min) and a config-file
# key (r_min) read by the same parser: key -> (parser, further argparse settings)
_COMMON_OPTIONS = {
    "out": (str, {"help": "output path"}),
    "engine": (str, {"choices": ENGINES}),
    "r_min": (float, {}),
    "r_max": (float, {}),
    "r_steps": (int, {}),
    "alpha": (_parse_alphas, {"help": "comma-separated amplitude list"}),
    "truncation": (int, {"help": "Fock cutoff override"}),
    "quad_theta": (int, {}),
    "quad_phi": (int, {}),
}


def _parse_config_file(path: str) -> dict:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key = value): {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _COMMON_OPTIONS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = _COMMON_OPTIONS[key][0](val)
    return values


def _build_config(args: argparse.Namespace) -> SweepConfig:
    """The config file's settings, if one is given, with the flags on top."""
    try:
        given = _parse_config_file(args.config) if args.config else {}
        given.update((key, getattr(args, key)) for key in _COMMON_OPTIONS
                     if getattr(args, key) is not None)
        if "alpha" in given:
            given["alphas"] = given.pop("alpha")
        return SweepConfig(**given)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _resolve_engine(engine: str, alpha: float) -> str:
    if engine == "auto":
        return "oracle" if alpha <= ORACLE_ALPHA_MAX else "analytic"
    if engine == "oracle" and alpha > ORACLE_ALPHA_MAX:
        raise SystemExit(
            f"oracle engine is limited to alpha <= {ORACLE_ALPHA_MAX:g} "
            f"(got alpha={alpha:g}); use --engine analytic"
        )
    return engine


def _check_truncation(dim: int | None, alpha: float, even: bool = False) -> None:
    """Reject a Fock cutoff the coherent-state oracle cannot use, before any work."""
    if dim is None:
        return
    if dim < 2:
        raise SystemExit(f"--truncation must be at least 2, got {dim}")
    if even and dim % 2:
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


def _half_survival(r: float, alpha: float, run) -> float:
    return (1 - r * r) / 2  # t^2/2, the p->c and p->s success probability at any amplitude


_at = ChannelParams.from_r

# Each figure: (default amplitudes, one CSV per amplitude?, columns). A column is
# (header, value at (r, alpha, run)) with run = (engine, truncation); a header with
# "{a}" repeats for each amplitude, any other is taken at the CSV's first amplitude.
# The values look the library functions up by name when called.
_FIGURES = {
    "fig1": (NEGATIVITY_ALPHAS, False, (
        ("N_ps", lambda r, a, run: negativity_ps_analytic(math.sqrt(1 - r * r))),
        ("N_pc_a{a}", lambda r, a, run: _negativity_value(_at(r, a), *run)),
    )),
    "fig2": ((0.1, 1.0, 2.0, 10.0), True, (
        ("F_p_to_c", lambda r, a, run: avg_fidelity(Direction.P_TO_C, _at(r, a))),
        ("F_c_to_p", lambda r, a, run: avg_fidelity(Direction.C_TO_P, _at(r, a))),
        ("F_cl_p_to_c", lambda r, a, run: classical_limit(Direction.P_TO_C, _at(r, a))),
        ("F_cl_c_to_p", lambda r, a, run: classical_limit(Direction.C_TO_P, _at(r, a))),
    )),
    "fig3": ((0.1, 1.0, 0.54, 10.0), False, (
        ("P_p_to_c", _half_survival),
        ("P_c_to_p_a{a}",
         lambda r, a, run: avg_success_probability(Direction.C_TO_P, _at(r, a))),
    )),
    "fig4": ((1.0,), False, (
        ("F_p_to_s", lambda r, a, run: avg_fidelity(Direction.P_TO_S, _at(r, 1.0))),
        ("F_s_to_p", lambda r, a, run: avg_fidelity(Direction.S_TO_P, _at(r, 1.0))),
        ("P_p_to_s", lambda r, a, run: avg_success_probability(Direction.P_TO_S, _at(r, 1.0))),
        ("P_s_to_p", lambda r, a, run: avg_success_probability(Direction.S_TO_P, _at(r, 1.0))),
    )),
    "fig5": ((0.1, 1.0, 0.54, 10.0), False, (
        ("P_p_to_c", _half_survival),
        ("P_post_c_to_p_a{a}", lambda r, a, run: avg_success_probability(
            Direction.C_TO_P, _at(r, a), postselected=True)),
        ("P_p_to_s", _half_survival),
        ("P_post_s_to_p", lambda r, a, run: avg_success_probability(
            Direction.S_TO_P, _at(r, 1.0), postselected=True)),
    )),
}


def cmd_figure(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    fig = args.id
    out = Path(cfg.out or f"{fig}.csv")
    defaults, panels, columns = _FIGURES[fig]
    alphas = cfg.alphas or defaults
    if fig != "fig1" and cfg.engine == "oracle":
        raise SystemExit(f"{fig} is produced from the closed forms; use --engine analytic/auto")
    # negativity is the one figure the oracle reproduces
    engine = ("auto" if cfg.engine == "both" else cfg.engine) if fig == "fig1" else "analytic"
    engines = {a: _resolve_engine(engine, a) for a in alphas}
    for a in alphas:
        if engines[a] == "oracle":
            _check_truncation(cfg.truncation, a)
    tag = engines[alphas[0]] if len(set(engines.values())) == 1 else "mixed"
    csvs = ([(out.with_name(f"{out.stem}_alpha{_alpha_tag(a)}{out.suffix}"), (a,))
             for a in alphas] if panels else [(out, alphas)])
    for path, amps in csvs:
        cols = [(name.format(a=_alpha_tag(a)), value, a) for name, value in columns
                for a in (amps if "{a}" in name else amps[:1])]
        rows = [[r] + [value(r, a, (engines[a], cfg.truncation)) for _, value, a in cols]
                + [tag] for r in cfg.r_grid()]
        _write_csv(path, ["r"] + [name for name, _, _ in cols] + ["engine"], rows)
    print("\n".join(str(path) for path, _ in csvs))
    return 0


# ---------------------------------------------------------------------------
# negativity and average sweeps (long format, engine per row)


def cmd_negativity(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    alphas = cfg.alphas or NEGATIVITY_ALPHAS
    out = Path(cfg.out or "negativity.csv")
    if cfg.engine == "both":
        engines = {a: ("analytic", "oracle") if a <= ORACLE_ALPHA_MAX else ("analytic",)
                   for a in alphas}
    else:
        engines = {a: (_resolve_engine(cfg.engine, a),) for a in alphas}
    for a in alphas:
        if "oracle" in engines[a]:
            _check_truncation(cfg.truncation, a)
    header = ["r", "channel", "alpha", "negativity", "engine"]
    rows = []
    for r in cfg.r_grid():
        rows.append([r, "ps", "", negativity_ps_analytic(math.sqrt(1 - r * r)), "analytic"])
        for a in alphas:
            params = ChannelParams.from_r(r, a)
            for eng in engines[a]:
                rows.append([r, "pc", a, _negativity_value(params, eng, cfg.truncation), eng])
    _write_csv(out, header, rows)
    print(out)
    return 0


def cmd_average(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    if cfg.engine in ("oracle", "both"):
        raise SystemExit("averages are closed-form only; the oracle cross-check lives in `verify`")
    alphas = cfg.alphas or (1.0,)
    try:
        directions = ([Direction.parse(args.direction)] if args.direction != "all"
                      else list(Direction))
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    out = Path(cfg.out or "average.csv")
    header = ["r", "alpha", "direction", "avg_fidelity", "avg_success_probability",
              "classical_limit", "avg_fidelity_postselected",
              "avg_success_postselected", "engine"]
    named = [(d, d.value) for d in directions]
    rows = []
    for r in cfg.r_grid():
        for a in alphas:
            params = ChannelParams.from_r(r, a)
            for d, name in named:
                post_f = post_p = ""
                if d.onto_polarization:
                    post_f = avg_fidelity(d, params, postselected=True)
                    post_p = avg_success_probability(d, params, postselected=True)
                rows.append([
                    r, a, name,
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
    alpha = cfg.alphas[0] if cfg.alphas else 1.0
    if args.t is not None and args.r is not None:
        raise SystemExit("give either --t or --r, not both")
    post = bool(args.postselected)
    try:
        direction = Direction.parse(args.direction)
        if args.t is not None:
            params = ChannelParams(t=args.t, alpha=alpha)
        else:
            params = ChannelParams.from_r(args.r if args.r is not None else 0.0, alpha)
        inp = BlochInput(theta=args.theta, phi=args.phi)
        check_postselection(direction, post)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if direction.coherent and params.alpha == 0.0:
        raise SystemExit(f"{direction.value} needs alpha > 0: the two coherent basis states coincide at 0")
    engine = cfg.engine if cfg.engine != "auto" else "analytic"
    if engine in ("oracle", "both") and params.alpha > ORACLE_ALPHA_MAX:
        raise SystemExit(f"oracle engine is limited to alpha <= {ORACLE_ALPHA_MAX:g}")
    if engine in ("oracle", "both") and direction.coherent:
        _check_truncation(cfg.truncation, params.alpha, even=direction is Direction.C_TO_P)

    record = {
        "direction": direction.value,
        "theta": inp.theta,
        "phi": inp.phi,
        "t": params.t,
        "r": params.r,
        "alpha": params.alpha,
        "engine": engine,
        "postselected": post,
    }
    if engine in ("analytic", "both"):
        record["analytic"] = {
            "fidelity": per_input_fidelity(direction, inp, params, postselected=post),
            "success_probability": per_input_success_probability(direction, inp, params,
                                                                 postselected=post),
            "outcomes": branch_probabilities_analytic(direction, inp, params),
        }
    if engine in ("oracle", "both"):
        try:
            summary = pipeline_summary(direction, inp, params, dim=cfg.truncation,
                                       postselected=post)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        record["oracle"] = {key: summary[key]
                            for key in ("fidelity", "success_probability", "outcomes")}
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
    for key, (parse, settings) in _COMMON_OPTIONS.items():
        parser.add_argument("--" + key.replace("_", "-"), type=parse, **settings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybrid-teleport",
        description="teleportation between polarization and field-mode qubits under photon loss",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="CSV data behind one reference figure")
    p_fig.add_argument("id", choices=list(_FIGURES))
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
