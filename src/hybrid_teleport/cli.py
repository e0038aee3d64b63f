"""Command-line front end: figure data, sweeps, single-shot runs, verification.

One table, ``_COMMANDS``, builds the subcommands (figure, negativity, average,
teleport, verify): each one's handler, help, own arguments and the common options
it reads, as flags or config-file keys; any other common option is refused.

All CSV output is deterministic: fixed column order, floats at 12 significant
digits, '\\n' line endings, every CSV's rows formatted by ``_csv_lines`` in one
``%`` pass over a row template. ``main`` parses with one parser, built on its
first call and kept until ``_parser.cache_clear()``. Oracle (brute-force)
evaluations are limited to alpha <= 2; larger amplitudes are served by the
closed forms and marked engine=analytic.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .averages import (
    QuadratureSpec,
    _fidelities,
    _successes,
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
    check_postselection,
    closed_summary,
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


def _csv_lines(n: int, rows: list[list]) -> list[str]:
    # at each of n points, a line per row of cells: fixed text, a formatted column (list of
    # str) or a float column, written into the template once if it holds one value, bit for bit
    from itertools import chain
    template, columns = [], []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell.replace("%", "%%"))
            elif isinstance(cell, list):
                cells.append("%s")
                columns.append(cell)
            else:
                cell = np.asarray(cell, dtype=float)
                if cell.size and (cell.view(np.int64) == cell.view(np.int64)[0]).all():
                    cells.append("%.12g" % cell[0])
                else:
                    cells.append("%.12g")
                    columns.append(cell.tolist())
        template.append(",".join(cells) + "\n")
    return ("".join(template) * n % tuple(chain.from_iterable(zip(*columns)))).split("\n")[:-1]


def _write_csv(path: Path, header: list[str], rows: list[str]) -> None:
    # one data line per row, as _csv_lines formats them
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([",".join(header), *rows, ""]), encoding="ascii")


def _parse_alphas(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


# options shared by the subcommands, each both a flag (--r-min) and a config-file key
# (r_min) read by the same parser: key -> (parser, further argparse settings)
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


def _parse_config_file(path: str, keys: tuple[str, ...]) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: "
                         f"{getattr(exc, 'strerror', None) or exc}") from None
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key = value): {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in keys:
            raise ValueError(f"unknown config key {key!r}")
        try:
            values[key] = _COMMON_OPTIONS[key][0](val)
        except ValueError:
            raise ValueError(f"invalid value for config key {key!r}: {val!r}") from None
    return values


def _build_config(args: argparse.Namespace) -> SweepConfig:
    """The config file's settings, if one is given, with the flags on top."""
    try:
        given = _parse_config_file(args.config, args.keys) if args.config else {}
        given.update((key, getattr(args, key)) for key in args.keys
                     if getattr(args, key) is not None)
        if "alpha" in given:
            given["alphas"] = given.pop("alpha")
        return SweepConfig(**given)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _resolve_engine(engine: str, alpha: float) -> str:
    if engine == "auto":
        return "oracle" if alpha <= ORACLE_ALPHA_MAX else "analytic"
    if engine in ("oracle", "both") and alpha > ORACLE_ALPHA_MAX:
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


def _half_survival(r: np.ndarray, alpha: float, run) -> np.ndarray:
    return (1 - r * r) / 2  # t^2/2, the p->c and p->s success probability at any amplitude


_at = ChannelParams.from_r

# Each figure: (default amplitudes, one CSV per amplitude?, columns). A column is
# (header, its values over the r grid at (r, alpha, run)) with run = (engine, truncation);
# a header with "{a}" repeats for each amplitude, any other is taken at the CSV's first
# amplitude. The values look the library functions up by name when called.
_FIGURES = {
    "fig1": (NEGATIVITY_ALPHAS, False, (
        ("N_ps", lambda r, a, run: list(map(negativity_ps_analytic, np.sqrt(1 - r * r).tolist()))),
        ("N_pc_a{a}", lambda r, a, run: [_negativity_value(_at(x, a), *run) for x in r.tolist()]),
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
    if len(set(map(_alpha_tag, alphas))) < len(alphas):
        raise SystemExit(f"{fig} amplitudes must differ in 6 significant digits, the "
                         f"precision of its file and column names: {','.join(map(repr, alphas))}")
    if fig != "fig1" and cfg.engine in ("oracle", "both"):
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
    r = np.array(cfg.r_grid())
    for path, amps in csvs:
        cols = [(name.format(a=_alpha_tag(a)), value, a) for name, value in columns
                for a in (amps if "{a}" in name else amps[:1])]
        row = [r, *(np.asarray(value(r, a, (engines[a], cfg.truncation)))
                    for _, value, a in cols), tag]
        _write_csv(path, ["r"] + [name for name, _, _ in cols] + ["engine"],
                   _csv_lines(r.size, [row]))
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
    r = np.array(cfg.r_grid())
    r_cells = _csv_lines(r.size, [[r]])  # formatted once, shared by every row at a point
    ps, pc = (value for _, value in _FIGURES["fig1"][2])  # fig1's two columns, in long format
    rows = [[r_cells, "ps", "", np.asarray(ps(r, None, None)), "analytic"]]
    rows += [[r_cells, "pc", "%.12g" % a, np.asarray(pc(r, a, (eng, cfg.truncation))), eng]
             for a in alphas for eng in engines[a]]
    _write_csv(out, ["r", "channel", "alpha", "negativity", "engine"], _csv_lines(r.size, rows))
    print(out)
    return 0


def cmd_average(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
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
    r = np.array(cfg.r_grid())
    r_cells = _csv_lines(r.size, [[r]])  # formatted once, shared by every row at a point
    rows = []
    for a in alphas:
        grid = ChannelParams.from_r(r, a)
        for d in directions:
            # a direction's plain and postselected columns share one evaluation of their
            # common piece
            flags = (False, True) if d.onto_polarization else (False,)
            fidelity, success = _fidelities(d, grid, flags), _successes(d, grid, flags)
            post = [fidelity[1], success[1]] if d.onto_polarization else ["", ""]
            rows.append([r_cells, "%.12g" % a, d.value, fidelity[0], success[0],
                         classical_limit(d, grid), *post, "analytic"])
    _write_csv(out, header, _csv_lines(r.size, rows))
    print(out)
    return 0


# ---------------------------------------------------------------------------
# single-shot teleport


def cmd_teleport(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    if cfg.alphas is not None and len(cfg.alphas) > 1:
        raise SystemExit(f"teleport takes one amplitude, got {len(cfg.alphas)}: "
                         + ",".join(f"{a:g}" for a in cfg.alphas))
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
    engine = "analytic" if cfg.engine == "auto" else _resolve_engine(cfg.engine, params.alpha)
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
    for name in ("analytic", "oracle"):
        if engine not in (name, "both"):
            continue
        try:
            summary = (closed_summary(direction, inp, params, postselected=post)
                       if name == "analytic" else
                       pipeline_summary(direction, inp, params, dim=cfg.truncation,
                                        postselected=post))
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        record[name] = {key: summary[key]
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


# name -> (handler, help, own arguments as (flag, argparse settings), the common options
# it reads); argparse and _build_config refuse any other common option, flag or key
_COMMANDS = {
    "figure": (cmd_figure, "CSV data behind one reference figure",
               (("id", {"choices": list(_FIGURES)}),),
               ("out", "alpha", "r_min", "r_max", "r_steps", "engine", "truncation")),
    "negativity": (cmd_negativity, "negativity sweep (long-format CSV)", (),
                   ("out", "alpha", "r_min", "r_max", "r_steps", "engine", "truncation")),
    "average": (cmd_average, "averaged fidelity/probability sweep (CSV)",
                (("--direction", {"default": "all",
                                  "help": "p-to-c, c-to-p, p-to-s, s-to-p or all"}),),
                ("out", "alpha", "r_min", "r_max", "r_steps")),
    "teleport": (cmd_teleport, "single teleportation evaluation (JSON)",
                 (("--direction", {"required": True}),
                  ("--theta", {"type": float, "required": True}),
                  ("--phi", {"type": float, "required": True}),
                  ("--t", {"type": float}), ("--r", {"type": float}),
                  ("--postselected", {"action": "store_true"})),
                 ("out", "alpha", "engine", "truncation")),
    "verify": (cmd_verify, "oracle-vs-closed-form battery",
               (("--quick", {"action": "store_true",
                             "help": "reduced pipeline grid for smoke runs"}),),
               ("out", "alpha", "r_min", "r_max", "r_steps", "quad_theta", "quad_phi")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybrid-teleport",
        description="teleportation between polarization and field-mode qubits under photon loss",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments, keys) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, settings in arguments:
            command.add_argument(flag, **settings)
        command.add_argument("--config", help="flat key = value config file")
        for key in keys:
            parse, settings = _COMMON_OPTIONS[key]
            command.add_argument("--" + key.replace("_", "-"), type=parse, **settings)
        command.set_defaults(func=handler, keys=keys)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # main's parser, built on its first call and kept until cache_clear(): argparse keeps no
    # state between parses
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
