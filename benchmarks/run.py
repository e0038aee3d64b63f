"""Benchmark of hybrid-teleport: three workloads, timed end to end and per module.

    python3 benchmarks/run.py --workload verify-full --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The program is driven only through
its public entry points (``cli.main`` in this process, ``python -m
hybrid_teleport.cli`` in a fresh one); nothing under ``src/`` is modified.
Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones of a separate traced unit (see README.md).

Workloads:
  verify-full     one ``verify``: the full oracle-vs-closed-form battery
  oneshot-cold    40 seeded ``teleport --engine both`` requests, each a fresh process
  sweep-analytic  repeated passes of seeded ``average --direction all`` commands and the
                  five figures, each timed against a reference loop run around it

``record.py`` runs all three over several seeds and prints every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("verify-full", "oneshot-cold", "sweep-analytic")
SETUP_REPEATS = 7
REQUEST_TIMEOUT_S = 60
# oneshot-cold: 40 requests leave ten samples beyond the 75th percentile
ONESHOT_MIX = {"c-to-p": 16, "p-to-c": 8, "p-to-s": 8, "s-to-p": 8}
ONESHOT_POSTSELECTABLE = ("c-to-p", "s-to-p")
ORACLE_ALPHA_RANGE = (0.1, 2.0)
ONESHOT_R_MAX = 0.95
AGREEMENT_TOL = 1e-6  # verify's pipeline-vs-closed-form tolerance
# sweep-analytic: alphas log-uniform over [1e-6, 10]; the fine r grid reaches
# the s -> 1 edge and the s->p series switch near r = 0.007
SWEEP_ALPHAS = 24
SWEEP_LOG10_ALPHA = (-6.0, 1.0)
SWEEP_R_MAX = 0.999
SWEEP_R_STEPS = 2000
SWEEP_MIN_PASSES = 4
# sweep-analytic times each command against a fixed pure-Python float loop run
# right before and after it (see README.md); latencies are given at the speed
# where that loop takes REFERENCE_S, a round figure inside the host's range
REFERENCE_STEPS = 30_000
REFERENCE_S = 0.010
SWEEP_VALUE_COLUMNS = ("avg_fidelity", "avg_success_probability", "classical_limit",
                       "avg_fidelity_postselected", "avg_success_postselected")
FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# environment and set-up


def _blas_threads() -> int | None:
    import numpy
    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
    }


def measure_setup() -> list[float]:
    """Import time of hybrid_teleport.cli, each in a fresh interpreter.

    The run reports the median of SETUP_REPEATS imports: one import takes
    about 0.3-0.5 s and a single slow window on a shared machine moves it.
    """
    code = ("import time; t = time.perf_counter(); import hybrid_teleport.cli; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                              text=True, timeout=REQUEST_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# ---------------------------------------------------------------------------
# results


class Result:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0     # outputs differing from a pinned or independent reference
        self.requests: list[float] = []
        self.planned: int | None = None  # requests in one fixed plan; sets the tail percentile
        self.unit_s: float | None = None  # wall time of the first unit (battery, plan, pass)
        self.lines: list[str] = []
        self.layers: dict[str, float] | None = None
        self.rss_mb = 0.0

    def count(self, attempted: int, failed: int, mismatches: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed
        self.mismatches += mismatches

    def show(self, name: str, value, unit: str, n: int | None = None) -> None:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        self.lines.append(f"{name:<38} {text:>14} {unit:<6}" + (f" n={n}" if n else ""))

    @property
    def correct(self) -> bool:
        return self.mismatches == 0 and self.attempted > 0


def _quiet_main(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# verify-full


def verify_unit(work: Path, tracer=None) -> tuple[float, dict, int, int]:
    from hybrid_teleport import cli
    tracing.clear_program_caches()
    out = work / "verify.json"
    c_to_p, uncount = tracing.count_calls("teleport", "teleport_c_to_p")
    remove = tracing.install(tracer) if tracer else None
    start = time.perf_counter()
    try:
        rc = _quiet_main(cli, ["verify", "--out", str(out)])
    finally:
        if remove:
            remove()
        uncount()
    elapsed = time.perf_counter() - start
    return elapsed, json.loads(out.read_text()), rc, c_to_p[0]


def run_verify(res: Result, seconds: float, work: Path, traced: bool,
               cost: metrics.SpanCost) -> None:
    pinned = json.loads((BENCH / "verify_battery.json").read_text())
    tracer = tracing.Tracer() if traced else None
    started = time.perf_counter()
    while True:
        elapsed, report, rc, c_to_p = verify_unit(work, tracer)
        failed = sum(not c["pass"] for c in report["checks"])
        wrong_size = metrics.battery_mismatches(report, c_to_p, pinned)
        res.count(len(report["checks"]) + len(wrong_size), failed + len(wrong_size),
                  mismatches=int(failed > 0 or rc != 0 or not report["passed"]) + len(wrong_size))
        res.requests.append(elapsed)
        for why in wrong_size:
            res.lines.append(f"# battery size mismatch: {why}")
        if traced or time.perf_counter() - started >= seconds:
            break
    res.unit_s = res.requests[0]
    res.show("verify_s", statistics.median(res.requests), "s", len(res.requests))
    res.lines.append(f"# verify passed={report['passed']} checks={len(report['checks'])} "
                     f"failed={failed} teleport_c_to_p calls={c_to_p}")
    if traced:
        res.layers = tracing.layer_metrics(tracer.spans, tracer.rows_written, cost)
        res.layers["verify.checks"] = float(len(report["checks"]))
        res.layers["verify.checks_failed"] = float(failed)
        _show_top(res, tracer.spans, cost)
        tracer.dump(OUT / f"trace-verify-full-{os.getpid()}.json")
    res.rss_mb = _rss_mb(resource.RUSAGE_SELF)


# ---------------------------------------------------------------------------
# oneshot-cold


def oneshot_plan(rng: random.Random) -> list[dict]:
    """One plan of requests: exact direction mix, alpha stratified over its range."""
    lo, hi = ORACLE_ALPHA_RANGE
    plan = []
    for direction, k in ONESHOT_MIX.items():
        alphas = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
        post = [False] * k
        if direction in ONESHOT_POSTSELECTABLE:
            post = [True] * (k // 2) + [False] * (k - k // 2)
            rng.shuffle(post)
        for alpha, postselected in zip(alphas, post):
            plan.append({
                "direction": direction,
                "alpha": alpha,
                "r": rng.uniform(0.0, ONESHOT_R_MAX),
                "theta": rng.uniform(0.0, math.pi),
                "phi": min(rng.uniform(0.0, 2 * math.pi), math.nextafter(2 * math.pi, 0.0)),
                "postselected": postselected,
            })
    rng.shuffle(plan)
    return plan


def request_argv(req: dict) -> list[str]:
    argv = ["teleport", "--engine", "both", "--direction", req["direction"],
            "--alpha", repr(req["alpha"]), "--r", repr(req["r"]),
            "--theta", repr(req["theta"]), "--phi", repr(req["phi"])]
    return argv + (["--postselected"] if req["postselected"] else [])


def request_ok(proc: subprocess.CompletedProcess) -> bool:
    """Exit status 0 and oracle agreeing with the closed forms within verify's tolerance."""
    if proc.returncode != 0:
        return False
    try:
        record = json.loads(proc.stdout)
        return all(
            abs(record["oracle"][key] - record["analytic"][key]) <= AGREEMENT_TOL
            for key in ("fidelity", "success_probability")
        )
    except (ValueError, KeyError, TypeError):
        return False


def send(req: dict, trace_out: Path | None = None) -> tuple[float, bool]:
    if trace_out is None:
        cmd = [sys.executable, "-m", "hybrid_teleport.cli", *request_argv(req)]
    else:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_out), *request_argv(req)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=REQUEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, False
    return time.perf_counter() - start, request_ok(proc)


def run_oneshot(res: Result, seed: int, seconds: float, work: Path, traced: bool,
                cost: metrics.SpanCost) -> None:
    rng = random.Random(seed)
    started = time.perf_counter()
    while True:
        plan = oneshot_plan(rng)
        latencies = []
        for i, req in enumerate(plan):
            latency, ok = send(req, work / f"request-{i}.json" if traced else None)
            latencies.append(latency)
            res.count(1, int(not ok), int(not ok))
        res.requests.extend(latencies)
        res.planned = len(plan)
        if res.unit_s is None:
            res.unit_s = sum(latencies)
        if traced or time.perf_counter() - started >= seconds:
            break
    summary = metrics.latency_summary(res.requests, len(plan))
    res.show("oneshot_p50_s", summary["p50"], "s", summary["n"])
    res.show(f"oneshot_p{summary['tail_pct']}_s", summary["tail"], "s", summary["n"])
    if traced:
        trace_oneshot(res, latencies, summary["tail"], work, cost)
    res.rss_mb = _rss_mb(resource.RUSAGE_CHILDREN)


def trace_oneshot(res: Result, latencies: list[float], cut: float, work: Path,
                  cost: metrics.SpanCost) -> None:
    """Merge the spans the traced children wrote; spans of a request share its id."""
    merged, per_request, rows = [], [], 0
    for i, latency in enumerate(latencies):
        out = work / f"request-{i}.json"
        dump = json.loads(out.read_text()) if out.is_file() else {"spans": [], "rows_written": 0}
        offset = len(merged)
        merged.extend((n, a, b, None if p is None else p + offset, info)
                      for n, a, b, p, info in dump["spans"])
        per_request.append({"request": i, "latency": latency, "spans": dump["spans"]})
        rows += dump["rows_written"]
    res.layers = tracing.layer_metrics(merged, rows, cost)
    # the requests above the tail percentile, and where their time went
    tail = [r for r in per_request if r["latency"] > cut]
    tail_time = sum(r["latency"] for r in tail)
    shares = {}
    for r in tail:
        for (name, a, b, p, info), own in zip(r["spans"], metrics.self_times(r["spans"], cost)):
            key = f"{name}.build" if info and info.get("miss") else name
            shares[key] = shares.get(key, 0.0) + own
    shares["interpreter start and exit"] = tail_time - sum(shares.values())
    res.layers["fock.beam_splitter_50_50.tail_share"] = (
        shares.get("fock.beam_splitter_50_50.build", 0.0) / tail_time if tail_time else 0.0)
    builds = [(b - a, info["bytes"]) for n, a, b, p, info in merged
              if n == tracing.CACHED and info["miss"]]
    if builds:
        seconds, nbytes = max(builds)
        dim = round((nbytes / 16) ** 0.25)  # a complex d^2 x d^2 operator
        res.lines.append(f"# slowest beam-splitter build: {seconds:.4g} s at d = {dim}")
    res.lines.append(f"# {len(tail)} requests above the tail ({cut:.4g} s), {tail_time:.4g} s; "
                     "share of their time by span (self time):")
    for name, value in sorted(shares.items(), key=lambda kv: -kv[1])[:6]:
        res.lines.append(f"#   {name:<40} {value / tail_time:7.2%}")
    _show_top(res, merged, cost)
    (OUT / f"trace-oneshot-cold-{os.getpid()}.json").write_text(json.dumps(per_request))


# ---------------------------------------------------------------------------
# sweep-analytic


def sweep_alphas(rng: random.Random) -> list[float]:
    """Log-uniform alphas, one per equal slice of the exponent range.

    Stratified so that every pass mixes small and large amplitudes alike:
    the closed forms take different paths (series, algebra) by amplitude,
    and the cost of a pass follows the mix.
    """
    lo, hi = SWEEP_LOG10_ALPHA
    return [10 ** (lo + (hi - lo) * (i + rng.random()) / SWEEP_ALPHAS)
            for i in range(SWEEP_ALPHAS)]


def sweep_pass(alphas: list[float], work: Path, tracer=None) -> dict:
    """One pass in this process: an `average --direction all` command per alpha, then the figures.

    Each command is one request. Returns the latency of each and where the
    CSVs went; a command that raises is recorded as an error, not re-raised.
    """
    from hybrid_teleport import cli
    tracing.clear_program_caches()
    shutil.rmtree(work / "sweep", ignore_errors=True)
    commands = [("average", work / "sweep" / f"average-{i}.csv",
                 ["average", "--direction", "all", "--alpha", repr(alpha), "--r-min", "0",
                  "--r-max", repr(SWEEP_R_MAX), "--r-steps", str(SWEEP_R_STEPS)])
                for i, alpha in enumerate(alphas)]
    commands += [("figure", work / "sweep" / "figures" / f"{fig}.csv", ["figure", fig])
                 for fig in FIGURES]
    latencies = {"average": [], "figure": []}
    errors = []
    refs = [reference_loop()]
    remove = tracing.install(tracer) if tracer else None
    try:
        for kind, out, argv in commands:
            start = time.perf_counter()
            try:
                _quiet_main(cli, argv + ["--out", str(out)])
            except Exception as exc:  # a command that raises is a failed operation
                errors.append(f"{argv[0]} {argv[1]}: {exc!r}")
            latencies[kind].append(time.perf_counter() - start)
            refs.append(reference_loop())
    finally:
        if remove:
            remove()
    calibrated = [metrics.calibrated(t, a, b, REFERENCE_S) for t, a, b in
                  zip(latencies["average"] + latencies["figure"], refs, refs[1:])]
    return {"average": latencies["average"], "figure": latencies["figure"], "errors": errors,
            "calibrated": calibrated, "refs": refs, "dir": work / "sweep"}


def reference_loop() -> float:
    """Wall time of a fixed pure-Python float loop, the kind of work the closed forms do."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, REFERENCE_STEPS):
        x = i * 1e-5
        acc += math.log1p(x) * math.sqrt(x) / (1.0 + x * x) + math.atanh(0.5 * x)
    return time.perf_counter() - start


def check_sweep(res: Result, p: dict, digests: dict, causes: dict,
                first: dict[str, str] | None) -> tuple[int, dict[str, str]]:
    """Count the failed rows and figure files of one pass.

    The first pass checks every row: one operation each. A later pass repeats
    the same commands, so each of its `average` CSVs must be byte-identical to
    the first pass's: one operation per file. Returns the rows written and
    the digests of this pass's `average` CSVs.
    """
    expected_rows = SWEEP_R_STEPS * 4 * len(p["average"])
    rows, bad_rows, mismatches = 0, 0, len(p["errors"])
    seen = {}
    for path in sorted(p["dir"].glob("average-*.csv")):
        data = path.read_bytes()
        seen[path.name] = hashlib.sha256(data).hexdigest()
        lines = data.decode("ascii").splitlines()
        rows += len(lines) - 1
        if first is not None:
            bad_rows += seen[path.name] != first.get(path.name)
            continue
        header = lines[0].split(",")
        cols = [header.index(c) for c in SWEEP_VALUE_COLUMNS]
        direction = header.index("direction")
        for line in lines[1:]:
            cells = line.split(",")
            bad = [c for c in cols if cells[c] and metrics.out_of_unit_range(float(cells[c]))]
            if bad:
                bad_rows += 1
                mismatches += any(not math.isfinite(float(cells[c])) for c in bad)
                for c in bad:
                    key = f"{cells[direction]} {header[c]}"
                    causes[key] = causes.get(key, 0) + 1
    if first is None:
        attempted, missing = expected_rows, max(0, expected_rows - rows)
    else:
        attempted, missing = len(p["average"]), len(p["average"]) - len(seen)
        mismatches += bad_rows
    mismatches += int(missing > 0)
    files = {f.name: f.read_bytes() for f in (p["dir"] / "figures").glob("*.csv")}
    bad_figs = metrics.digest_mismatches(files, digests)
    mismatches += len(bad_figs)
    res.count(attempted + len(digests), bad_rows + missing + len(bad_figs), mismatches)
    for name in bad_figs:
        res.lines.append(f"# figure digest mismatch: {name}")
    for err in p["errors"]:
        res.lines.append(f"# command failed: {err}")
    return rows, seen


def run_sweep(res: Result, seed: int, seconds: float, work: Path, traced: bool,
              cost: metrics.SpanCost) -> None:
    """Repeat one seeded pass; a command's latency is the median of its calibrated repeats.

    The host's speed for interpreter-bound code switches by about 1.6x, in
    phases from seconds to minutes. Each command's wall time is rescaled by
    the reference loop timed around it, so runs at different times compare.
    """
    digests = json.loads((BENCH / "figure_digests.json").read_text())
    alphas = sweep_alphas(random.Random(seed))
    causes: dict[str, int] = {}
    pass_times, latencies, refs = [], [], []
    first = None
    tracer = tracing.Tracer() if traced else None
    started = time.perf_counter()
    while True:
        p = sweep_pass(alphas, work, tracer)
        rows, seen = check_sweep(res, p, digests, causes, first)
        first = first or seen
        latencies.append(p["calibrated"])
        refs.extend(p["refs"])
        pass_times.append(sum(p["average"]) + sum(p["figure"]))
        done = len(pass_times) >= SWEEP_MIN_PASSES and time.perf_counter() - started >= seconds
        if done or traced:
            break
    res.requests = [statistics.median(repeats) for repeats in zip(*latencies)]
    res.show("sweep_rows_per_s", rows / sum(res.requests[:len(alphas)]), "1/s", len(pass_times))
    res.show("figures_s", sum(res.requests[len(alphas):]), "s", len(pass_times))
    res.show("sweep_pass_s", sum(res.requests), "s", len(pass_times))
    res.show("machine_speed", REFERENCE_S / statistics.median(refs), "ratio", len(refs))
    res.unit_s = pass_times[0]
    if traced:
        res.layers = tracing.layer_metrics(tracer.spans, tracer.rows_written, cost)
        _show_top(res, tracer.spans, cost)
        tracer.dump(OUT / f"trace-sweep-analytic-{os.getpid()}.json")
    for key, n in sorted(causes.items(), key=lambda kv: -kv[1]):
        res.lines.append(f"# rows outside [0, 1]: {n:>6}  {key}")
    res.rss_mb = _rss_mb(resource.RUSAGE_SELF)


# ---------------------------------------------------------------------------


def _show_top(res: Result, spans, cost: metrics.SpanCost) -> None:
    res.lines.append(f"# largest self time by span (tracer time per span taken off: "
                     f"{cost.inside * 1e6:.3g} us inside, "
                     f"{cost.outside * 1e6:.3g} us in the parent):")
    for name, own in tracing.top_self_times(spans, cost):
        res.lines.append(f"#   {name:<40} {own:10.4f} s")


REQUEST_MEANING = {
    "verify-full": "one verify battery",
    "oneshot-cold": "one teleport process",
    "sweep-analytic": ("one average command (one alpha) or one figure command, "
                       "calibrated, median of its repeats"),
}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[Result, dict]:
    res = Result()
    work = OUT / f"work-{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if traced else measure_setup()
        cost = tracing.span_cost() if traced else metrics.SpanCost()
        if name == "verify-full":
            run_verify(res, seconds, work, traced, cost)
        elif name == "oneshot-cold":
            run_oneshot(res, seed, seconds, work, traced, cost)
        else:
            run_sweep(res, seed, seconds, work, traced, cost)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lat = metrics.latency_summary(res.requests, res.planned)
    fails = metrics.failure_summary(res.attempted, res.failed)
    res.show("unit_s", res.unit_s, "s")
    if setup:
        res.show("setup_s", statistics.median(setup), "s", len(setup))
    res.show("peak_rss_mb", res.rss_mb, "MB")
    res.show("failed_ratio", fails["failed_ratio"], "ratio", fails["attempted"])
    res.lines.append(f"# attempted={fails['attempted']} failed={fails['failed']} "
                     f"correct={res.correct}")
    if traced:
        res.layers["trace.wall_s"] = res.unit_s
        res.layers["trace.span_cost_s"] = sum(cost)
        for key, unit in tracing.LAYER_METRICS.items():
            res.show(key, res.layers[key], unit)
        values = res.layers
        units = tracing.LAYER_METRICS
    else:
        values = {
            "setup_s": statistics.median(setup),
            "request_p50_s": lat["p50"],
            "request_tail_s": lat["tail"],
            "peak_rss_mb": res.rss_mb,
        }
        units = {"setup_s": "s", "request_p50_s": "s", "request_tail_s": "s", "peak_rss_mb": "MB"}
        res.lines.append(f"# request = {REQUEST_MEANING[name]}; tail = "
                         + (f"p{lat['tail_pct']}" if lat["tail_pct"] else "max")
                         + f" of n={lat['n']}")
    return res, {k: {"value": float(values[k]), "unit": units[k]} for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hybrid_teleport" / "cli.py").is_file():
        print(f"error: no hybrid_teleport sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)

    print("# env " + json.dumps(environment(), sort_keys=True))
    res, values = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("\n".join(res.lines))
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
