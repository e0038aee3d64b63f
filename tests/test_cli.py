import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hybrid_teleport import averages, cli


def run(*argv):
    return cli.main(list(argv))


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# the float cells the commands write, numpy's float64 included; a column may hold one value
# throughout, which _csv_lines puts into its row template once, or repeat an earlier column
FLOATS = st.one_of(st.floats(), st.floats().map(np.float64))


def _columns(n_rows):
    drawn = st.lists(st.one_of(st.lists(FLOATS, min_size=n_rows, max_size=n_rows),
                               FLOATS.map(lambda value: [value] * n_rows)), min_size=1, max_size=6)
    return drawn.flatmap(lambda columns: st.lists(st.sampled_from(columns), max_size=3).map(
        lambda repeats: columns + repeats))


class TestCsvWriter:
    COLUMNS = [
        [0.1, np.float64(0.1), 1 / 3, np.float64(2 / 3), -7.0],
        [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324],
        [1e300, np.float64(-0.0), 1e-300, 12345678901234.5, np.float64(float("nan"))],
        [0.5] * 5, [-0.0, 0.0, 0.0, 0.0, 0.0], [0.0] + [-0.0] * 4,
    ]

    @staticmethod
    def _written(out, header, columns):
        row = [np.array(column, dtype=float) for column in columns]
        cli._write_csv(out, header, cli._csv_lines(len(columns[0]), [row]))
        return out.read_bytes()

    def test_float_columns_match_the_per_value_reference(self, tmp_path):
        header = [f"c{i}" for i in range(len(self.COLUMNS))]
        out = tmp_path / "sub" / "columns.csv"
        assert (self._written(out, header, self.COLUMNS)
                == oracles.csv_text(header, zip(*self.COLUMNS)).encode("ascii"))

    @staticmethod
    def _rows_written(out, n, rows):
        # the bytes written from _csv_lines' rows, and those of the per-value reference
        header = [f"c{i}" for i in range(len(rows[0]))]
        cli._write_csv(out, header, cli._csv_lines(n, rows))
        cells = [[cell if isinstance(cell, str) else cell[i] for cell in row]
                 for i in range(n) for row in rows]
        return out.read_bytes(), oracles.csv_text(header, cells).encode("ascii")

    def test_row_groups_match_the_per_value_reference(self, tmp_path):
        # several rows per grid point, with fixed text (a '%' included), a formatted column
        # shared by both rows, a constant column and one of +-0.0 that is not constant
        formatted = [f"p{i}" for i in range(5)]
        rows = [[formatted, "ps", "", np.array(self.COLUMNS[0]), "100%"],
                [formatted, "pc", np.array(self.COLUMNS[3]), np.array(self.COLUMNS[4]), "oracle"]]
        written, expected = self._rows_written(tmp_path / "groups.csv", 5, rows)
        assert written == expected

    X = np.array([0.1, 1 / 3, -7.0, 5e-324])
    ZEROS = np.array([0.0, 1.0, 0.0, 2.0])  # equal to NEG_ZEROS, but not bit for bit
    NEG_ZEROS = np.array([-0.0, 1.0, -0.0, 2.0])
    NANS = np.array([math.nan, 1.0, -math.nan, math.inf])

    @pytest.mark.parametrize("rows", [
        [[X, X, "x", X]],
        [[X, "a"], [X.copy(), "b"], [X[::-1][::-1], "c"]],
        [[ZEROS, NEG_ZEROS, ZEROS, NEG_ZEROS, np.zeros(4), -np.zeros(4)]],
        [[NANS, X, NANS], [np.full(4, math.nan), NANS, X]],
    ], ids=["one-row", "across-rows", "signed-zeros", "nan"])
    def test_repeated_columns_match_the_per_value_reference(self, rows, tmp_path):
        written, expected = self._rows_written(tmp_path / "repeated.csv", 4, rows)
        assert written == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=8).flatmap(_columns))
    @example([[], []])
    def test_any_float_columns_match_the_per_value_reference(self, tmp_path_factory, columns):
        header = [f"c{i}" for i in range(len(columns))]
        out = tmp_path_factory.mktemp("csv") / "columns.csv"
        assert (self._written(out, header, columns)
                == oracles.csv_text(header, zip(*columns)).encode("ascii"))


# the parser's help, usage and error texts, at an 80-column terminal
TOP_USAGE = "usage: hybrid-teleport [-h] {figure,negativity,average,teleport,verify} ...\n"
TOP_HELP = TOP_USAGE + """
teleportation between polarization and field-mode qubits under photon loss

positional arguments:
  {figure,negativity,average,teleport,verify}
    figure              CSV data behind one reference figure
    negativity          negativity sweep (long-format CSV)
    average             averaged fidelity/probability sweep (CSV)
    teleport            single teleportation evaluation (JSON)
    verify              oracle-vs-closed-form battery

options:
  -h, --help            show this help message and exit
"""
AVERAGE_HELP = """\
usage: hybrid-teleport average [-h] [--direction DIRECTION] [--config CONFIG]
                               [--out OUT] [--alpha ALPHA] [--r-min R_MIN]
                               [--r-max R_MAX] [--r-steps R_STEPS]

options:
  -h, --help            show this help message and exit
  --direction DIRECTION
                        p-to-c, c-to-p, p-to-s, s-to-p or all
  --config CONFIG       flat key = value config file
  --out OUT             output path
  --alpha ALPHA         comma-separated amplitude list
  --r-min R_MIN
  --r-max R_MAX
  --r-steps R_STEPS
"""
TELEPORT_MISSING = """\
usage: hybrid-teleport teleport [-h] --direction DIRECTION --theta THETA --phi
                                PHI [--t T] [--r R] [--postselected]
                                [--config CONFIG] [--out OUT] [--alpha ALPHA]
                                [--engine {auto,analytic,oracle,both}]
                                [--truncation TRUNCATION]
hybrid-teleport teleport: error: the following arguments are required: --direction, --theta, --phi
"""
# case -> (argv, exit status, stdout, stderr)
PARSER_TEXTS = {
    "help": (("--help",), 0, TOP_HELP, ""),
    "average-help": (("average", "--help"), 0, AVERAGE_HELP, ""),
    "unknown-command": (("bogus",), 2, "", TOP_USAGE + (
        "hybrid-teleport: error: argument command: invalid choice: 'bogus' "
        "(choose from 'figure', 'negativity', 'average', 'teleport', 'verify')\n")),
    "teleport-bogus": (("teleport", "--bogus"), 2, "", TELEPORT_MISSING),
    "teleport-missing": (("teleport",), 2, "", TELEPORT_MISSING),
    "teleport-unrecognized": (
        ("teleport", "--direction", "p-to-s", "--theta", "1", "--phi", "0", "--bogus"), 2, "",
        TOP_USAGE + "hybrid-teleport: error: unrecognized arguments: --bogus\n"),
}


def outcome(argv, capsys, parser=None):
    """(exit status, stdout, stderr) of the command argv, run by main or through ``parser``."""
    try:
        if parser is None:
            code = cli.main(list(argv))
        else:
            args = parser.parse_args(list(argv))
            code = args.func(args)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


class TestParser:
    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its text to the terminal width

    @pytest.mark.parametrize("case", list(PARSER_TEXTS))
    def test_texts_are_pinned(self, case, capsys):
        argv, *expected = PARSER_TEXTS[case]
        assert outcome(argv, capsys) == outcome(argv, capsys, cli.build_parser()) == tuple(expected)

    def test_no_state_carries_over_between_calls(self, monkeypatch, tmp_path, capsys):
        # main's one parser gives what a fresh parser gives, call after call
        out = tmp_path / "x.csv"

        def written():
            data = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            return data

        commands = [
            ("average", "--direction", "p-to-s", "--alpha", "0.5", "--r-steps", "3",
             "--out", str(out)),
            ("teleport", "--direction", "p-to-s", "--theta", "1", "--phi", "0"),
            ("teleport", "--direction", "p-to-s", "--theta", "1", "--bogus"),
        ]
        cli._parser.cache_clear()
        results = []
        for argv in commands:
            results.append((outcome(argv, capsys), written()))
            assert results[-1] == (outcome(argv, capsys, cli.build_parser()), written())
        assert [code for (code, _, _), _ in results] == [0, 0, 2]
        assert results[0][1] is not None and "required: --phi" in results[2][0][2]

    def test_main_builds_the_parser_once(self, monkeypatch, capsys):
        built = []
        original = cli.build_parser

        def counted():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        for _ in range(2):
            assert run("teleport", "--direction", "p-to-s", "--theta", "1", "--phi", "0") == 0
        assert len(built) == 1


class TestFigureCommand:
    def test_fig1_columns_and_determinism(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run("figure", "fig1", "--out", str(out)) == 0
        first = out.read_bytes()
        header, rows = read_csv(out)
        assert header == ["r", "N_ps", "N_pc_a0.5", "N_pc_a1", "N_pc_a2", "engine"]
        assert len(rows) == 20
        assert rows[0][0] == "0"
        assert all(row[-1] == "oracle" for row in rows)
        assert run("figure", "fig1", "--out", str(out)) == 0
        assert out.read_bytes() == first

    def test_fig2_panels(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run("figure", "fig2", "--out", str(out)) == 0
        for alpha in ("0.1", "1", "2", "10"):
            panel = tmp_path / f"fig2_alpha{alpha}.csv"
            assert panel.exists()
        header, rows = read_csv(tmp_path / "fig2_alpha10.csv")
        assert header == ["r", "F_p_to_c", "F_c_to_p", "F_cl_p_to_c", "F_cl_c_to_p", "engine"]
        # large amplitude: fidelities drop to the classical limits at small r
        by_r = {row[0]: row for row in rows}
        row = by_r["0.3"]
        f_ptc, f_ctp, f_cl = float(row[1]), float(row[2]), float(row[3])
        assert abs(f_ptc - f_cl) < 0.01
        assert f_ctp < 2 / 3

    def test_fig3_shared_column(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert run("figure", "fig3", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header[:2] == ["r", "P_p_to_c"]
        assert "P_c_to_p_a0.54" in header
        # the p->c success probability column is amplitude independent: t^2/2
        for row in rows:
            r = float(row[0])
            assert float(row[1]) == pytest.approx((1 - r * r) / 2, abs=1e-12)

    def test_fig4_constant_success(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert run("figure", "fig4", "--out", str(out)) == 0
        header, rows = read_csv(out)
        idx = header.index("P_s_to_p")
        assert all(float(row[idx]) == 0.5 for row in rows)

    def test_fig5_postselected_columns(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert run("figure", "fig5", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header[-2] == "P_post_s_to_p"
        for row in rows:
            r = float(row[0])
            t2 = 1 - r * r
            assert float(row[header.index("P_post_s_to_p")]) == pytest.approx(
                t2 / 4, abs=1e-12)

    def test_fig1_rejects_oracle_beyond_reach(self, tmp_path):
        with pytest.raises(SystemExit):
            run("figure", "fig1", "--alpha", "10", "--engine", "oracle",
                "--out", str(tmp_path / "x.csv"))

    @pytest.mark.parametrize("engine", ["oracle", "both"])
    @pytest.mark.parametrize("fig", ["fig2", "fig3", "fig4", "fig5"])
    def test_closed_form_figures_refuse_the_oracle(self, fig, engine, tmp_path):
        # only fig1 has an oracle engine; the others must not write closed-form CSVs
        with pytest.raises(SystemExit) as exc:
            run("figure", fig, "--engine", engine, "--out", str(tmp_path / "x.csv"))
        assert str(exc.value.code) == (f"{fig} is produced from the closed forms; "
                                       "use --engine analytic/auto")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("fig", ["fig2", "fig3"], ids=["panels", "columns"])
    def test_amplitudes_that_share_a_name_fail_early(self, fig, monkeypatch, tmp_path):
        # fig2 names a file per amplitude and fig3 a column, both at 6 significant digits
        def never(*args, **kwargs):
            raise AssertionError("figure ran")

        for name in ("avg_fidelity", "avg_success_probability", "classical_limit"):
            monkeypatch.setattr(cli, name, never)
        with pytest.raises(SystemExit) as exc:
            run("figure", fig, "--alpha", "0.5,1.0000001,1.0000002",
                "--out", str(tmp_path / "x.csv"))
        text = str(exc.value.code)
        assert "1.0000001,1.0000002" in text and "\n" not in text
        assert not any(tmp_path.iterdir())

    def test_figures_match_pinned_digests(self, tmp_path):
        # the figure CSVs are byte-identical to the digests the benchmark pins
        pinned = json.loads((Path(__file__).resolve().parents[1] / "benchmarks"
                             / "figure_digests.json").read_text())
        for fig in ("fig1", "fig2", "fig3", "fig4", "fig5"):
            assert run("figure", fig, "--out", str(tmp_path / f"{fig}.csv")) == 0
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.glob("*.csv")}
        assert written == pinned

    def test_average_matches_pinned_digests(self, tmp_path):
        # every direction's closed forms, from alpha = 1e-6 up and r to 0.999, byte for byte
        pinned = json.loads(Path(__file__).with_name("average_digests.json").read_text())
        written = {}
        for alpha in pinned["digests"]:
            out = tmp_path / f"average-{alpha}.csv"
            assert run(*pinned["argv"], "--alpha", alpha, "--out", str(out)) == 0
            written[alpha] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert written == pinned["digests"]

    @pytest.mark.parametrize("argv, digest", [
        ((), "133990feb7b5ec1af230d350058694477a9d2e2f3ce3465fdb7292fee615cba3"),
        (("--engine", "both", "--alpha", "0.5,1,3", "--r-steps", "40", "--r-max", "0.999"),
         "6b7327ffbf437833aed86548fa38a31e4070d49922814df42c0322065435a393"),
        (("--engine", "analytic"),
         "c5de506d9577f70db952a7101dc8e690d2b07e55c1fd18d3733e9879ae6f2660"),
    ], ids=["default", "both", "analytic"])
    def test_negativity_matches_pinned_digests(self, argv, digest, tmp_path):
        # the long-format sweep, oracle and closed-form rows alike, byte for byte
        out = tmp_path / "negativity.csv"
        assert run("negativity", *argv, "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_float_formatting_is_12_digits(self, tmp_path):
        out = tmp_path / "fig4.csv"
        run("figure", "fig4", "--out", str(out))
        _, rows = read_csv(out)
        cell = rows[3][1]
        assert len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 12


TOO_LARGE = ("alpha must be at most 9.480751908109176e+153, where 2 alpha^2 is still finite, "
             "got 1e+200")


class TestSweepCommands:
    def test_negativity_long_format(self, tmp_path):
        out = tmp_path / "neg.csv"
        assert run("negativity", "--r-steps", "4", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header == ["r", "channel", "alpha", "negativity", "engine"]
        engines = {row[-1] for row in rows}
        assert engines == {"analytic", "oracle"}

    def test_negativity_large_alpha_marked_analytic(self, tmp_path):
        out = tmp_path / "neg.csv"
        assert run("negativity", "--r-steps", "3", "--alpha", "10", "--out", str(out)) == 0
        _, rows = read_csv(out)
        pc_rows = [row for row in rows if row[1] == "pc"]
        assert pc_rows and all(row[-1] == "analytic" for row in pc_rows)

    def test_negativity_oracle_rejects_large_alpha(self, tmp_path):
        with pytest.raises(SystemExit):
            run("negativity", "--alpha", "10", "--engine", "oracle",
                "--out", str(tmp_path / "x.csv"))

    @pytest.mark.parametrize("command", [("negativity", "--engine", "oracle"),
                                         ("negativity", "--engine", "both"),
                                         ("figure", "fig1")],
                             ids=["negativity-oracle", "negativity-both", "fig1"])
    @pytest.mark.parametrize("truncation, message", [
        ("10", "too small for alpha=1"), ("1", "at least 2"), ("0", "at least 2")])
    def test_bad_negativity_truncation_fails_early(self, command, truncation, message,
                                                   monkeypatch, tmp_path):
        def never(*args, **kwargs):
            raise AssertionError("sweep ran")

        monkeypatch.setattr(cli, "negativity_ps_analytic", never)
        monkeypatch.setattr(cli, "rho_pc_analytic", never)
        out = tmp_path / "neg.csv"
        with pytest.raises(SystemExit) as exc:
            run(*command, "--alpha", "1", "--truncation", truncation, "--out", str(out))
        text = str(exc.value.code)
        assert message in text and "\n" not in text
        assert not out.exists()

    def test_negativity_truncation_checks_only_what_the_oracle_uses(self, tmp_path):
        out = tmp_path / "neg.csv"
        # no parity rule: an odd cutoff serves the negativity oracle
        assert run("negativity", "--engine", "oracle", "--alpha", "1", "--truncation", "35",
                   "--r-steps", "3", "--out", str(out)) == 0
        _, rows = read_csv(out)
        assert run("negativity", "--engine", "analytic", "--alpha", "1", "--r-steps", "3",
                   "--out", str(out)) == 0
        _, closed = read_csv(out)
        for row, ref in zip(rows, closed):
            assert float(row[3]) == pytest.approx(float(ref[3]), abs=1e-9)
        # amplitudes the closed forms serve ignore the cutoff
        assert run("negativity", "--engine", "analytic", "--truncation", "1",
                   "--out", str(out)) == 0
        assert run("figure", "fig1", "--alpha", "10", "--truncation", "1", "--out", str(out)) == 0

    def test_average_sweep(self, tmp_path):
        out = tmp_path / "avg.csv"
        assert run("average", "--r-steps", "3", "--alpha", "1",
                   "--direction", "c-to-p", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header[2] == "direction"
        assert all(row[2] == "c->p" for row in rows)
        assert all(row[-1] == "analytic" for row in rows)

    def test_average_does_each_shared_piece_once(self, monkeypatch, tmp_path):
        # per amplitude, one s->p moment and one c->p overlap evaluation serve the plain and the
        # postselected columns
        counts = {"_success_weighted_moments": 0, "_overlap_success": 0}
        for name in counts:
            def counted(*args, original=getattr(averages, name), name=name):
                counts[name] += 1
                return original(*args)
            monkeypatch.setattr(averages, name, counted)
        assert run("average", "--direction", "all", "--alpha", "0.5,2", "--r-steps", "5",
                   "--out", str(tmp_path / "x.csv")) == 0
        assert counts == {"_success_weighted_moments": 2, "_overlap_success": 2}

    @pytest.mark.parametrize("argv, name, column", [
        (("average", "--direction", "p-to-c"), "x.csv", "avg_fidelity"),
        (("figure", "fig2"), "x_alpha0.csv", "F_p_to_c"),
    ])
    def test_p_to_c_average_at_alpha_zero_is_its_limit(self, argv, name, column, tmp_path):
        # the coherent basis is degenerate at alpha = 0 and every input arrives intact
        assert run(*argv, "--alpha", "0", "--r-steps", "5", "--out", str(tmp_path / "x.csv")) == 0
        header, rows = read_csv(tmp_path / name)
        assert len(rows) == 5
        assert all(float(row[header.index(column)]) == 1.0 for row in rows)

    def test_p_to_c_average_near_alpha_zero_is_a_fidelity(self, tmp_path):
        # the basis gap 1 - s is 1.5e-16 here; the average must still read its limit
        out = tmp_path / "x.csv"
        assert run("average", "--direction", "p-to-c", "--alpha", "1e-8", "--r-min", "0.5",
                   "--r-max", "0.5", "--r-steps", "2", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert len(rows) == 2
        assert all(float(row[header.index("avg_fidelity")]) == 1.0 for row in rows)

    def test_largest_amplitude_gives_finite_averages(self, tmp_path):
        # at r = 0, 2 alpha^2 times the zero loss must not read inf * 0
        out = tmp_path / "x.csv"
        assert run("average", "--alpha", "9.480751908109176e153", "--r-steps", "3",
                   "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert len(rows) == 12
        assert all(0.0 <= float(cell) <= 1.0 for row in rows for cell in row[3:-1] if cell)

    def test_average_rejects_oracle(self, tmp_path):
        with pytest.raises(SystemExit):
            run("average", "--engine", "oracle", "--out", str(tmp_path / "x.csv"))

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("# sweep settings\nr_steps = 3\nalpha = 0.5, 1\n")
        out = tmp_path / "neg.csv"
        assert run("negativity", "--config", str(cfg), "--out", str(out)) == 0
        _, rows = read_csv(out)
        assert len({row[0] for row in rows}) == 3
        # flag overrides the file
        assert run("negativity", "--config", str(cfg), "--r-steps", "5",
                   "--out", str(out)) == 0
        _, rows = read_csv(out)
        assert len({row[0] for row in rows}) == 5

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        with pytest.raises(SystemExit) as exc:
            run("negativity", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert str(exc.value) == "unknown config key 'nonsense'"

    def test_unreadable_config_file_exits_naming_it(self, tmp_path):
        for path, reason in ((tmp_path / "missing.cfg", "No such file or directory"),
                             (tmp_path, "Is a directory")):
            with pytest.raises(SystemExit) as exc:
                run("negativity", "--config", str(path), "--out", str(tmp_path / "x.csv"))
            assert str(exc.value.code) == f"cannot read config file {path}: {reason}"

    @pytest.mark.parametrize("line, message", [
        ("r_steps = abc", "invalid value for config key 'r_steps': 'abc'"),
        ("alpha = 0.5, x", "invalid value for config key 'alpha': '0.5, x'"),
        ("r_min =", "invalid value for config key 'r_min': ''"),
    ])
    def test_bad_config_value_exits_naming_the_key(self, line, message, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            run("negativity", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert str(exc.value.code) == message

    @pytest.mark.parametrize("argv, message", [
        (("negativity", "--alpha", "-1"), "alpha must be finite and >= 0, got -1.0"),
        (("figure", "fig1", "--alpha", "-1"), "alpha must be finite and >= 0, got -1.0"),
        (("average", "--alpha", "-1"), "alpha must be finite and >= 0, got -1.0"),
        (("average", "--alpha", "nan"), "alpha must be finite and >= 0, got nan"),
        (("negativity", "--alpha", "inf"), "alpha must be finite and >= 0, got inf"),
        (("average", "--r-max", "1"), "need 0 <= r_min <= r_max < 1"),
        (("figure", "fig2", "--r-steps", "0"), "r_steps must be >= 2"),
        (("negativity", "--r-steps", "0"), "r_steps must be >= 2"),
        (("verify", "--quick", "--quad-theta", "0"), "need at least 2 nodes per direction"),
        (("average", "--direction", "q-to-z"),
         "unknown direction 'q-to-z'; use one of p-to-c, c-to-p, p-to-s, s-to-p"),
        # beyond channels.ALPHA_MAX, 2 alpha^2 overflows in every closed form
        (("average", "--direction", "all", "--alpha", "1e200"), TOO_LARGE),
        (("figure", "fig2", "--alpha", "1e200"), TOO_LARGE),
        (("negativity", "--engine", "analytic", "--alpha", "1e200"), TOO_LARGE),
    ])
    def test_bad_input_exits_with_message(self, argv, message, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", str(tmp_path / "x.out"))
        assert str(exc.value) == message


class TestTeleportCommand:
    def test_ideal_single_rail(self, tmp_path, capsys):
        assert run("teleport", "--direction", "p-to-s", "--theta",
                   str(math.pi / 2), "--phi", "0", "--t", "1.0") == 0
        record = json.loads(capsys.readouterr().out)
        assert record["analytic"]["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert record["analytic"]["success_probability"] == pytest.approx(0.5, abs=1e-12)

    def test_both_engines_agree(self, tmp_path):
        out = tmp_path / "run.json"
        for direction in ("p-to-c", "c-to-p", "p-to-s", "s-to-p"):
            for post in ((), ("--postselected",)) if direction.endswith("-p") else ((),):
                assert run("teleport", "--direction", direction, "--theta",
                           str(math.pi / 2), "--phi", "0", "--t", str(math.sqrt(0.64)),
                           "--alpha", "1", "--engine", "both", "--out", str(out), *post) == 0
                record = json.loads(out.read_text())
                assert abs(record["analytic"]["fidelity"]
                           - record["oracle"]["fidelity"]) < 1e-6
                assert abs(record["analytic"]["success_probability"]
                           - record["oracle"]["success_probability"]) < 1e-6
                # both engines list the same branches in the same order
                analytic, oracle = record["analytic"]["outcomes"], record["oracle"]["outcomes"]
                assert [(o["label"], o["correction"], o["success"]) for o in oracle] == \
                    [(o["label"], o["correction"], o["success"]) for o in analytic]
                assert all(abs(o["probability"] - a["probability"]) < 1e-10
                           for o, a in zip(oracle, analytic))
                if direction == "c-to-p":
                    assert "no_click" in {o["label"] for o in oracle}

    def test_invalid_direction_is_usage_error(self):
        with pytest.raises((SystemExit, ValueError)):
            run("teleport", "--direction", "q-to-z", "--theta", "1", "--phi", "0")

    @pytest.mark.parametrize("flags, message", [
        (("--theta", "5"), "theta must be in [0, pi], got 5.0"),
        (("--theta", "1", "--r", "1.0"), "r must be in [0, 1), got 1.0"),
        (("--theta", "1", "--t", "0"), "t must be in (0, 1], got 0.0"),
        (("--theta", "1", "--postselected"),
         "postselection applies to teleportation onto polarization"),
    ])
    def test_bad_input_exits_with_message(self, flags, message):
        with pytest.raises(SystemExit) as exc:
            run("teleport", "--direction", "p-to-s", "--phi", "0", *flags)
        assert str(exc.value) == message

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("direction", ["p-to-s", "p-to-c", "c-to-p"])
    def test_zero_success_probability_exits_with_message(self, direction):
        # t^2 underflows, so no branch succeeds and the oracle has no output to score
        with pytest.raises(SystemExit) as exc:
            run("teleport", "--engine", "both", "--direction", direction, "--t", "1e-170",
                "--theta", "1", "--phi", "1")
        text = str(exc.value.code)
        assert "zero success probability" in text and "\n" not in text

    def test_several_amplitudes_exit_with_message(self, tmp_path):
        # from a flag or a config key: teleport runs one channel, so it takes one amplitude
        config = tmp_path / "run.cfg"
        config.write_text("alpha = 0.5, 2\n")
        for source in (("--alpha", "0.5,2"), ("--config", str(config))):
            with pytest.raises(SystemExit) as exc:
                run("teleport", "--direction", "p-to-s", "--theta", "1", "--phi", "0", *source)
            assert str(exc.value.code) == "teleport takes one amplitude, got 2: 0.5,2"

    @pytest.mark.parametrize("engine", ["oracle", "both"])
    def test_oracle_engines_are_limited_in_amplitude(self, engine):
        with pytest.raises(SystemExit) as exc:
            run("teleport", "--engine", engine, "--direction", "p-to-c", "--alpha", "3",
                "--theta", "1", "--phi", "1")
        assert str(exc.value.code) == ("oracle engine is limited to alpha <= 2 (got alpha=3); "
                                       "use --engine analytic")

    def test_exclusive_t_and_r(self):
        with pytest.raises(SystemExit):
            run("teleport", "--direction", "p-to-s", "--theta", "1", "--phi", "0",
                "--t", "0.9", "--r", "0.1")

    @pytest.mark.parametrize("truncation, message", [
        ("35", "must be even"), ("10", "too small for alpha=1"), ("1", "at least 2")])
    def test_bad_truncation_fails_early(self, truncation, message, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("pipeline ran")

        monkeypatch.setattr(cli, "pipeline_summary", never)
        with pytest.raises(SystemExit) as exc:
            run("teleport", "--engine", "oracle", "--direction", "c-to-p", "--alpha", "1",
                "--theta", "1", "--phi", "1", "--truncation", truncation)
        text = str(exc.value.code)
        assert message in text and "\n" not in text

    def test_truncation_checks_only_what_the_oracle_uses(self, capsys):
        # p->c takes odd cutoffs, the single-rail directions and the analytic engine ignore it
        for argv in (("--direction", "p-to-c", "--engine", "both", "--truncation", "35"),
                     ("--direction", "s-to-p", "--engine", "both", "--truncation", "1"),
                     ("--direction", "c-to-p", "--engine", "analytic", "--truncation", "35")):
            assert run("teleport", "--alpha", "1", "--theta", "1", "--phi", "1", *argv) == 0
            record = json.loads(capsys.readouterr().out)
            if "oracle" in record:
                assert abs(record["oracle"]["fidelity"] - record["analytic"]["fidelity"]) < 1e-6

    # c-to-p keeps the bare engine ids; p-to-c cases carry the direction in theirs
    @pytest.mark.parametrize("direction, engine", [
        pytest.param(direction, engine, id=prefix + engine)
        for direction, prefix in (("c-to-p", ""), ("p-to-c", "p-to-c-"))
        for engine in ("auto", "analytic", "oracle", "both")
    ])
    def test_c_to_p_without_amplitude_fails_early(self, direction, engine):
        # at alpha = 0 the coherent basis is degenerate: a|b> + b|-b> can vanish (c->p)
        # and the p->c target has no single limit at the odd-cat input
        with pytest.raises(SystemExit) as exc:
            run("teleport", "--engine", engine, "--direction", direction, "--alpha", "0",
                "--theta", str(math.pi / 2), "--phi", str(math.pi))
        text = str(exc.value.code)
        assert "alpha > 0" in text and "\n" not in text

    # two inputs per direction, one postselected where allowed, and the sha256 of the
    # record each engine prints; the oracle runs every input with alpha <= 2
    @pytest.mark.parametrize("engine, direction, theta, phi, channel, alpha, post, digest", [
        ("analytic", "p-to-c", "1.1", "0.4", ("--r", "0.3"), "1.5", (),
         "8d22de31c62c71eebb466dd7f4d5bfff6dae7f162547beb160acfdecfce185b2"),
        ("analytic", "p-to-c", "1.5707963267948966", "3.141592653589793", ("--r", "0.6"), "1e-4",
         (), "5f2940d3307c0fac715f971c22ddf61b4d8570446534cf5a98fac69587f8bec8"),
        ("analytic", "c-to-p", "2.0", "5.5", ("--r", "0.8"), "0.7", (),
         "98ffecc8535dff51732a220cbb4819e7511903b97a33d20362beaf663eca920f"),
        ("analytic", "c-to-p", "0.3", "1.0", ("--t", "0.55"), "3", ("--postselected",),
         "78ae20b5c320033d087def0d92b65cc315aa82567110c8364727945b08ed525f"),
        ("analytic", "p-to-s", "0.0", "0.0", ("--r", "0.5"), "1", (),
         "225f3f21d607925fa5c128fb7fa876784fd538a6735269419a8d0cbe14fcdf81"),
        ("analytic", "p-to-s", "2.9", "6.0", ("--t", "0.99"), "1", (),
         "61c749c780e30eafbcc6ad686bd55fb9a7456943aefe5ad27f87f94be5321caa"),
        ("analytic", "s-to-p", "1.3", "2.2", ("--r", "0.95"), "1", (),
         "39e3a6c7342ec323a0d7ff3c87d95f3ad4e09551e4eeee4d152e8043a3a12850"),
        ("analytic", "s-to-p", "3.141592653589793", "0.7", ("--t", "0.3"), "1", ("--postselected",),
         "884a46832ff13653f362cabf17ed5b7a78083203e0c79669a1ad8942bc4ad607"),
        ("oracle", "p-to-c", "1.1", "0.4", ("--r", "0.3"), "1.5", (),
         "ce026be6c21334f6219781bee83792b53063648f9c50433bcc61fe50db61573f"),
        ("oracle", "p-to-c", "1.5707963267948966", "3.141592653589793", ("--r", "0.6"), "1e-4", (),
         "b7ffce975d30c7b0f10237898a3b7ec8cf3b772bbf583c35ffe9178ed3364bf1"),
        ("oracle", "c-to-p", "2.0", "5.5", ("--r", "0.8"), "0.7", (),
         "ed960fd041b4145aa07b4b86bdcc0fc48af7dd39504d29301c971aa2d3f64eb2"),
        ("oracle", "p-to-s", "0.0", "0.0", ("--r", "0.5"), "1", (),
         "c7ef9c913d56ce1fecc1c0bfaaff65792698ae82c940a42921d089a06fe3787e"),
        ("oracle", "p-to-s", "2.9", "6.0", ("--t", "0.99"), "1", (),
         "53bc261b75bd4add3f14e512c93cb56fab9c8eca50076319c936a6735fb9463c"),
        ("oracle", "s-to-p", "1.3", "2.2", ("--r", "0.95"), "1", (),
         "cd8fb145f862d7fd36c5bdc32275c7038383825d47a465a1c4c0d4a73a800e8d"),
        ("oracle", "s-to-p", "3.141592653589793", "0.7", ("--t", "0.3"), "1", ("--postselected",),
         "4f60b214c7af410c5c2650db93da7701538a24a9cffb7f0d3a7807cb5c666265"),
    ])
    def test_analytic_record_matches_pinned_digest(self, engine, direction, theta, phi, channel,
                                                   alpha, post, digest, capsys):
        assert run("teleport", "--engine", engine, "--direction", direction, "--theta", theta,
                   "--phi", phi, *channel, "--alpha", alpha, *post) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_postselected_record(self, capsys):
        assert run("teleport", "--direction", "s-to-p", "--theta", "1.0",
                   "--phi", "0.0", "--t", "0.8", "--postselected") == 0
        record = json.loads(capsys.readouterr().out)
        assert record["postselected"] is True


class TestVerifyCommand:
    def test_quick_run_passes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run("verify", "--quick", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        names = {a["name"] for a in report["audits"]}
        assert {"negativity_pc_variant_scale", "fourth_moment_variant_limit",
                "cp_coherence_weight", "pc_success_modulation_constant",
                "postselect_sp_fidelity_gap"} <= names
        assert set(report["timings"]) == {"channel", "negativity", "pipeline", "moment", "average"}
        assert all(v >= 0.0 for v in report["timings"].values())
        text = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in text
        assert "phase seconds: channel " in text

    def test_quick_report_matches_pinned_digest(self, tmp_path):
        # every check and audit value, tolerance and location, bar the wall times
        out = tmp_path / "report.json"
        assert run("verify", "--quick", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        del report["timings"], report["elapsed_seconds"]
        text = json.dumps(report, sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "1a4af1fa518f57915fe47f66626dea88bd44ea43cea898b89af7715949c3f1cd")

    def test_full_report_matches_pinned_digest(self, tmp_path):
        # the default battery the benchmark runs, pinned the same way
        out = tmp_path / "report.json"
        assert run("verify", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        del report["timings"], report["elapsed_seconds"]
        text = json.dumps(report, sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ec6d8a08c1a4216982cebbeebfe47eafdd9cb2b35d02de2608f472109e577f8d")

    def test_failing_checks_give_nonzero_exit(self, tmp_path):
        # a deliberately coarse quadrature cannot meet the 1e-8 agreement
        # tolerance, which must surface as a failing exit status
        out = tmp_path / "report.json"
        code = run("verify", "--quick", "--quad-theta", "6", "--quad-phi", "8",
                   "--out", str(out))
        assert code == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        failing = [c["name"] for c in report["checks"] if not c["pass"]]
        assert "avg_closed_vs_quadrature" in failing

    def test_comparator_catches_injected_fault(self):
        # swapping in the weight-1 coherence variant must trip the
        # closed-vs-quadrature comparison that verify runs
        from hybrid_teleport import averages as av
        from hybrid_teleport import channels as ch
        from hybrid_teleport.teleport import Direction
        params = ch.ChannelParams.from_r(0.6, 1.0)
        q = params.coherence_factor
        faulty_avg = params.t**2 * (2 / 3 + q / 6)  # halved coherence weight
        quad = av.avg_fidelity_quadrature(Direction.C_TO_P, params)
        assert abs(faulty_avg - quad) > 1e-8
        assert abs(av.avg_fidelity(Direction.C_TO_P, params) - quad) < 1e-8
