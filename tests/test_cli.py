import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hybrid_teleport import cli


def run(*argv):
    return cli.main(list(argv))


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# the cell types the commands write, and the float subclasses and edge values a
# row template has to format exactly as format(value, ".12g") or str(value) does
CELLS = st.one_of(
    st.floats(), st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(), st.booleans(), st.none(), st.sampled_from(["", "p->c", "analytic"]),
)


class TestCsvWriter:
    ROWS = [
        [0.1, np.float64(0.1), np.float32(0.1), 3, True, None, "", "p->c"],
        [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300, np.float64(-0.0), False],
        [1 / 3, np.float64(2 / 3), np.float32(1 / 3), -7, False, None, "x", "analytic"],
        ["p->s", 0.5, None, 2, np.float64(float("nan")), np.float32(float("inf")), 1e-300, ""],
        [np.float64(1e300), 5e-324, "", 0, True, -0.0, np.float32(-0.0), 12345678901234.5],
    ]

    def test_rows_of_mixed_types_match_the_per_value_reference(self, tmp_path):
        header = [f"c{i}" for i in range(8)]
        out = tmp_path / "sub" / "mixed.csv"
        cli._write_csv(out, header, self.ROWS)
        assert out.read_bytes() == oracles.csv_text(header, self.ROWS).encode("ascii")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(CELLS, min_size=1, max_size=6), max_size=8))
    def test_any_rows_match_the_per_value_reference(self, tmp_path_factory, rows):
        out = tmp_path_factory.mktemp("csv") / "rows.csv"
        cli._write_csv(out, ["a", "b"], rows)
        assert out.read_bytes() == oracles.csv_text(["a", "b"], rows).encode("ascii")


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
