"""The public surface: what the package exports and how the CLI reads its options."""

from pathlib import Path

import pytest

import hybrid_teleport
from hybrid_teleport import audits, averages, channels, cli, entanglement, fock, teleport

AUDIT_ONLY = ("negativity_pc_variant", "moment_integral_variant4", "g_functional",
              "avg_fidelity_variant_pc", "classical_limit_variant", "per_input_fidelity_variant")

# removed exports and the module that held each: the branch stack made the first four
# redundant, since each pipeline returns one array; the next three served only the
# tests and live on in tests/oracles.py; closed_summary answers for the next three;
# the last five went with the pure-state type, since states, Bell bras and pipeline
# outputs are plain arrays and only channels are DensityOperators
REMOVED = {"TeleportOutcome": teleport, "success_probability": teleport,
           "combined_success_output": teleport, "target_state": teleport,
           "damping_kraus": channels, "fidelity_pure": fock, "partial_trace": fock,
           "per_input_fidelity": teleport, "per_input_success_probability": teleport,
           "branch_probabilities_analytic": teleport,
           "StateVector": fock, "basis_ket": fock, "tensor": fock,
           "bell_state_polarization": teleport, "postselect_polarization": teleport}

# the arguments each subcommand requires
REQUIRED = {
    "figure": ["fig1"],
    "negativity": [],
    "average": [],
    "teleport": ["--direction", "p-to-s", "--theta", "1", "--phi", "0"],
    "verify": [],
}

# a value for each common option, unlike its default
SAMPLES = {"out": "x.csv", "engine": "analytic", "r_min": "0.1", "r_max": "0.5",
           "r_steps": "7", "alpha": "0.5, 2", "truncation": "30", "quad_theta": "16",
           "quad_phi": "32"}


def namespace(command, *argv):
    return cli.build_parser().parse_args([command, *REQUIRED[command], *argv])


# (command, common option key) for every option a command reads
READ = [(command, key) for command, (*_, keys) in cli._COMMANDS.items() for key in keys]

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert len(set(hybrid_teleport.__all__)) == len(hybrid_teleport.__all__)
    for name in hybrid_teleport.__all__:
        assert hasattr(hybrid_teleport, name), name


@pytest.mark.parametrize("name", AUDIT_ONLY)
def test_audit_only_formulas_live_in_audits_alone(name):
    assert callable(getattr(audits, name))
    assert name not in hybrid_teleport.__all__
    assert not hasattr(hybrid_teleport, name)
    for module in (entanglement, averages, teleport):
        assert not hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert name not in hybrid_teleport.__all__
    assert not hasattr(hybrid_teleport, name)
    assert not hasattr(REMOVED[name], name)


def test_test_only_methods_are_gone():
    # DensityOperator.trace and DensityOperator.ensemble are tests/oracles.py's trace
    # and ensemble; ModeLayout.select served only the partial trace and the mode
    # permutation, which build their layouts directly
    assert not hasattr(fock.DensityOperator, "trace")
    assert not hasattr(fock.DensityOperator, "ensemble")
    assert not hasattr(fock.ModeLayout, "select")


@pytest.mark.parametrize("command", REQUIRED)
def test_each_parser_takes_the_common_options_of_its_table_entry(command):
    taken = set(vars(namespace(command))) & set(cli._COMMON_OPTIONS)
    assert sorted(taken) == sorted(cli._COMMANDS[command][3])


def test_every_common_option_is_read_by_some_command():
    assert {key for _, key in READ} == set(SAMPLES) == set(cli._COMMON_OPTIONS)
    assert len(READ) == 30


@pytest.mark.parametrize("command, key", READ)
def test_every_common_flag_is_a_config_key_with_the_same_effect(command, key, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {SAMPLES[key]}\n")
    flag = "--" + key.replace("_", "-")
    from_file = cli._build_config(namespace(command, "--config", str(path)))
    from_flag = cli._build_config(namespace(command, flag, SAMPLES[key]))
    assert from_file == from_flag != cli.SweepConfig()


@pytest.mark.parametrize("command, key", [
    ("teleport", "r_min"), ("verify", "engine"), ("verify", "truncation"),
    ("average", "quad_theta"), ("average", "engine"), ("teleport", "quad_phi")])
def test_an_option_the_command_does_not_read_is_refused(command, key, tmp_path, capsys):
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *REQUIRED[command], flag, SAMPLES[key]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {SAMPLES[key]}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *REQUIRED[command], "--config", str(path)])
    assert str(exc.value.code) == f"unknown config key {key!r}"


def test_readme_table_is_the_command_table():
    # the README's "common options it reads" table, row by row
    lines = README.read_text().splitlines()
    start = lines.index("| command | common options it reads |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        command, keys = (cell.strip() for cell in line.strip("|").split("|"))
        rows[command] = tuple(key.strip() for key in keys.split(","))
    assert rows == {command: keys for command, (*_, keys) in cli._COMMANDS.items()}
