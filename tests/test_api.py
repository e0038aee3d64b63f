"""The public surface: what the package exports and how the CLI reads its options."""

import pytest

import hybrid_teleport
from hybrid_teleport import audits, averages, channels, cli, entanglement, fock, teleport

AUDIT_ONLY = ("negativity_pc_variant", "moment_integral_variant4", "g_functional",
              "avg_fidelity_variant_pc", "classical_limit_variant", "per_input_fidelity_variant")

# removed exports and the module that held each: the branch stack made the first four
# redundant, since each pipeline returns one array; the last two served only the tests
# and live on in tests/oracles.py
REMOVED = {"TeleportOutcome": teleport, "success_probability": teleport,
           "combined_success_output": teleport, "target_state": teleport,
           "damping_kraus": channels, "fidelity_pure": fock}

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


# the options every subcommand takes, read off the parser
COMMON = sorted(set.intersection(*(set(vars(namespace(c))) for c in REQUIRED))
                - {"command", "func", "config"})


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
    # StateVector.overlap, DensityOperator.trace and DensityOperator.ensemble are
    # tests/oracles.py's overlap, trace and ensemble
    assert not hasattr(fock.StateVector, "overlap")
    assert not hasattr(fock.DensityOperator, "trace")
    assert not hasattr(fock.DensityOperator, "ensemble")


def test_common_options_are_the_documented_ones():
    assert COMMON == sorted(SAMPLES)


@pytest.mark.parametrize("key", COMMON)
def test_every_common_flag_is_a_config_key_with_the_same_effect(key, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {SAMPLES[key]}\n")
    flag = "--" + key.replace("_", "-")
    for command in REQUIRED:
        from_file = cli._build_config(namespace(command, "--config", str(path)))
        from_flag = cli._build_config(namespace(command, flag, SAMPLES[key]))
        assert from_file == from_flag != cli.SweepConfig()
