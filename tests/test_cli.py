import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ifmkit import cli
from ifmkit.cli import (
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_NOT_UNIQUE,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VIOLATIONS,
    RunConfig,
    main,
)


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return str(path)


def standard_config(**overrides):
    data = {
        "schema_version": 1,
        "space": {
            "construction": "standard",
            "domain": {"kind": "interval", "lo": 0.0, "hi": 1.0},
            "tnorm": "product",
            "tconorm": "probabilistic_sum",
        },
        "map": {"name": "scale", "factor": 0.5},
        "contraction": {"check": "psi-phi", "k": 0.5},
        "sampler": {"mode": "random", "sample_count": 1500,
                    "t_grid": [0.1, 1, 10], "seed": 7},
        "solver": {"epsilon": 1e-8, "t_grid": [0.1, 1, 10], "max_iter": 10000,
                   "point_tol": 1e-8, "seeds": [1.0, 0.7, 0.3]},
    }
    data.update(overrides)
    return data


def crisp_config(**overrides):
    data = {
        "schema_version": 1,
        "space": {
            "construction": "crisp",
            "domain": {"kind": "line", "n": 5},
            "tnorm": "minimum",
            "tconorm": "maximum",
        },
        "map": {"name": "table", "images": [3, 0, 4, 1, 2]},
        "contraction": {"check": "psi-phi", "k": 0.5},
        "sampler": {"mode": "exhaustive", "sample_count": 1,
                    "t_grid": [0.5, 2], "seed": 0},
    }
    data.update(overrides)
    return data


class TestConfigValidation:
    def test_k_out_of_range_names_field(self, tmp_path, capsys):
        cfg = standard_config(contraction={"check": "k", "k": 1.5})
        code = main(["audit", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "contraction.k" in capsys.readouterr().err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,,}')
        code = main(["audit", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "line 1" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["audit", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_wrong_schema_version(self, tmp_path, capsys):
        cfg = standard_config(schema_version=99)
        code = main(["audit", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "schema_version" in capsys.readouterr().err

    def test_missing_section_for_command(self, tmp_path, capsys):
        cfg = standard_config()
        del cfg["sampler"]
        code = main(["audit", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "sampler" in capsys.readouterr().err

    def test_unknown_map_name(self, tmp_path, capsys):
        cfg = standard_config(map={"name": "rotate"})
        code = main(["audit", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "map.name" in capsys.readouterr().err

    def test_table_size_mismatch(self, tmp_path, capsys):
        cfg = crisp_config(map={"name": "table", "images": [0, 1]})
        code = main(["contract", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "map.images" in capsys.readouterr().err

    @pytest.mark.parametrize("images", [[0, 5, 1, 2, 3], [0, True, 1, 2, 3], [0, 1.0, 2, 3, 4]],
                             ids=["out-of-range", "bool", "float"])
    def test_table_image_named(self, tmp_path, capsys, images):
        cfg = crisp_config(map={"name": "table", "images": images})
        code = main(["contract", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: map.images: ")
        assert not (tmp_path / "out").exists()

    def test_bad_metric_named(self, tmp_path, capsys):
        cfg = standard_config(space={
            "construction": "standard",
            "domain": {"kind": "finite", "labels": ["a", "b"],
                       "metric": [[0.0, 1.0], [2.0, 0.0]]},
            "tnorm": "product",
            "tconorm": "probabilistic_sum",
        })
        code = main(["audit", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "metric" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", [
        [["0", "1", True], ["1", 0, 1], [1, "1", 0]],
        [[0, "1"], ["1", 0]],
        [[0, True], [True, 0]],
        [[0, 1], 1],
        [[0, 1], {"0": 1, "1": 0}],
        [[0, [1]], [[1], 0]],
        [[0, None], [None, 0]],
    ], ids=["strings-and-bools", "numeric-strings", "bools", "number-row", "object-row",
            "nested-entry", "null"])
    @pytest.mark.parametrize("dump", [False, True])
    def test_metric_entries_must_be_numbers(self, tmp_path, capsys, metric, dump):
        cfg = standard_config(space={
            "construction": "standard",
            "domain": {"kind": "finite", "labels": ["a", "b", "c"][:len(metric)],
                       "metric": metric},
            "tnorm": "product",
            "tconorm": "probabilistic_sum",
        })
        cfg["map"] = {"name": "identity"}
        cfg["solver"]["seeds"] = [0]
        argv = ["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]
        code = main(argv + ["--dump-config"] * dump)
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert "space.domain.metric" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("bad", ["Infinity", "-Infinity", "NaN", "1e400", "1" + "0" * 400,
                                     "0", "-1"],
                             ids=["inf", "-inf", "nan", "1e400", "huge-int", "zero", "negative"])
    @pytest.mark.parametrize("section,command", [("sampler", "audit"), ("solver", "solve")])
    def test_t_grid_must_be_positive_and_finite(self, tmp_path, capsys, bad, section, command):
        cfg = standard_config()
        cfg[section]["t_grid"] = [0.1, 1.0, 12345.5]
        # Python's json reads the non-standard tokens Infinity and NaN
        text = json.dumps(cfg, indent=2).replace("12345.5", bad)
        path = tmp_path / "config.json"
        path.write_text(text)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"{section}.t_grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,field,value,overrides", [
        pytest.param(command, field, 10 ** 400, {}, id=f"{command}-{field}")
        for command, field in [("audit", "space.domain.hi"), ("contract", "contraction.k"),
                               ("contract", "map.factor"), ("solve", "solver.epsilon")]
    ] + [
        pytest.param(command, field, value, overrides, id=f"{command}-{field}{case}-{label}")
        for command, field, case, overrides in [
            ("contract", "map.factor", "", {}),
            ("contract", "contraction.k", "", {}),
            ("contract", "contraction.k", "-check-k", {"contraction": {"check": "k", "k": 0.5}}),
            ("contract", "contraction.psi.exponent", "", {"contraction": {
                "check": "psi-phi", "psi": {"name": "power", "exponent": 2.0},
                "phi": {"name": "identity"}}}),
            ("solve", "solver.epsilon", "", {}),
            ("solve", "solver.point_tol", "", {}),
            ("audit", "space.domain.diameter", "", {"space": {
                "construction": "standard", "domain": {"kind": "line", "n": 4, "diameter": 1.0},
                "tnorm": "product", "tconorm": "probabilistic_sum"}}),
        ]
        for label, value in [("inf", math.inf), ("-inf", -math.inf), ("nan", math.nan)]
    ])
    def test_integer_too_large_for_a_float(self, tmp_path, capsys, command, field, value,
                                           overrides):
        cfg = standard_config(**overrides)
        *path, key = field.split(".")
        section = cfg
        for name in path:
            section = section[name]
        section[key] = value  # json writes Infinity and NaN, and reads them back
        code = main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        message = ("integer too large for a float" if isinstance(value, int)
                   else f"must be finite, got {value}")
        assert f"{field}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["audit", "contract"])
    def test_exhaustive_sampler_needs_finite_domain(self, tmp_path, capsys, command):
        cfg = standard_config()
        cfg["sampler"]["mode"] = "exhaustive"
        code = main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "sampler.mode" in capsys.readouterr().err


    @pytest.mark.parametrize("field,section,spec", [
        ("map.images", "map", {"name": "table", "images": [0, 0]}),
        ("solver.seeds", "solver", {"seeds": [5.0]}),
        ("sampler.mode", "sampler", {"mode": "exhaustive"}),
        ("map.value", "map", {"name": "constant", "value": 1.5}),
        ("sampler.seed", "sampler", {"seed": -1}),
    ], ids=["table-on-interval", "seed-outside", "exhaustive-on-interval", "constant-outside",
            "negative-sampler-seed"])
    @pytest.mark.parametrize("command", ["audit", "contract", "solve", "dump-config"])
    def test_every_section_checked_against_the_space(self, tmp_path, capsys, command,
                                                      field, section, spec):
        cfg = standard_config()
        cfg[section].update(spec)
        out = tmp_path / "out"
        argv = ["audit" if command == "dump-config" else command,
                "--config", write_config(tmp_path, cfg), "--out", str(out)]
        code = main(argv + (["--dump-config"] if command == "dump-config" else []))
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {field}: ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["audit", "contract", "demo"])
    def test_negative_seed_flag(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = [command, "--seed", "-1", "--out", str(out)]
        if command != "demo":
            argv += ["--config", write_config(tmp_path, standard_config())]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: --seed: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_solve_has_no_seed_flag(self, tmp_path, capsys):
        # the solver draws no samples, so there is no seed to override
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", write_config(tmp_path, standard_config()),
                  "--out", str(out), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not out.exists()


class TestRuntimeErrors:
    @pytest.mark.parametrize("check", ["psi-phi", "k"])
    def test_contract_rejects_a_map_that_is_not_a_self_map(self, tmp_path, capsys, check):
        cfg = standard_config(map={"name": "scale", "factor": 2.0},
                              contraction={"check": check, "k": 0.5})
        code = main(["contract", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: map scale(2) sends ")
        assert err.endswith(", outside the domain\n")
        assert not (tmp_path / "out").exists()

    def test_map_leaving_the_domain_is_not_a_config_error(self, tmp_path, capsys):
        cfg = standard_config(map={"name": "scale", "factor": 2.0})
        cfg["solver"]["seeds"] = [0.9]
        code = main(["solve", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "error: map scale(2) sends 0.9 to 1.8, outside the domain\n")
        assert not (tmp_path / "out").exists()


class TestDumpConfig:
    def test_round_trip_field_by_field(self, tmp_path, capsys):
        path = write_config(tmp_path, standard_config())
        code = main(["audit", "--config", path, "--out", str(tmp_path),
                     "--dump-config"])
        assert code == EXIT_OK
        dumped = json.loads(capsys.readouterr().out)
        assert RunConfig(dumped).to_dict() == dumped

    def test_readme_full_example(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("A full example:", 1)[1]
        example = json.loads(block.split("```json\n", 1)[1].split("```", 1)[0])
        code = main(["solve", "--config", write_config(tmp_path, example),
                     "--out", str(tmp_path / "out"), "--dump-config"])
        assert code == EXIT_OK
        dumped = json.loads(capsys.readouterr().out)
        # normalizing adds only the defaults the example leaves out
        assert dumped == {**example, "solver": {**example["solver"], "cauchy_window": 5}}
        main(["solve", "--config", write_config(tmp_path, dumped, "dumped.json"),
              "--out", str(tmp_path / "out"), "--dump-config"])
        assert json.loads(capsys.readouterr().out) == dumped
        assert not (tmp_path / "out").exists()


class TestLogLevel:
    # IFM_LOG=basic_format was getattr(logging, "BASIC_FORMAT"), a format
    # string, on which basicConfig raised "Unknown level" with exit 1
    @pytest.mark.parametrize("value,logged", [
        ("basic_format", False), ("bogus", False), ("info", True), ("ERROR", False),
    ])
    def test_ifm_log_reads_the_documented_names(self, tmp_path, value, logged):
        # a new process: under pytest the root logger has handlers, and
        # basicConfig then sets no level
        env = {**os.environ, "IFM_LOG": value, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-m", "ifmkit.cli", "audit", "--config",
                              write_config(tmp_path, crisp_config()), "--out", str(tmp_path)],
                             env=env, capture_output=True, text=True)
        assert run.returncode == EXIT_VIOLATIONS, run.stderr  # the crisp space fails ii
        assert ("INFO ifmkit: axiom ii" in run.stderr) is logged
        assert "Traceback" not in run.stderr


class TestAuditCommand:
    def test_standard_space_passes(self, tmp_path):
        path = write_config(tmp_path, standard_config())
        assert main(["audit", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "audit.json").read_text())
        assert report["passed"] is True

    def test_crisp_space_fails_positivity(self, tmp_path):
        path = write_config(tmp_path, crisp_config())
        assert main(["audit", "--config", path, "--out", str(tmp_path)]) == EXIT_VIOLATIONS
        report = json.loads((tmp_path / "audit.json").read_text())
        assert report["failing_axioms"] == ["ii"]

    def test_seed_override_changes_samples(self, tmp_path):
        path = write_config(tmp_path, standard_config())
        main(["audit", "--config", path, "--out", str(tmp_path / "a"), "--seed", "1"])
        main(["audit", "--config", path, "--out", str(tmp_path / "b"), "--seed", "2"])
        a = json.loads((tmp_path / "a" / "audit.json").read_text())
        b = json.loads((tmp_path / "b" / "audit.json").read_text())
        assert a["sampler"]["seed"] == 1 and b["sampler"]["seed"] == 2

    def test_calls_share_one_parser_and_parse_independently(self, tmp_path):
        path = write_config(tmp_path, crisp_config())
        main(["audit", "--config", path, "--out", str(tmp_path / "a"), "--seed", "3"])
        main(["audit", "--config", path, "--out", str(tmp_path / "b")])
        a = json.loads((tmp_path / "a" / "audit.json").read_text())
        b = json.loads((tmp_path / "b" / "audit.json").read_text())
        assert a["sampler"]["seed"] == 3 and b["sampler"]["seed"] == 0
        assert cli._build_parser() is cli._build_parser()


class TestContractCommand:
    def test_halving_psi_phi_passes(self, tmp_path):
        path = write_config(tmp_path, standard_config())
        assert main(["contract", "--config", path, "--out", str(tmp_path)]) == EXIT_OK

    def test_halving_k_rate_passes(self, tmp_path):
        cfg = standard_config(contraction={"check": "k", "k": 0.5})
        path = write_config(tmp_path, cfg)
        assert main(["contract", "--config", path, "--out", str(tmp_path)]) == EXIT_OK

    def test_identity_map_fails(self, tmp_path):
        cfg = standard_config(map={"name": "identity"})
        path = write_config(tmp_path, cfg)
        assert main(["contract", "--config", path, "--out", str(tmp_path)]) == EXIT_VIOLATIONS
        report = json.loads((tmp_path / "contract.json").read_text())
        assert report["violation_count"] > 0 and report["witnesses"]

    def test_any_table_on_crisp_passes(self, tmp_path):
        path = write_config(tmp_path, crisp_config())
        assert main(["contract", "--config", path, "--out", str(tmp_path)]) == EXIT_OK

    def test_explicit_control_catalogue(self, tmp_path):
        cfg = standard_config(contraction={
            "check": "psi-phi",
            "psi": {"name": "identity"},
            "phi": {"name": "power", "exponent": 0.5},
        }, map={"name": "identity"})
        path = write_config(tmp_path, cfg)
        # identity psi cannot certify anything strictly closer: violations
        assert main(["contract", "--config", path, "--out", str(tmp_path)]) == EXIT_VIOLATIONS


class TestSolveCommand:
    def test_halving_converges_unique(self, tmp_path):
        path = write_config(tmp_path, standard_config())
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "solve.json").read_text())
        assert abs(report["fixed_point"]) <= 1e-8
        assert report["unique"] is True
        for i in range(3):
            csv = (tmp_path / f"trace_seed{i}.csv").read_text()
            assert csv.startswith("n,x_n,mu@0.1,nu@0.1,mu@1,nu@1,mu@10,nu@10\n")

    def test_identity_two_seeds_not_unique(self, tmp_path):
        cfg = standard_config(map={"name": "identity"})
        cfg["solver"]["seeds"] = [0.2, 0.9]
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == EXIT_NOT_UNIQUE

    def test_seed_out_of_budget_not_unique(self, tmp_path, capsys):
        cfg = standard_config()
        cfg["solver"]["seeds"] = [0.0, 1.0]
        cfg["solver"]["max_iter"] = 3
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == EXIT_NOT_UNIQUE
        assert "did not converge" in capsys.readouterr().out

    def test_cyclic_shift_exits_no_convergence(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "space": {
                "construction": "standard",
                "domain": {"kind": "line", "n": 10},
                "tnorm": "product",
                "tconorm": "probabilistic_sum",
            },
            "map": {"name": "table", "images": [(i + 1) % 10 for i in range(10)]},
            "solver": {"epsilon": 1e-6, "t_grid": [0.1, 1, 10], "max_iter": 100,
                       "point_tol": 0.0, "seeds": list(range(10))},
        }
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == EXIT_NO_CONVERGENCE
        report = json.loads((tmp_path / "solve.json").read_text())
        assert report["cycle_lengths"] == [10] * 10

    def test_large_diameter_line_solves(self, tmp_path, capsys):
        # |i - j| * spacing rounds past the triangle pass's 1e-12 at this
        # scale, which made this config an error (exit 2)
        cfg = {
            "schema_version": 1,
            "space": {
                "construction": "standard",
                "domain": {"kind": "line", "n": 30, "diameter": 100000.0},
                "tnorm": "product",
                "tconorm": "probabilistic_sum",
            },
            "map": {"name": "table", "images": [i // 2 for i in range(30)]},
            "solver": {"epsilon": 1e-6, "t_grid": [0.1, 1, 10], "max_iter": 100,
                       "point_tol": 0.0, "seeds": list(range(30))},
        }
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        assert "fixed point 0 (unique" in capsys.readouterr().out
        report = json.loads((tmp_path / "solve.json").read_text())
        assert report["fixed_point"] == "0" and report["unique"] is True

    def test_flip_map_never_converges(self, tmp_path):
        cfg = standard_config(map={"name": "affine_clamped", "a": -1.0, "b": 1.0})
        cfg["solver"]["seeds"] = [0.2]
        cfg["solver"]["max_iter"] = 40
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == EXIT_NO_CONVERGENCE
        diag = json.loads((tmp_path / "solve.json").read_text())
        assert diag["converged"] is False
        assert (tmp_path / "trace_seed0.csv").exists()


class TestDemo:
    def test_demo_writes_expected_files(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "--out", str(out), "--seed", "5"]) == EXIT_OK
        expected = [
            "standard_halving/audit.json",
            "standard_halving/contract.json",
            "standard_halving/solve.json",
            "standard_halving/trace_seed0.csv",
            "crisp_space/audit.json",
            "crisp_space/contract.json",
            "finite_edelstein/solve.json",
            "finite_edelstein/shift_solve.json",
        ]
        for rel in expected:
            assert (out / rel).is_file(), rel
