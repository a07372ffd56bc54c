import json

import pytest

from ifmkit.cli import (
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_NOT_UNIQUE,
    EXIT_OK,
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


class TestDumpConfig:
    def test_round_trip_field_by_field(self, tmp_path, capsys):
        path = write_config(tmp_path, standard_config())
        code = main(["audit", "--config", path, "--out", str(tmp_path),
                     "--dump-config"])
        assert code == EXIT_OK
        dumped = json.loads(capsys.readouterr().out)
        assert RunConfig(dumped).to_dict() == dumped


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
