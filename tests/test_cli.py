"""CLI contract: config validation, artifacts, exit codes, determinism."""

import functools
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from bergman_zeros import config, experiments, sections
from bergman_zeros.cli import main
from bergman_zeros.config import EXPERIMENTS, ConfigError, Kind, load_config
from bergman_zeros.disc import Annulus
from bergman_zeros.report import CSV_HEADER
from bergman_zeros.statistics import TestFunction

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
GOLDEN_CONFIGS = sorted((Path(__file__).resolve().parent / "golden").glob("*.yaml"))


def write_config(path: Path, payload: dict) -> Path:
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return path


PLATEAU_CFG = {"experiment": "plateau", "seed": 11, "params": {"p": [20]}}

# Settings that are module constants of `experiments`, not config keys: a
# config that sets one, even to the constant's value, is rejected.  Each
# entry: kind, its required keys, the settings with their constant values.
REMOVED_KEYS = [
    ("plateau", {"p": [20]}, {"r_min": 0.3, "r_max": 0.9, "n_grid": 512, "tolerance": 1e-3}),
    ("sup", {"p": [50]}, {"tolerance": 0.25}),
    (
        "model-kernel", {"rho_prime": 2, "curvature": [[0, 0, 1.0]]},
        {"parity_step": 1e-3, "parity_tolerance": 1e-5},
    ),
    ("equidistribution", {"p": [20], "annulus": {"a": 0.3, "b": 0.6}, "samples": 10}, {"slack": 0.05}),
    ("variance", {"p": [30], "testfunction": {"a": 0.35, "b": 0.65}, "samples": 10}, {"rel_tolerance": 0.15}),
    ("clt", {"p": [30], "testfunction": {"a": 0.35, "b": 0.65}, "samples": 10}, {"ks_level": 0.01}),
    ("kernel-decay", {"p": 100, "annulus": {"a": 0.3, "b": 0.7}}, {"k": 2, "far_tolerance": 1e-3}),
]


class TestConfigLoading:
    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.yaml", PLATEAU_CFG))
        assert cfg.kind == "plateau"
        assert cfg.params == {"p": [20]}  # the plateau's radii, grid and tolerance are not keys

    def test_unknown_key_named(self, tmp_path, capsys):
        bad = dict(PLATEAU_CFG, params={"p": [20], "mystery": 1})
        with pytest.raises(ConfigError, match="mystery"):
            load_config(write_config(tmp_path / "c.yaml", bad))
        for kind, params, removed in REMOVED_KEYS:
            for key, value in removed.items():
                cfg = write_config(tmp_path / f"{kind}-{key}.yaml", {
                    "experiment": kind, "seed": 1, "params": dict(params, **{key: value}),
                })
                assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1, (kind, key)
                assert f"unknown parameter '{key}' (line " in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path):
        bad = dict(PLATEAU_CFG, extra=3)
        with pytest.raises(ConfigError, match="extra"):
            load_config(write_config(tmp_path / "c.yaml", bad))

    def test_missing_required(self, tmp_path):
        bad = {"experiment": "plateau", "seed": 1, "params": {}}
        with pytest.raises(ConfigError, match="'p'"):
            load_config(write_config(tmp_path / "c.yaml", bad))

    def test_missing_seed(self, tmp_path):
        bad = {"experiment": "plateau", "params": {"p": [20]}}
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_config(tmp_path / "c.yaml", bad))

    def test_type_checks(self, tmp_path):
        bad = dict(PLATEAU_CFG, params={"p": "twenty"})
        with pytest.raises(ConfigError, match="'p'"):
            load_config(write_config(tmp_path / "c.yaml", bad))

    def test_annulus_and_testfunction_coercion(self, tmp_path):
        payload = {
            "experiment": "clt",
            "seed": 5,
            "params": {
                "p": 50,
                "testfunction": {"a": 0.35, "b": 0.65},
                "samples": 10,
            },
        }
        cfg = load_config(write_config(tmp_path / "c.yaml", payload))
        assert cfg.params["testfunction"] == TestFunction(0.35, 0.65)
        assert cfg.params["p"] == [50]
        # a bump's height only scales Y(phi), so it is not a setting
        payload["params"]["testfunction"]["amplitude"] = 2.0
        with pytest.raises(ConfigError, match="'testfunction'.*keys a, b$"):
            load_config(write_config(tmp_path / "c.yaml", payload))

    # YAML 1.1 reads an exponent without a dot (1e-1) as a string; the loader reads it as YAML 1.2 does
    DEVIATION_YAML = "experiment: deviation\nseed: 3\nparams:\n  p: [15]\n  annulus: {a: %s, b: %s}\n  delta: %s\n  samples: %s\n"

    def test_exponent_float_runs(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(self.DEVIATION_YAML % ("0.25", "0.6", "1e-1", "200"), encoding="utf-8")
        assert load_config(cfg).params["delta"] == 0.1
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "results.csv").is_file()

    @pytest.mark.parametrize("a, b, expected", [("2e-1", "7e-1", (0.2, 0.7)), ("2E-1", "+7.0e-1", (0.2, 0.7))])
    def test_exponent_radii_load_as_floats(self, tmp_path, a, b, expected):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(self.DEVIATION_YAML % (a, b, "-5e-2", "2E3"), encoding="utf-8")
        with pytest.raises(ConfigError, match=r"key 'samples' \(line 7\): expected integer, got 2000.0"):
            load_config(cfg)
        cfg.write_text(self.DEVIATION_YAML % (a, b, "-5e-2", "200"), encoding="utf-8")
        params = load_config(cfg).params
        assert (params["annulus"].a, params["annulus"].b) == expected
        assert all(type(v) is float for v in (params["annulus"].a, params["annulus"].b, params["delta"]))

    def test_exponent_int_key_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(self.DEVIATION_YAML % ("0.25", "0.6", "0.4", "1e3"), encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "key 'samples' (line 7): expected integer, got 1000.0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_libyaml_and_python_parsers_agree(self):
        # the loader parses with libyaml where PyYAML has it; on either base, with the
        # loader's own resolvers, every shipped and golden file and every exponent float
        # loads to equal values of equal types
        if not yaml.__with_libyaml__:
            pytest.skip("PyYAML built without libyaml")
        assert config._Loader.__bases__ == (yaml.CSafeLoader,)
        root = Path(__file__).resolve().parent.parent
        texts = [f.read_text(encoding="utf-8") for d in ("configs", "tests/golden") for f in sorted((root / d).iterdir())]
        texts += [f"x: {v}" for v in ("1e-1", "2E3", "-5e-2", "1.0e+3")]
        resolvers = {"yaml_implicit_resolvers": config._Loader.yaml_implicit_resolvers}
        bases = [type("Loader", (base,), resolvers) for base in (yaml.SafeLoader, yaml.CSafeLoader)]

        def typed(x):
            if isinstance(x, dict):
                return {typed(k): typed(v) for k, v in x.items()}
            return [typed(v) for v in x] if isinstance(x, list) else (type(x), x)

        for text in texts:
            python, libyaml = (typed(yaml.load(text, Loader=loader)) for loader in bases)
            assert python == libyaml
        assert [yaml.load(text, Loader=config._Loader)["x"] for text in texts[-4:]] == [0.1, 2000.0, -0.05, 1000.0]

    def test_invalid_yaml_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("experiment: deviation\nparams: {p: [15]\n", encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "not valid YAML" in capsys.readouterr().err

    # curvature exponents are checked as ints, coefficients and radii as floats: an exponent of
    # 2.9 or true is not truncated to 2 or 1, and a quoted radius is not parsed
    @pytest.mark.parametrize("kind, params, key, got", [
        ("model-kernel", {"rho_prime": 4, "curvature": [[2.9, 0, 1.0]]}, "curvature", "expected integer, got 2.9"),
        ("model-kernel", {"rho_prime": 4, "curvature": [[1, True, 1.0]]}, "curvature", "expected integer, got True"),
        ("model-kernel", {"rho_prime": 2, "curvature": [[0, 0, "1.0"]]}, "curvature", "expected number, got '1.0'"),
        ("model-kernel", {"rho_prime": 2, "curvature": [[0, 0, False]]}, "curvature", "expected number, got False"),
        ("holes", {"p": [10], "annulus": {"a": "0.25", "b": 0.45}, "samples": 10}, "annulus", "expected number, got '0.25'"),
        ("clt", {"p": [30], "testfunction": {"a": 0.35, "b": True}, "samples": 10}, "testfunction", "expected number, got True"),
    ], ids=["exponent-float", "exponent-bool", "coefficient-str", "coefficient-bool", "radius-str", "radius-bool"])
    def test_nested_values_type_checked(self, tmp_path, capsys, kind, params, key, got):
        cfg = write_config(tmp_path / "c.yaml", {"experiment": kind, "seed": 1, "params": params})
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"key '{key}' (line " in err
        assert got in err


class TestRegistry:
    # one valid value per parameter type, for configs built from the schema
    VALUES = {
        "int": 2, "float": 0.5, "bool": True, "int_list": [20, 40],
        "annulus": {"a": 0.3, "b": 0.6}, "testfunction": {"a": 0.35, "b": 0.65},
        "curvature": [[0, 0, 1.0]],
    }

    @pytest.mark.parametrize(
        "path", CONFIGS + GOLDEN_CONFIGS,
        ids=lambda path: path.name if path.parent.name == "configs" else f"golden/{path.name}",
    )
    def test_shipped_configs_load(self, path):
        cfg = load_config(path)
        assert cfg.kind in EXPERIMENTS
        assert set(cfg.params) == set(EXPERIMENTS[cfg.kind].params)

    @pytest.mark.parametrize("kind", sorted(EXPERIMENTS))
    def test_schema_keys_are_driver_parameters(self, kind):
        entry = EXPERIMENTS[kind]
        signature = inspect.signature(getattr(experiments, entry.driver)).parameters
        assert list(entry.params) == [name for name in signature if name not in ("seed", "threads")]
        assert "seed" in signature
        assert set(entry.params.values()) <= set(self.VALUES)

    def test_unmapped_annotation_fails(self, monkeypatch):
        def typed(p: "Sequence[int]", weight: "float", seed: int = 0, threads: int = 1):
            pass

        def untyped(p: "Sequence[int]", weight: "complex", seed: int = 0):
            pass

        monkeypatch.setattr(experiments, "typed_experiment", typed, raising=False)
        monkeypatch.setattr(experiments, "untyped_experiment", untyped, raising=False)
        assert Kind("typed_experiment", "a law").params == {"p": "int_list", "weight": "float"}
        with pytest.raises(TypeError, match="weight: complex"):
            Kind("untyped_experiment", "a law")

    @pytest.mark.parametrize("kind", sorted(EXPERIMENTS))
    def test_required_exactly_without_driver_default(self, kind, tmp_path):
        entry = EXPERIMENTS[kind]
        signature = inspect.signature(getattr(experiments, entry.driver)).parameters
        required = [name for name in entry.params if signature[name].default is inspect.Parameter.empty]
        assert required, f"{kind} has no required key"
        values = {name: self.VALUES[entry.params[name]] for name in required}
        cfg = load_config(write_config(tmp_path / "c.yaml", {"experiment": kind, "seed": 1, "params": values}))
        for name in entry.params:
            if name not in required:
                assert cfg.params[name] == signature[name].default
        for name in required:
            partial = {key: value for key, value in values.items() if key != name}
            path = write_config(tmp_path / f"{name}.yaml", {"experiment": kind, "seed": 1, "params": partial})
            with pytest.raises(ConfigError, match=f"missing required parameter '{name}'"):
                load_config(path)


class TestRunCommand:
    def test_run_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", PLATEAU_CFG)
        out = tmp_path / "out"
        rc = main(["run", str(cfg), "--out", str(out), "--check"])
        assert rc == 0
        csv = (out / "results.csv").read_text().splitlines()
        assert csv[0] == CSV_HEADER
        assert csv[1].startswith("plateau,20,plateau_sup_relative_error,")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 11
        assert len(summary["config_digest"]) == 64
        assert summary["rows"]
        assert all(c["passed"] for c in summary["checks"])

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {
            "experiment": "equidistribution",
            "seed": 909,
            "params": {"p": [30], "annulus": {"a": 0.25, "b": 0.6}, "samples": 120},
        })
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    @pytest.mark.parametrize("kind, params, threads", [
        # 9000 samples are three chunks of the winding count
        ("holes", {"p": [4, 6], "annulus": {"a": 0.25, "b": 0.45}, "samples": 9000}, 8),
        # 150 samples are three chunks of the batched zero finder
        ("clt", {"p": [30], "testfunction": {"a": 0.35, "b": 0.65}, "samples": 150}, 2),
        ("variance", {"p": [30, 40], "testfunction": {"a": 0.35, "b": 0.65}, "samples": 150}, 2),
        # three count chunks; delta leaves both tail frequencies inside (0, 1)
        ("deviation", {"p": [4, 6], "annulus": {"a": 0.25, "b": 0.45}, "delta": 0.1, "samples": 9000}, 2),
    ], ids=["holes", "clt", "variance", "deviation"])
    def test_threads_do_not_change_output(self, tmp_path, kind, params, threads):
        cfg = write_config(tmp_path / "c.yaml", {"experiment": kind, "seed": 41, "params": params})
        out1, out2 = tmp_path / "t1", tmp_path / "tn"
        assert main(["run", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
        assert main(["run", str(cfg), "--out", str(out2), "--threads", str(threads)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        diagnostics = [json.loads((out / "summary.json").read_text())["diagnostics"] for out in (out1, out2)]
        assert diagnostics[0] == diagnostics[1]
        assert sorted(diagnostics[0]) == [str(p) for p in params["p"]]
        assert all(d["truncation_length"] > 0 for d in diagnostics[0].values())

    @pytest.mark.parametrize("kind, params", [
        ("holes", {"p": [4, 6], "annulus": Annulus(0.25, 0.45), "samples": 40}),
        ("deviation", {"p": [4, 6], "annulus": Annulus(0.25, 0.45), "delta": 0.1, "samples": 40}),
        ("clt", {"p": [30, 40], "testfunction": TestFunction(0.35, 0.65), "samples": 24}),
        # its seed grid misses a zero in each chunk's first row, which falls back to `find_zeros`
        ("variance", {"p": [30, 40], "testfunction": TestFunction(0.35, 0.65), "samples": 24}),
    ])
    def test_threads_do_not_change_report_over_many_chunks(self, monkeypatch, kind, params):
        # chunks of 7 count rows or 5 root rows: every p is several chunks,
        # which two threads share
        monkeypatch.setattr(experiments, "COUNT_CHUNK", 7)
        monkeypatch.setattr(experiments, "ROOT_CHUNK", 5)
        chunk_rows = []
        for name in ("count_zeros_batch", "find_zeros_batch"):
            def batch(space, etas, region, fn=getattr(sections, name)):
                chunk_rows.append(etas.shape[0])
                return fn(space, etas, region)

            monkeypatch.setattr(sections, name, batch)
        if kind == "variance":
            def first_row_one_seed_short(*args, seeds=sections._grid_seeds):
                own, *rest = seeds(*args)
                keep = np.arange(own.size) != np.flatnonzero(own == 0)[0]
                return own[keep], *(a[keep] for a in rest)

            monkeypatch.setattr(sections, "_grid_seeds", first_row_one_seed_short)
        driver = getattr(experiments, EXPERIMENTS[kind].driver)
        one, two = (driver(**params, seed=41, threads=threads) for threads in (1, 2))
        # more than one chunk per p in each of the two runs
        assert max(chunk_rows) <= 7 and len(chunk_rows) > 2 * len(params["p"])
        assert (one.rows, one.checks, one.diagnostics) == (two.rows, two.checks, two.diagnostics)
        assert sorted(one.diagnostics) == params["p"]
        if kind == "variance":
            assert all(d["fallback_rows"] > 0 for d in one.diagnostics.values())

    def test_seed_override_changes_digest(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", PLATEAU_CFG)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", str(cfg), "--out", str(out2), "--seed", "77"]) == 0
        d1 = json.loads((out1 / "summary.json").read_text())["config_digest"]
        d2 = json.loads((out2 / "summary.json").read_text())["config_digest"]
        assert d1 != d2

    @pytest.mark.parametrize("p", [[8, 6, 4], [20, 20]])
    def test_unordered_p_exit_code(self, tmp_path, capsys, p):
        cfg = write_config(tmp_path / "c.yaml", dict(PLATEAU_CFG, params={"p": p}))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "key 'p' (line " in err
        assert "strictly ascending" in err

    @pytest.mark.parametrize(
        "kind,params,message",
        [
            ("plateau", {"p": [1]}, "p must be >= 2"),
            ("sup", {"p": [2]}, "requires p >= 3"),
            ("l1log", {"p": [1], "annulus": {"a": 0.3, "b": 0.9}}, "p must be >= 2"),
        ],
    )
    def test_too_small_p_exit_code(self, tmp_path, capsys, kind, params, message):
        cfg = write_config(tmp_path / "c.yaml", {"experiment": kind, "seed": 1, "params": params})
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err

    def test_out_at_a_file_exits_before_the_run(self, tmp_path, capsys, monkeypatch):
        # the output directory is made before the experiment, so a file in its place costs no run
        name = EXPERIMENTS["plateau"].driver
        driver, calls = getattr(experiments, name), []

        @functools.wraps(driver)  # the signature is the config schema
        def counted(*args, **kwargs):
            calls.append(1)
            return driver(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)
        cfg = write_config(tmp_path / "c.yaml", PLATEAU_CFG)
        out = tmp_path / "out"
        out.write_text("not a directory")
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert "File exists" in capsys.readouterr().err
        assert not calls

    def test_unwritable_results_exit_code(self, tmp_path, capsys):
        # results.csv taken by a directory: exit 1 naming the path, not a traceback
        cfg = write_config(tmp_path / "c.yaml", PLATEAU_CFG)
        out = tmp_path / "out"
        (out / "results.csv").mkdir(parents=True)
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out / "results.csv") in err
        assert "Traceback" not in err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", dict(PLATEAU_CFG, params={"p": [20], "oops": 1}))
        assert main(["run", str(cfg)]) == 1
        assert "oops" in capsys.readouterr().err

    # a run setting out of range exits 1 naming its key, whether the file or a flag sets it
    @pytest.mark.parametrize("settings, flags, message", [
        ({"threads": 0}, [], "key 'threads': must be >= 1, got 0"),
        ({}, ["--threads", "0"], "key 'threads': must be >= 1, got 0"),
        ({}, ["--threads", "-2"], "key 'threads': must be >= 1, got -2"),
        ({"seed": -1}, [], "key 'seed': must be >= 0, got -1"),
        ({}, ["--seed", "-1"], "key 'seed': must be >= 0, got -1"),
    ], ids=["threads-file", "threads-flag-0", "threads-flag-negative", "seed-file", "seed-flag"])
    def test_bad_run_setting_exit_code(self, tmp_path, capsys, settings, flags, message):
        cfg = write_config(tmp_path / "c.yaml", dict(PLATEAU_CFG, **settings))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), *flags]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_check_failure_exit_code(self, tmp_path):
        # p = 5 sits far off the plateau: the 1e-3 gate must fail
        cfg = write_config(tmp_path / "c.yaml", {
            "experiment": "plateau", "seed": 1, "params": {"p": [5]},
        })
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--check"]) == 2
        assert main(["run", str(cfg), "--out", str(out)]) == 0  # no gate, just rows

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("sup", {"p": [50]}),
            ("variance", {"p": [30], "testfunction": {"a": 0.35, "b": 0.65}, "samples": 60}),
            ("clt", {"p": [30], "testfunction": {"a": 0.35, "b": 0.65}, "samples": 60}),
            ("deviation", {"p": [15], "annulus": {"a": 0.25, "b": 0.6}, "delta": 0.4, "samples": 200}),
            ("kernel-decay", {"p": 100, "annulus": {"a": 0.3, "b": 0.7}, "n_pairs": 120}),
            ("l1log", {"p": [18], "annulus": {"a": 0.3, "b": 0.9}}),
        ],
    )
    def test_every_kind_dispatches(self, tmp_path, kind, params):
        cfg = write_config(tmp_path / "c.yaml", {"experiment": kind, "seed": 3, "params": params})
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) > 1
        json.loads((out / "summary.json").read_text())

    @pytest.mark.parametrize("n_pairs,regime", [(1, "far regime empty"), (2, "near regime empty")])
    def test_kernel_decay_empty_regime_exit_code(self, tmp_path, capsys, n_pairs, regime):
        cfg = write_config(tmp_path / "c.yaml", {
            "experiment": "kernel-decay", "seed": 3,
            "params": {"p": 100, "annulus": {"a": 0.3, "b": 0.7}, "n_pairs": n_pairs},
        })
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert regime in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [0, 1])
    @pytest.mark.parametrize("kind, params", [
        ("equidistribution", {"p": [20], "annulus": {"a": 0.3, "b": 0.6}}),
        ("holes", {"p": [4], "annulus": {"a": 0.25, "b": 0.45}}),
        ("deviation", {"p": [15], "annulus": {"a": 0.25, "b": 0.6}, "delta": 0.4}),
        ("clt", {"p": [30], "testfunction": {"a": 0.35, "b": 0.65}}),
        ("variance", {"p": [30], "testfunction": {"a": 0.35, "b": 0.65}}),
    ], ids=["equidistribution", "holes", "deviation", "clt", "variance"])
    def test_degenerate_samples_exit_code(self, tmp_path, capsys, kind, params, samples):
        cfg = write_config(tmp_path / "c.yaml", {"experiment": kind, "seed": 3, "params": dict(params, samples=samples)})
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "samples" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_model_kernel_via_cli(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {
            "experiment": "model-kernel",
            "seed": 2,
            "params": {"rho_prime": 2, "curvature": [[0, 0, 1.0]]},
        })
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--check"]) == 0
        rows = (out / "results.csv").read_text().splitlines()
        value_row = [r for r in rows if "model_kernel_at_zero" in r][0]
        assert float(value_row.split(",")[3]) == pytest.approx(1.0 / (2 * 3.141592653589793), rel=1e-8)

    @pytest.mark.parametrize("max_deg", [-1, 150, 1100])
    def test_degenerate_max_deg_exit_code(self, tmp_path, capsys, max_deg):
        # no monomial; radial moments that overflow; a frequency the step-halved angular nodes cannot resolve
        cfg = write_config(tmp_path / "c.yaml", {
            "experiment": "model-kernel",
            "seed": 2,
            "params": {"rho_prime": 2, "curvature": [[0, 0, 1.0]], "max_deg": max_deg},
        })
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert f"max_deg {max_deg}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ill_conditioned_gram_exit_code(self, tmp_path, capsys):
        # at psi = 2y^2 the step-halving check passes at max_deg 55, but the
        # monomial Gram's condition number is past 1/eps: Cholesky fails
        cfg = write_config(tmp_path / "c.yaml", {
            "experiment": "model-kernel",
            "seed": 2,
            "params": {"rho_prime": 4, "curvature": [[0, 2, 2.0]], "max_deg": 55},
        })
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "max_deg 55" in err and "ill-conditioned" in err
        assert not (tmp_path / "out").exists()


class TestListCommand:
    def test_lists_all_kinds(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for kind in (
            "plateau", "sup", "model-kernel", "equidistribution", "variance",
            "clt", "holes", "deviation", "kernel-decay", "l1log",
        ):
            assert kind in out
        assert "checks:" in out

    def test_json_listing(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 10
        assert all("anchor" in v and "parameters" in v for v in payload.values())

    def test_console_script_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bergman_zeros.cli", "list", "--json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "plateau" in proc.stdout
