import pytest

from rgcf.config import ConfigError, ExperimentConfig, build_config, parse_kv_lines, write_manifest


class TestParse:
    def test_comments_and_blanks(self):
        out = parse_kv_lines(["# header", "", "a=1 # trailing", "b = x y "], "test")
        assert out == {"a": "1", "b": "x y"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="test:2"):
            parse_kv_lines(["a=1", "bogus line"], "test")


class TestBuild:
    def test_defaults(self):
        cfg = build_config()
        assert cfg.seed == 0
        assert cfg.n_workers == 10
        assert cfg.filter_lr == 0.002

    def test_overrides_win_over_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("seed=5\nsteps=100\n")
        cfg = build_config(str(p), {"seed": "9"})
        assert cfg.seed == 9
        assert cfg.steps == 100

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config(None, {"stepz": "3"})

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            build_config(None, {"steps": "many"})

    def test_value_a_manifest_cannot_hold(self, tmp_path):
        # '#' starts a comment in a config line and a line break ends it,
        # so a manifest holding such a value would rerun elsewhere
        for value in ("runs/a#b", "runs/a\nb", "runs/a\rb"):
            with pytest.raises(ConfigError, match="bad value for out"):
                build_config(None, {"out": value})
        p = tmp_path / "c.cfg"
        p.write_text("out=runs/a#b\n")
        assert build_config(str(p)).out == "runs/a"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            build_config("/nonexistent/path.cfg")

    def test_helpers(self):
        # list keys parse to tuples, an empty scale to None (the attack default)
        cfg = build_config(None, {"hidden": "64,32", "attack_scale": "2.5", "train_attack_scale": ""})
        assert cfg.hidden == (64, 32)
        assert cfg.attack_scale == 2.5
        assert cfg.train_attack_scale is None
        cfg = build_config(None, {"compare_fractions": "0.5, 0.9,"})
        assert cfg.compare_fractions == (0.5, 0.9)
        with pytest.raises(ConfigError, match="bad value for bench_n"):
            build_config(None, {"bench_n": "10,x"})


class TestManifest:
    def test_round_trip(self, tmp_path):
        cfg = build_config(
            None,
            {
                "seed": "42",
                "arch": "mlp",
                "hidden": "64,32",
                "bench_n": "10,20,40",
                "compare_methods": "median",
                "compare_attacks": "inverse,all_ones",
                "compare_fractions": "0.25,0.5",
                "attack_scale": "2.5",
                "train_attack_scale": "",
            },
        )
        path = str(tmp_path / "manifest.txt")
        write_manifest(cfg, path)
        again = build_config(path)
        assert again == cfg
        assert again.train_attack_scale is None
        lines = open(path).read().splitlines()
        assert "compare_fractions=0.25,0.5" in lines
        assert "train_attack_scale=" in lines

    def test_manifest_lists_every_field(self, tmp_path):
        path = str(tmp_path / "manifest.txt")
        write_manifest(ExperimentConfig(), path)
        keys = set(parse_kv_lines(open(path), path))
        from dataclasses import fields

        assert keys == {f.name for f in fields(ExperimentConfig)}
