import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from projlab.cli import COMMANDS, DEFAULTS, main, resolve_config, run

REPO = Path(__file__).resolve().parents[1]


def run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "projlab", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def hash_dir(path: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
    }


class TestConfig:
    def test_defaults_filled(self):
        cfg = resolve_config("sweep", {})
        assert cfg["theta_grid"] == 256
        assert cfg["command"] == "sweep"

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception):
            resolve_config("sweep", {"bogus": 1})

    def test_bad_delta_rejected(self):
        with pytest.raises(Exception):
            resolve_config("decouple", {"deltas": [0.3]})


class TestRun:
    def test_sweep_row_count(self, tmp_path):
        code = run("sweep", {"depth": 3, "theta_grid": 48}, tmp_path)
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0] == "theta,est_dim,r2,below_s"
        assert len(rows) == 49  # header + one row per grid point

    def test_decouple_row_count(self, tmp_path):
        code = run(
            "decouple",
            {"deltas": [2.0**-4, 2.0**-5], "n_seeds": 2},
            tmp_path,
        )
        assert code == 0
        rows = (tmp_path / "decouple.csv").read_text().splitlines()
        assert rows[0] == "delta,t,seed,lhs,rhs,ratio"
        assert len(rows) == 1 + 2 * 2  # cartesian count plus header

    def test_incidence_outputs(self, tmp_path):
        code = run(
            "incidence",
            {"deltas": [2.0**-4, 2.0**-5], "s": 0.5, "t": 0.5},
            tmp_path,
        )
        assert code == 0
        summary = json.loads((tmp_path / "incidence_summary.json").read_text())
        assert summary["ceiling_ok"] is True
        assert summary["config"]["epsilon"] == 0.1

    def test_gen_and_cover(self, tmp_path):
        assert run("gen", {"depth": 3}, tmp_path / "g") == 0
        assert (tmp_path / "g" / "gen.csv").exists()
        assert run("cover", {"depth": 5, "s": 0.8}, tmp_path / "c") == 0
        summary = json.loads((tmp_path / "c" / "cover_summary.json").read_text())
        assert summary["cover_ok"] is True
        assert summary["worst_condition3_ratio"] <= 1.0

    def test_summary_echoes_resolved_config(self, tmp_path):
        run("sweep", {"depth": 3, "theta_grid": 16}, tmp_path)
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert set(summary["config"]) >= {
            "command",
            "curve",
            "depth",
            "margin",
            "ratio",
            "s",
            "seed",
            "theta_grid",
        }

    def test_infeasible_exit_code(self, tmp_path, capsys):
        code = run(
            "cover", {"generator": "grid1d", "depth": 6, "s": 0.5}, tmp_path
        )
        assert code == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "infeasible"

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        code = run("sweep", {"s": 7.0}, tmp_path)
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "config"

    @pytest.mark.parametrize(
        "command, override",
        [
            ("incidence", {"deltas": [1.0]}),
            ("incidence", {"deltas": []}),
            ("incidence", {"n_seeds": 0}),
            ("decouple", {"n_seeds": 0}),
            # numeric keys are type- and range-checked once in resolve_config
            ("cover", {"epsilon": "x"}),
            ("cover", {"ratio": "x"}),
            ("cover", {"depth": "x"}),
            ("sweep", {"margin": "x"}),
            ("sweep", {"theta_grid": 2.5}),
            ("cover", {"min_level": -3}),
            ("cover", {"epsilon": float("inf")}),
            ("incidence", {"seed": -1}),
            ("incidence", {"n_seeds": 1.5}),
            ("gen", {"depth": True}),
            # generator names are checked in resolve_config
            ("gen", {"generator": "foo"}),
            ("cover", {"generator": 3}),
            # a direction net at delta = 2^-40 is refused before allocation
            ("incidence", {"deltas": [2.0**-40]}),
            # gen and cover have no curve or seed
            ("gen", {"curve": "model"}),
            ("cover", {"seed": 0}),
            # delta^-(2t+s+2+eps) overflows, or underflows to 0
            ("incidence", {"epsilon": 1000}),
            ("incidence", {"epsilon": -2000}),
            # the Cantor level k = round(depth log2(1/ratio)) overflows int64
            ("gen", {"ratio": 1e-5, "depth": 4}),
            ("gen", {"ratio": 1e-310}),
        ],
    )
    def test_degenerate_deltas_or_seeds_exit_code(self, tmp_path, capsys, command, override):
        code = run(command, override, tmp_path)
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "config"

    def test_cantor_level_overflow_names_k(self, tmp_path, capsys):
        assert run("gen", {"ratio": 1e-5, "depth": 4}, tmp_path) == 2
        err = json.loads(capsys.readouterr().out)
        assert "level k=66" in err["error"]["message"]

#: small valid values per config key, so that a valid run takes milliseconds
TINY = {
    "curve": ["model", "helix", "greatcircle"],
    "generator": ["cantor3d", "cantor1d", "grid1d"],
    "ratio": [1 / 3, 0.25, 0.5],
    "depth": [1, 2, 3, 4],
    "s": [0.3, 0.5, 1.0],
    "t": [0.3, 0.5, 1.0],
    "epsilon": [0.1, 1.0],
    "min_level": [0, 2],
    "theta_grid": [2, 7, 16],
    "margin": [0.0, 0.1],
    "deltas": [[2.0**-2], [2.0**-3], [2.0**-4], [2.0**-4, 2.0**-2]],
    "n_seeds": [1, 2],
    "seed": [0, 3],
}

#: values no key accepts, or accepts only at its edge
JUNK = [
    None, "", "x", "foo", [], [0.5, "x"], {"a": 1}, True, False,
    math.nan, math.inf, -math.inf, -1, -0.5, 2.5, 2.0**-40, [2.0**-40],
]


@st.composite
def configs(draw, command):
    """Every key of the command set from TINY, at most two of them from JUNK."""
    keys = sorted(DEFAULTS[command])
    bad = draw(st.lists(st.sampled_from(keys), max_size=2, unique=True))
    pools = {k: JUNK if k in bad else TINY[k] for k in keys}
    return {k: draw(st.sampled_from(pools[k])) for k in keys}


@pytest.mark.parametrize("command", COMMANDS)
@given(data=st.data())
def test_every_config_exits_0_2_or_3_with_an_error_json(command, data):
    raw = data.draw(configs(command))
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(stdout):
        code = run(command, raw, out)
        wrote_summary = (Path(out) / f"{command}_summary.json").exists()
    assert code in (0, 2, 3)
    if code == 0:
        assert wrote_summary
    else:
        kind = json.loads(stdout.getvalue())["error"]["kind"]
        assert kind == {2: "config", 3: "infeasible"}[code]


class TestCliProcess:
    def test_set_override_and_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth": 3, "theta_grid": 24}))
        a = run_cli(
            ["sweep", "--config", str(cfg), "--set", "seed=1", "--out", str(tmp_path / "a")]
        )
        assert a.returncode == 0, a.stderr
        b = run_cli(
            ["sweep", "--config", str(cfg), "--set", "seed=1", "--out", str(tmp_path / "b")]
        )
        assert b.returncode == 0
        assert hash_dir(tmp_path / "a") == hash_dir(tmp_path / "b")
        summary = json.loads((tmp_path / "a" / "sweep_summary.json").read_text())
        assert summary["config"]["seed"] == 1

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth": 3, "theta_grid": 24}))
        hashes = []
        for n, name in (("1", "t1"), ("4", "t4")):
            r = run_cli(
                ["sweep", "--config", str(cfg), "--out", str(tmp_path / name)],
                env_extra={"PROJLAB_THREADS": n},
            )
            assert r.returncode == 0, r.stderr
            hashes.append(hash_dir(tmp_path / name))
        assert hashes[0] == hashes[1]

    def test_missing_config_file(self, tmp_path):
        r = run_cli(["sweep", "--config", str(tmp_path / "nope.json")])
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["kind"] == "config"

    def test_main_entrypoint_direct(self, tmp_path, capsys):
        code = main(["gen", "--set", "depth=3", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "gen_summary.json").exists()
