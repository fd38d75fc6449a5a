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

from projlab import cli
from projlab.cli import COMMANDS, DEFAULTS, main, resolve_config, run
from projlab.errors import ConfigurationError

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


#: sha256 of each default output; no BLAS kernel tried moves them
DEFAULT_DIGESTS = {
    "gen": {
        "gen.csv": "585a1e8bccde82e0c1f5cc66f70cb7f28437e4a19a1e423fb8a835d81d9e8b3e",
        "gen_summary.json": "f4c1a82cde78d7fafeab1acb6dd5808bd63a883f27b807f1f84af96b0fb9dd69",
    },
    "cover": {
        "cover.csv": "b5f6a6929f4e50e2e4cbc69606b2d0992b55b0b726c0289e06eea34e2d4866d3",
        "cover.json": "c9607de45b2e996699a896c7397a293d6d694684e7389e9bc0da7d416efcd1c4",
        "cover_summary.json": "3fdf0ea756155a10800e34346802ca0353ece78ebc4a19bee8506f68834db53b",
    },
    "incidence": {
        "incidence.csv": "d6651d7b54ffe479d07a593413f9644b585f478b610bb10ea08376b110073379",
        "incidence_summary.json":
            "f6a00be5019818af8bfabc6006c154f0c1d84c0e94179bed09a2092f4449a958",
    },
    "sweep": {
        "sweep.csv": "7706f3d33f276e8c380e3f2a9ed59411c81617ebd991a408dee32ab34680a144",
        "sweep_summary.json": "146af8fd8b797ec1bdefb5e676973167d595668462abd3a9b8f1793461b8b4d8",
    },
    "decouple": {
        "decouple.csv": "655442444a4735e139a28d264968b4af189cfea1a9b0e6b8fd56e5adb9c1fa78",
        "decouple_summary.json":
            "25c762f99f62f7a7e8b2fde7d7d5278eef33585a19e7bdb311a0793571cb6ff5",
    },
}

#: the same for `incidence --set 'curve="helix"'`, whose frames come from the
#: helix's closed-form derivative (the CSV names no curve, so it matches the default's)
HELIX_INCIDENCE_DIGESTS = {
    "incidence.csv": "d6651d7b54ffe479d07a593413f9644b585f478b610bb10ea08376b110073379",
    "incidence_summary.json": "ce49daddfc9316f92211e824bee38dce34c3df945357f9846abf172a09f28693",
}

#: one child per BLAS kernel: writes the default output of every command
#: under argv[1] and prints the digests of a raw matvec (which shows
#: whether the kernel took effect), of each named curve's frame and margin,
#: and of library results no command reaches: the assignment of the model
#: curve turned 90 degrees about the x axis (the turn summed in a fixed
#: order), a seeded cap function's envelope boxes and wave envelope at
#: M = 32, a seeded config's incidence matrix, and a tube function's split
KERNEL_CHILD = """
import hashlib, json, math, sys
import numpy as np
from projlab.cli import COMMANDS, main
from projlab.curve import Curve, frame, model_curve, named_curve, nondegeneracy_margin
from projlab.fourier import (build_geometry, high_low_split, random_cap_function,
    synth_tube_function, tspacing_subsample, wave_envelope_rhs)
from projlab.incidence import IncidenceSpec, incidence_count, make_family, random_admissible_config
for command in COMMANDS:
    assert main([command, "--out", f"{sys.argv[1]}/{command}"]) == 0
def digest(*arrays):
    return hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in arrays)).hexdigest()
x = np.random.default_rng(0).random((100000, 3))
thetas = np.linspace(0.0, 1.0, 257)
curves = {}
for name in ("model", "helix", "greatcircle"):
    curve = named_curve(name)
    curves[name] = digest(*frame(curve, thetas), nondegeneracy_margin(curve))
w = x_ = 0.375 / math.sqrt(2 * 0.375**2)  # the unit quaternion (w, x, 0, 0)
rot = np.array([[1.0, 0.0, 0.0], [0.0, 1 - 2 * x_ * x_, -2 * w * x_], [0.0, 2 * w * x_, 1 - 2 * x_ * x_]])
def turn(a):
    return np.stack([(a[:, 0] * r[0] + a[:, 1] * r[1]) + a[:, 2] * r[2] for r in rot], axis=1)
m = model_curve()
turned = Curve("turned", lambda t: turn(m.points(t)), lambda t: turn(m.deriv1(t)), lambda t: turn(m.deriv2(t)))
geo = build_geometry(model_curve(), 2.0**-5)
g = random_cap_function(geo, tspacing_subsample(geo, 0.5, 0), seed=0)
rep = wave_envelope_rhs(g, geo)
cfg = random_admissible_config(IncidenceSpec(delta=2.0**-5, s=0.5, t=0.5, seed=0))
f = synth_tube_function(make_family(0.1, [0.0, 0.25], delta=2.0**-5, s=0.5), geo)
library = {
    "turned_assignment": digest(build_geometry(turned, 2.0**-5).assignment),
    "envelope": digest(*geo.envelope_boxes.values(), rep.total, rep.l4, *rep.per_s.values()),
    "incidence": digest(cfg.balls.indices, incidence_count(cfg, named_curve("model")).hits),
    "tube_split": digest(f.samples, *(h.samples for h in high_low_split(f, 0.1, 4, geo))),
}
print(json.dumps({"matvec": digest(x @ np.array([0.3, -0.7, 0.2])), "curves": curves, "library": library}))
"""


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


class TestThreads:
    def test_unset_means_one(self, monkeypatch):
        monkeypatch.delenv("PROJLAB_THREADS", raising=False)
        assert cli.threads() == 1

    @pytest.mark.parametrize("value", ["1", "8", "64"])
    def test_integer_in_range_accepted(self, monkeypatch, value):
        monkeypatch.setenv("PROJLAB_THREADS", value)
        assert cli.threads() == int(value)

    # read only, so no thread is started: these mapped to 1 silently, or
    # (100000) sized a pool with one thread per item
    @pytest.mark.parametrize(
        "value", ["abc", "", "0", "-3", "4.0", "1e3", "65", "100000"]
    )
    def test_anything_else_refused(self, monkeypatch, value):
        monkeypatch.setenv("PROJLAB_THREADS", value)
        with pytest.raises(ConfigurationError, match="PROJLAB_THREADS"):
            cli.threads()


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
            # sweep has no seed either
            ("sweep", {"seed": 0}),
            # 65537 x 2^17 slab-offset weights at delta = 2^-16, t = 1 are refused before the draw
            ("incidence", {"t": 1, "deltas": [2.0**-16]}),
            # the subnormal 2^-1074 is dyadic: its level used to overflow a round()
            ("incidence", {"deltas": [5e-324]}),
            ("decouple", {"deltas": [5e-324]}),
            # huge size keys are refused before they are built: these hung or ran out of memory
            ("gen", {"depth": 1e300}),
            ("sweep", {"theta_grid": 1e300}),
            ("incidence", {"n_seeds": 1e300}),
            ("decouple", {"n_seeds": 1e300}),
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

    @pytest.mark.parametrize(
        "command, depth", [("gen", 10), ("gen", 24), ("sweep", 10), ("sweep", 24)]
    )
    def test_cantor3d_over_the_cap_refused_before_a_factor_is_built(
        self, tmp_path, capsys, monkeypatch, command, depth
    ):
        # depth 24 spent 19.5 s building a 2^24-cell factor before product_set refused it
        def no_deep_factor(ratio, depth):
            raise AssertionError(f"built a depth-{depth} factor")

        monkeypatch.setattr(cli, "cantor_1d", no_deep_factor)
        assert run(command, {"depth": depth}, tmp_path) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "config"
        assert "exceeds the cap" in err["message"]

    def test_refusal_removes_only_the_directories_it_made(self, tmp_path, capsys):
        # a runner's refusal used to leave the empty --out behind
        made = tmp_path / "a" / "b" / "d24"
        assert run("gen", {"depth": 24}, made) == 2
        assert list(tmp_path.iterdir()) == []
        kept = tmp_path / "kept"
        kept.mkdir()
        assert run("gen", {"depth": 24}, kept) == 2
        assert kept.is_dir() and list(kept.iterdir()) == []
        assert run("gen", {"depth": 24}, kept / "d24") == 2
        assert list(tmp_path.iterdir()) == [kept] and list(kept.iterdir()) == []
        capsys.readouterr()

    def test_out_path_through_a_file_exits_2(self, tmp_path, capsys):
        # mkdir's FileExistsError and NotADirectoryError used to escape as tracebacks
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        for out in (blocker, blocker / "sub"):
            assert run("gen", {}, out) == 2
            assert json.loads(capsys.readouterr().out)["error"]["kind"] == "config"
        assert blocker.read_text() == ""

    def test_refusal_keeps_a_directory_the_runner_wrote_into(self, tmp_path, capsys, monkeypatch):
        def partial(cfg, out, map_fn):
            (out / "part.csv").write_text("x")
            raise ConfigurationError("refused after a write")

        monkeypatch.setitem(cli.RUNNERS, "gen", partial)
        out = tmp_path / "a" / "out"
        assert run("gen", {}, out) == 2
        assert [f.name for f in out.iterdir()] == ["part.csv"]
        assert "refused after a write" in capsys.readouterr().out

    def test_cantor3d_at_depth_9_still_builds_its_factor(self, tmp_path, capsys, monkeypatch):
        # the smallest product at depth 9 fits, so product_set refuses it as before
        calls, real = [], cli.cantor_1d

        def counted(ratio, depth):
            calls.append(depth)
            return real(ratio, depth)

        monkeypatch.setattr(cli, "cantor_1d", counted)
        assert run("gen", {"depth": 9}, tmp_path) == 2
        assert calls == [9]
        err = json.loads(capsys.readouterr().out)["error"]
        assert "product cells exceed the cap" in err["message"]

    @pytest.mark.parametrize(
        "command, raw, files",
        [
            ("gen", {"depth": 2}, {"gen.csv", "gen_summary.json"}),
            ("cover", {"depth": 3}, {"cover.csv", "cover.json", "cover_summary.json"}),
            ("sweep", {"depth": 2, "theta_grid": 8}, {"sweep.csv", "sweep_summary.json"}),
            ("incidence", {"deltas": [2.0**-3]}, {"incidence.csv", "incidence_summary.json"}),
            (
                "decouple",
                {"deltas": [2.0**-4], "n_seeds": 1},
                {"decouple.csv", "decouple_summary.json"},
            ),
        ],
    )
    def test_outputs_are_numbers_only(self, tmp_path, command, raw, files):
        assert run(command, raw, tmp_path) == 0
        assert {p.name for p in tmp_path.iterdir()} == files

    @pytest.mark.parametrize(
        "command, raw, digests",
        [pytest.param(c, {}, DEFAULT_DIGESTS[c], id=c) for c in sorted(DEFAULT_DIGESTS)]
        + [pytest.param("incidence", {"curve": "helix"}, HELIX_INCIDENCE_DIGESTS, id="incidence-helix")],
    )
    def test_default_output_bytes_are_pinned(self, tmp_path, command, raw, digests):
        assert run(command, raw, tmp_path) == 0
        assert hash_dir(tmp_path) == digests


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
    1e300, 5e-324, [5e-324],
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
            ["sweep", "--config", str(cfg), "--set", "margin=0.2", "--out", str(tmp_path / "a")]
        )
        assert a.returncode == 0, a.stderr
        b = run_cli(
            ["sweep", "--config", str(cfg), "--set", "margin=0.2", "--out", str(tmp_path / "b")]
        )
        assert b.returncode == 0
        assert hash_dir(tmp_path / "a") == hash_dir(tmp_path / "b")
        summary = json.loads((tmp_path / "a" / "sweep_summary.json").read_text())
        assert summary["config"]["margin"] == 0.2

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        # incidence threads share the named curve object, and with it the count memo key
        cases = [
            ("sweep", {"depth": 3, "theta_grid": 24}, "4"),
            ("incidence", {"n_seeds": 3}, "2"),
        ]
        for command, config, many in cases:
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(json.dumps(config))
            hashes = []
            for n in ("1", many):
                out = tmp_path / f"{command}-t{n}"
                r = run_cli(
                    [command, "--config", str(cfg), "--out", str(out)],
                    env_extra={"PROJLAB_THREADS": n},
                )
                assert r.returncode == 0, r.stderr
                hashes.append(hash_dir(out))
            assert hashes[0] == hashes[1], command

    def test_blas_kernel_does_not_change_bytes(self, tmp_path):
        runs = {}
        for kernel in ("Haswell", "Prescott"):
            r = subprocess.run(
                [sys.executable, "-c", KERNEL_CHILD, str(tmp_path / kernel)],
                capture_output=True,
                text=True,
                env={**os.environ, "OPENBLAS_CORETYPE": kernel},
            )
            if r.returncode < 0:
                pytest.skip(f"the {kernel} kernel does not run on this CPU (signal {-r.returncode})")
            assert r.returncode == 0, r.stderr
            runs[kernel] = json.loads(r.stdout)
        if runs["Haswell"]["matvec"] == runs["Prescott"]["matvec"]:
            pytest.skip("a raw matvec has the same bits under both kernels here, so the test cannot tell them apart")
        assert runs["Haswell"]["curves"] == runs["Prescott"]["curves"]
        assert runs["Haswell"]["library"] == runs["Prescott"]["library"]
        for command in COMMANDS:
            haswell, prescott = (hash_dir(tmp_path / k / command) for k in runs)
            assert haswell == prescott, command

    def test_bad_thread_count_exits_2_before_any_output(self, tmp_path):
        out = tmp_path / "o"
        r = run_cli(
            ["sweep", "--set", "depth=2", "--set", "theta_grid=8", "--out", str(out)],
            env_extra={"PROJLAB_THREADS": "abc"},
        )
        assert r.returncode == 2, r.stderr
        assert json.loads(r.stdout)["error"]["kind"] == "config"
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        r = run_cli(["sweep", "--config", str(tmp_path / "nope.json")])
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["kind"] == "config"

    @pytest.mark.parametrize(
        "content", [b"[1, 2]", b"3", b'"depth"', b"null", b"\xff\xfe{}"]
    )
    def test_config_file_not_a_json_object(self, tmp_path, capsys, content):
        # anything but a JSON object in UTF-8 is a config error, never a traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "config"
        assert not (tmp_path / "o").exists()

    def test_main_entrypoint_direct(self, tmp_path, capsys):
        code = main(["gen", "--set", "depth=3", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "gen_summary.json").exists()
