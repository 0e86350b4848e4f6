"""Command-line surface tests: config handling, outputs, exit codes, manifests."""

import hashlib
import json
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qtraj import analysis, atomic, cli, engine, stats
from qtraj.atomic import atomic_open, fmt17, write_csv
from qtraj.cli import ConfigError, main, parse_config_file, resolve_config
from qtraj.engine import CHUNK_ROWS, simulate


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(args):
    return main([str(a) for a in args])


def _argv(command, flags):
    """CLI argv of a command whose flags are resolve_config keys."""
    return [command, *(a for k, v in flags.items() for a in ("--" + k.replace("_", "-"), v))]


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# a comment\n"
            "x1 = 4.0\n"
            "c1sq = 0.3  # inline comment\n"
            "n = 5000\n"
            "mixture = true\n"
            "measure = p\n"
        )
        values = parse_config_file(cfg)
        assert values == {"x1": 4.0, "c1sq": 0.3, "n": 5000, "mixture": True, "measure": "p"}

    def test_unknown_key_names_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x1 = 1.0\nbogus = 3\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2.*bogus"):
            parse_config_file(cfg)

    def test_bad_value_names_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = few\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:1.*int"):
            parse_config_file(cfg)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "nope.cfg")

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x1 = 4.0\nseed = 1\n")
        merged, spec, mcfg = resolve_config(parse_config_file(cfg), {"x1": 2.0})
        assert spec.x1 == 2.0
        assert mcfg.seed == 1

    def test_alpha0_sets_cat_state(self):
        merged, spec, _ = resolve_config({}, {"alpha0": 2.0})
        assert spec.r == 0.0 and spec.x1 == 4.0

    def test_invalid_physics_is_config_error(self):
        with pytest.raises(ConfigError, match="c1_sq"):
            resolve_config({}, {"c1sq": 1.4})

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_must_be_positive(self, tmp_path, workers):
        with pytest.raises(ConfigError, match="workers"):
            resolve_config({}, {"workers": workers})
        out = tmp_path / "out"
        assert run(["born", "--workers", workers, "--out-dir", out]) == 2
        assert not out.exists()

    def test_default_workers_follow_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert resolve_config({}, {})[0]["workers"] == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert resolve_config({}, {})[0]["workers"] == 3

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("QTRAJ_SEED", "777")
        merged, _, mcfg = resolve_config({}, {})
        assert mcfg.seed == 777
        monkeypatch.setenv("QTRAJ_SEED", "not-a-number")
        with pytest.raises(ConfigError):
            resolve_config({}, {})


class TestConfigErrors:
    """Unusable configuration input ends in one error line, exit 2 and no out_dir."""

    def check(self, capsys, args, out):
        assert run([*args, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert not out.exists()
        return err

    def manifest(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        return ["born", "--from-manifest", path]

    def test_manifest_not_json(self, tmp_path, capsys):
        self.check(capsys, self.manifest(tmp_path, "{not json"), tmp_path / "out")

    def test_manifest_config_not_object(self, tmp_path, capsys):
        self.check(capsys, self.manifest(tmp_path, '{"config": [1, 2]}'), tmp_path / "out")

    def test_manifest_value_wrong_type(self, tmp_path, capsys):
        args = self.manifest(tmp_path, '{"config": {"workers": "2"}}')
        self.check(capsys, args, tmp_path / "out")

    def test_manifest_at_other_gain(self, tmp_path, capsys):
        args = self.manifest(tmp_path, '{"config": {"g": 2.0}}')
        assert "g = 2.0" in self.check(capsys, args, tmp_path / "out")

    def test_config_path_is_directory(self, tmp_path, capsys):
        self.check(capsys, ["born", tmp_path], tmp_path / "out")

    def test_grid_step_not_positive(self, tmp_path, capsys):
        self.check(capsys, ["verify", "--grid-dx", 0, "--n", 100], tmp_path / "out")

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"x1 = 4.0  # caf\xe9\n")
        self.check(capsys, ["born", cfg], tmp_path / "out")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", [k for k, (typ, _, _) in cli._KEYS.items() if typ is float])
    def test_non_finite_float_refused(self, tmp_path, capsys, key, value):
        # "--key=-inf": a separate "-inf" would be read as a flag
        flag = "--" + key.replace("_", "-") + "=" + value
        err = self.check(capsys, ["born", flag, "--n", 100], tmp_path / "out")
        assert f"{key} must be finite" in err

    @pytest.mark.parametrize("text, shown", [
        # Python's JSON reader takes the NaN token that strict JSON has not
        ("NaN", "nan"),
        # an int that no float can hold
        ("1" + "0" * 400, "1" + "0" * 400),
    ], ids=["nan", "int-past-float-range"])
    def test_non_finite_manifest_value_refused(self, tmp_path, capsys, text, shown):
        args = self.manifest(tmp_path, '{"config": {"x1": %s}}' % text)
        assert f"x1 must be finite, got {shown}\n" in self.check(capsys, args, tmp_path / "out")

    @pytest.mark.parametrize("action", ["error", "default"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--alpha0", "1e200", "--n", "100", "--gtf", "1", "--dt", "0.5"],
        ["born", "--alpha0", "1e200", "--n", "1000", "--gtf", "1", "--dt", "0.5"],
        ["marginal", "--alpha0", "1e200"],
        ["marginal", "--x1", "1e154", "--c1sq", "0.999999999"],
        ["postselect", "--x1", "1e154", "--n", "3000", "--grid-dx", "1e-3"],
        ["verify", "--shift-x1", "1e200", "--n", "3000"],
    ], ids=["simulate", "born", "marginal-alpha0", "marginal-x1", "postselect", "verify-shift"])
    def test_coordinate_square_overflow_exits_two(self, tmp_path, capsys, argv, action):
        # Each overflowed a square: a RuntimeWarning traceback and exit 1 under
        # the error filter, and without it an artifact of overflowed numbers
        # (marginal's x grid was spaced 2e197 apart).  Refused by the config.
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            err = self.check(capsys, [*argv, "--workers", 1], tmp_path / "out")
        assert "twice that, squared, overflows a float" in err

    @pytest.mark.parametrize("flag", ["--grid-dx", "--grid-dp"])
    def test_grid_step_past_the_vacuum_width_exits_two(self, tmp_path, capsys, flag):
        # Bins 1e100 wide gave Simpson bin "probabilities" near 1e99 and a
        # FAIL verdict, and with both steps that wide an overflowing square in
        # the chi-squared; no packet is narrower than width 1.
        args = ["verify", flag, "1e100", "--n", 3000, "--gtf", 1, "--dt", 0.5, "--workers", 1]
        assert "(0, 1]" in self.check(capsys, args, tmp_path / "out")

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_step_count_overflow_exits_two(self, tmp_path, capsys, command):
        # 3e300 steps are more than a range over the steps can hold: refused
        # by the config, not by an OverflowError deep in the run
        err = self.check(capsys, [command, "--dt", "1e-300", "--n", 10], tmp_path / "out")
        assert "t_f/dt" in err


class TestSimulateCommand:
    def test_outputs_and_manifest(self, tmp_path):
        rc = run(["simulate", "--x1", 8, "--r", 2, "--gtf", 2, "--dt", 0.1,
                  "--n", 40, "--seed", 7, "--workers", 1, "--out-dir", tmp_path])
        assert rc == 0
        csv = tmp_path / "trajectories.csv"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert csv.exists()
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "sample_id,t,x,p,hill"
        assert len(lines) == 1 + 40 * 21
        assert manifest["outputs"][0]["sha256"] == sha256(csv)
        # amplified boundary sits near +-e^2 * 8
        boundary = [float(l.split(",")[2]) for l in lines[1:] if l.split(",")[1] == "2"]
        assert all(abs(abs(b) - 8 * np.exp(2.0)) < 8 for b in boundary)

    def test_wall_time_ignores_a_clock_step(self, tmp_path, monkeypatch):
        # the system clock steps back an hour at every read
        stamps = iter(range(10**9, 0, -3600))
        monkeypatch.setattr(cli.time, "time", lambda: float(next(stamps)))
        rc = run(["simulate", "--n", 40, "--gtf", 1, "--seed", 7, "--workers", 1,
                  "--out-dir", tmp_path])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["wall_time_s"] >= 0

    def test_manifest_round_trip_bit_identical(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run(["simulate", "--n", 500, "--gtf", 1, "--dt", 0.1, "--seed", 3,
                    "--workers", 1, "--out-dir", out1]) == 0
        assert run(["simulate", "--from-manifest", out1 / "manifest.json",
                    "--out-dir", out2]) == 0
        assert sha256(out1 / "trajectories.csv") == sha256(out2 / "trajectories.csv")
        # a manifest written while the config still had g and paper_scale
        manifest = json.loads((out1 / "manifest.json").read_text())
        manifest["config"].update(g=1.0, paper_scale=False)
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        assert run(["simulate", "--from-manifest", old, "--out-dir", tmp_path / "c"]) == 0
        assert sha256(out1 / "trajectories.csv") == sha256(tmp_path / "c" / "trajectories.csv")

    def test_measure_p_links_close_packets(self, tmp_path):
        # x1 = 0.3: a linked row at the fringe's crest accepts 2% of its
        # proposals, and at seed 1 the slowest of 16,384 rows needs more than
        # sampler._MAX_REJECTION_ROUNDS (128) rounds
        rc = run(["simulate", "--measure", "p", "--c1sq", 0.5, "--x1", 0.3, "--r", 2,
                  "--n", 16_384, "--gtf", 1, "--dt", 0.5, "--seed", 1, "--workers", 1,
                  "--out-dir", tmp_path])
        assert rc == 0
        assert (tmp_path / "trajectories.csv").read_text().count("\n") == 1 + 16_384 * 3

    @pytest.mark.parametrize("flag", [["--g", "1"], ["--paper-scale"]])
    def test_removed_flags_are_refused(self, flag):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", *flag])
        assert exc.value.code == 2

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        digests = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert run(["simulate", "--n", 20000, "--gtf", 1, "--dt", 0.1, "--seed", 5,
                        "--workers", workers, "--out-dir", out]) == 0
            digests.append(sha256(out / "trajectories.csv"))
        assert digests[0] == digests[1]

    def test_writes_chunk_by_chunk_without_gathering_the_run(self, tmp_path, monkeypatch):
        # three chunks, the last short: sample ids run on across chunk boundaries
        flags = {"n": 2 * CHUNK_ROWS + 5, "gtf": 0.2, "seed": 4}
        _, spec, cfg = resolve_config({}, flags)
        batch = simulate(spec, cfg)
        n, k = batch.amplified.shape
        block = (np.arange(n).repeat(k), np.tile(fmt17(batch.times_stored()), n),
                 batch.amplified.ravel(), batch.attenuated.ravel(), batch.boundary_hill.repeat(k))
        write_csv(tmp_path / "whole.csv", ("sample_id", "t", "x", "p", "hill"), [block])

        def refuse(*args, **kwargs):
            raise AssertionError("the simulate command gathered a whole run")

        from qtraj import engine

        monkeypatch.setattr(engine, "simulate", refuse)
        monkeypatch.setattr(cli, "simulate", refuse)
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert run([*_argv("simulate", flags), "--workers", workers, "--out-dir", out]) == 0
            assert sha256(out / "trajectories.csv") == sha256(tmp_path / "whole.csv")

    def test_missing_config_no_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run(["simulate", tmp_path / "absent.cfg", "--out-dir", out])
        assert rc == 2
        assert not out.exists()


    def test_run_error_exits_two(self, tmp_path, monkeypatch, capsys):
        from qtraj import engine

        def fail(*args, **kwargs):
            raise RuntimeError("fringe rejection sampler failed to terminate")

        monkeypatch.setattr(engine, "sample_fringe", fail)
        out = tmp_path / "out"
        rc = run(["simulate", "--n", 50, "--gtf", 1, "--workers", 1, "--out-dir", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: fringe rejection sampler failed to terminate\n"
        assert not out.exists()  # the out_dir this run created is removed again

    def test_unallocatable_grid_exits_two(self, tmp_path, capsys):
        # a valid horizon whose auto grid would need PiB of edges is a run
        # error, not a crash: the cell bound refuses it before any array is built
        out = tmp_path / "out"
        rc = run(["verify", "--gtf", 30, "--n", 2000, "--workers", 1, "--out-dir", out])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--x1", "1e308"], ["--grid-dx", "1e-310"]])
    def test_non_finite_grid_extent_exits_two(self, tmp_path, capsys, flags):
        # an extent of inf bin widths is refused with one error line, not an
        # OverflowError traceback; x1 = 1e308 is refused sooner, by the config's
        # coordinate bound
        rc = run(["verify", *flags, "--n", 2000, "--workers", 1, "--out-dir", tmp_path])
        assert rc == 2
        err = capsys.readouterr().err
        prefix = "configuration error: " if flags[0] == "--x1" else "error: "
        assert err.startswith(prefix) and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []  # an out_dir that existed is kept

    def test_oversized_grid_exits_two(self, tmp_path, capsys):
        # gtf 12 at desk resolution would lay out 3.8e9 windowed cells (28.6 GiB of
        # counts): refused with one error line before anything is simulated
        rc = run(["verify", "--gtf", 12, "--n", 2000, "--workers", 1, "--out-dir", tmp_path])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "3,843,507,504 cells, more than the bound of 268,435,456" in err
        for name in ("manifest.json", "chi2_report.json", "histogram.csv"):
            assert not (tmp_path / name).exists()


class TestAtomicOutputs:
    def test_failed_writer_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            with atomic_open(target) as fh:
                fh.write("partial,row")
                raise RuntimeError("writer failed")
        assert list(tmp_path.iterdir()) == []

    def test_failed_writer_keeps_previous_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("previous\n")
        with pytest.raises(OSError):
            with atomic_open(target) as fh:
                fh.write("partial,row")
                raise OSError("disk full")
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "previous\n"

    def test_block_with_wrong_column_count_leaves_no_file(self, tmp_path):
        with pytest.raises(ValueError, match="2 columns for 3 names"):
            write_csv(tmp_path / "out.csv", ("a", "b", "c"), [([1, 2], [3, 4])])
        assert list(tmp_path.iterdir()) == []

    def test_fmt17_integers_match_float_format(self):
        values = np.array([0, 1, -1, 7, -65536, 10**15 + 1, 2**53, -(2**53)], dtype=np.int64)
        expected = [format(v, ".17g") for v in values.tolist()]
        assert fmt17(values).tolist() == expected
        assert fmt17(values.astype(np.int8)[:4]).tolist() == expected[:4]
        assert fmt17(np.array([2**53 + 1])).tolist() == [format(2**53 + 1, ".17g")]
        assert fmt17(np.array([], dtype=np.int64)).tolist() == []

    def test_block_rows_move_no_byte(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(11)
        wide = np.zeros((3, atomic._BLOCK_ROWS + 500), dtype=np.uint16)
        wide[1] = rng.integers(1, 300, wide.shape[1])  # one x row holds more than a block
        wide[2, ::7] = 65_535
        sparse = rng.integers(0, 4, (30, 40)) * (rng.random((30, 40)) < 0.2)
        slices = [(("0",), wide), (("0.5",), np.zeros((4, 5), dtype=np.uint8)),
                  (("1",), sparse)]
        columns = [(rng.random(5000), np.arange(5000), fmt17(rng.normal(size=5000))),
                   (np.empty(0), np.empty(0, np.int64), fmt17([])),
                   ([0.25], [7], fmt17([2**53]))]

        def write(block_rows):
            monkeypatch.setattr(atomic, "_BLOCK_ROWS", block_rows)
            atomic.write_counts_csv(
                tmp_path / "counts.csv", ("t", "x_lo", "x_hi", "p_lo", "p_hi", "count"),
                ((lead, fmt17(np.arange(c.shape[0] + 1) * 0.1),
                  fmt17(np.arange(c.shape[1] + 1) * 0.2), c) for lead, c in slices))
            write_csv(tmp_path / "columns.csv", ("a", "b", "c"), columns)
            return [(tmp_path / name).read_bytes() for name in ("counts.csv", "columns.csv")]

        default = write(atomic._BLOCK_ROWS)
        assert default[0].count(b"\n") == 1 + sum(np.count_nonzero(c) for _, c in slices)
        assert default[1].count(b"\n") == 1 + 5001
        for block_rows in (1, 3, 1 << 20):
            assert write(block_rows) == default

    @pytest.mark.parametrize("size", [0, cli._HASH_BUFFER, cli._HASH_BUFFER + 1])
    def test_sha256_matches_hashing_the_whole_file(self, tmp_path, size):
        path = tmp_path / "artifact.bin"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_command_failing_mid_write_leaves_no_artifact(self, tmp_path, monkeypatch):
        def failing_write_csv(path, header, blocks):
            def partial_row():
                yield [0], [0], [0], [0], [0]
                raise OSError("disk full")

            write_csv(path, header, partial_row())

        monkeypatch.setattr(cli, "write_csv", failing_write_csv)
        out = tmp_path / "out"
        rc = run(["simulate", "--n", 50, "--gtf", 1, "--workers", 1, "--out-dir", out])
        assert rc == 2
        assert not out.exists()

    def test_verify_failing_mid_histogram_leaves_no_artifact(self, tmp_path, monkeypatch, capsys):
        # the writer's second block raises after its first is written: the
        # writer formats the distinct counts of each block with one fmt17 call
        blocks = []

        def failing_fmt17(values):
            blocks.append(len(values))
            if len(blocks) == 2:
                raise OSError("disk full")
            return fmt17(values)

        monkeypatch.setattr(atomic, "fmt17", failing_fmt17)
        out = tmp_path / "out"
        rc = run(["verify", "--n", 20_000, "--gtf", 1, "--workers", 1, "--out-dir", out])
        assert rc == 2
        assert len(blocks) == 2
        assert capsys.readouterr().err.splitlines() == ["error: disk full"]
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []


class TestStrictJson:
    """No JSON artifact or manifest holds a NaN or an infinity: such a run
    ends in one error line, exit 2 and no out_dir."""

    def test_json_text_refuses_non_finite_numbers(self):
        assert cli._json_text({"b": [1.5], "a": 2}) == '{\n  "a": 2,\n  "b": [\n    1.5\n  ]\n}\n'
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="not JSON compliant"):
                cli._json_text({"chi2_bar": value})

    @pytest.mark.parametrize("argv", [
        ["born", "--grid-dx", "inf", "--shift-x1", "nan", "--n", "100"],
        # chi2_bar overflows to inf: refused before histogram.csv is written
        ["verify", "--grid-dx", "1e300", "--n", "1"],
        # the selected x(0) near 2e200 overflow the conditional variances to nan
        ["postselect", "--alpha0", "1e200", "--n", "3000", "--gtf", "1", "--dt", "0.5"],
    ], ids=["born-config", "verify-report", "postselect-report"])
    def test_non_finite_run_exits_two_with_no_artifact(self, tmp_path, child_env, argv):
        out = tmp_path / "out"
        done = subprocess.run([sys.executable, "-m", "qtraj.cli", *argv, "--out-dir", str(out)],
                              env=child_env(PYTHONWARNINGS=None), capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert len([line for line in done.stderr.splitlines() if "error:" in line]) == 1
        assert list(tmp_path.iterdir()) == []


# Float values across the keys' domains: zero, a step near the smallest
# normal float, two ordinary values, a long horizon, and coordinates whose
# doubled square is finite (1e100), just past the float range (1e154) and
# far past it.
_FUZZ_FLOATS = (0.0, 1e-300, 0.5, 2.0, 30.0, 1e100, 1e154, 1e200)


def _fuzz_argvs(count=60, seed=2037):
    """A fixed, seeded set of small runs over every command and config key:
    n <= 3,000, at most 20 steps and one worker."""
    rng = random.Random(seed)
    floats = [k for k, (typ, _, _) in cli._KEYS.items() if typ is float and k != "dt"]
    switches = [k for k, (typ, _, _) in cli._KEYS.items() if typ is bool]
    commands = list(cli._COMMANDS)
    argvs = []
    for i in range(count):
        # Bins coarse enough that verify's 3,000 rows reach a verdict.
        flags = {"n": rng.choice((1, 3000, 3000)), "seed": rng.randrange(2**64),
                 "measure": rng.choice(cli._MEASURES), "gtf": rng.choice((1.0, 3.0)),
                 "grid_dx": 0.5, "grid_dp": 1.0}
        flags.update((k, rng.choice(_FUZZ_FLOATS)) for k in rng.sample(floats, rng.randint(1, 2)))
        flags["dt"] = flags["gtf"] / rng.choice((1, 2, 5, 20))
        switched = ["--" + k for k in switches if rng.random() < 0.3]
        argvs.append([*_argv(commands[i % len(commands)], flags), *switched, "--workers", 1])
    return argvs


def _refuse_constant(name):
    raise ValueError(f"{name} in a JSON artifact")


class TestExitContract:
    """Every command, over a fixed set of extreme configs and under the
    suite's error::RuntimeWarning filter: main returns 0, 1 only for a
    verify FAIL verdict, or 2 with one error line and nothing left behind,
    and every JSON artifact is strict JSON."""

    @pytest.mark.parametrize("argv", _fuzz_argvs())
    def test_exit_contract(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc = run([*argv, "--out-dir", out])
        assert list(tmp_path.rglob("*.tmp")) == []
        if rc == 2:
            err = capsys.readouterr().err
            assert err.startswith(("configuration error: ", "error: ")) and err.count("\n") == 1
            assert not out.exists()
            return
        payloads = [json.loads(path.read_text(), parse_constant=_refuse_constant)
                    for path in out.glob("*.json")]
        assert payloads
        if argv[0] == "verify":
            assert json.loads((out / "chi2_report.json").read_text())["passed"] is (rc == 0)
        else:
            assert rc == 0


class TestArtifactByteLock:
    """SHA-256 of each CSV artifact, frozen from small fixed-seed runs.

    Any change to the CSV text format, to the row layout or to the values
    written moves a digest; a deliberate re-freeze is recorded in CHANGES.md.
    The simulate x run's 66,000 rows take nine of the writer's 8,192-row blocks.
    """

    @pytest.mark.parametrize(
        "args, name, digest",
        [
            (["simulate", "--n", 6000, "--gtf", 1, "--seed", 3], "trajectories.csv",
             "06d9f98373e617eeac9877568069341e9ca816120638ae5b17f7ffbd105cf5c0"),
            (["simulate", "--n", 300, "--gtf", 1, "--measure", "p", "--seed", 3],
             "trajectories.csv",
             "4e7e72259b26106e13b4319b7c6a4751563dacf516ecd85db80924ad436d2dc3"),
            (["verify", "--mixture", "--n", 20_000, "--gtf", 1, "--seed", 3], "histogram.csv",
             "ee4f4e068f6dbbc80189534597bd5d433a01a60602d15e727053b80f666958a0"),
            (["postselect", "--alpha0", 1, "--oracle", "--n", 20_000, "--gtf", 2, "--seed", 3],
             "qplus_histogram.csv",
             "73e04d8b3079d66c1a9f32b2ea213d124527bd4946c9fce4b47e094dcca7dd21"),
            (["marginal", "--gtf", 1], "marginals.csv",
             "6bef74f92ea34f00058663d87864113a197c06260dfd4164dc0ab70ec3a73777"),
            (["marginal", "--gtf", 1, "--measure", "p"], "marginals.csv",
             "bc5668f02a71bc020ca28791eb26c13980c525710110c6087bbda7132d754626"),
        ],
        ids=["simulate_x", "simulate_p", "verify_mixture", "postselect_cat",
             "marginal_x", "marginal_p"],
    )
    def test_csv_digest_frozen(self, tmp_path, args, name, digest):
        assert run(args + ["--workers", 1, "--out-dir", tmp_path]) == 0
        assert sha256(tmp_path / name) == digest

    @pytest.mark.parametrize("workers", [1, 2])
    def test_postselect_sampled_block_frozen(self, tmp_path, workers):
        # the postselect_cat run's two chunks, combined: every statistic as
        # the exact float the JSON holds, the errors over the run's 100 row blocks
        args = ["postselect", "--alpha0", 1, "--oracle", "--n", 20_000, "--gtf", 2, "--seed", 3]
        assert run(args + ["--workers", workers, "--out-dir", tmp_path]) == 0
        sampled = json.loads((tmp_path / "postselect.json").read_text())["sampled"]
        assert sampled == {
            "outcome_sign": "+",
            "n_selected": 9942,
            "sigma_x2_sel": 1.9727072094010607,
            "sigma_p2_sel": 1.893510437472738,
            "var_x_cond": 0.9727072094010607,
            "var_p_cond": 0.8935104374727381,
            "se_var_x": 0.0253945042096785,
            "se_var_p": 0.030660008372855766,
            "epsilon": 0.9322682254613358,
            "se_epsilon": 0.019783684315437696,
            "mean_x": 2.0209333834612906,
            "mean_p": -0.2753833330908616,
        }


class TestVerifyCommand:
    def test_mixture_passes_and_exits_zero(self, tmp_path):
        rc = run(["verify", "--mixture", "--n", 100_000, "--seed", 2,
                  "--workers", 1, "--out-dir", tmp_path])
        assert rc == 0
        report = json.loads((tmp_path / "chi2_report.json").read_text())
        assert report["passed"] is True
        assert report["band"][0] <= report["chi2_bar"] <= report["band"][1]
        assert (tmp_path / "histogram.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["checks"]["chi2_pass"] is True

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        # 7 chunks: more than the pool's window of workers + 2 in flight.
        runs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            rc = run(["verify", "--n", 6 * CHUNK_ROWS + 7, "--gtf", 1, "--seed", 5,
                      "--workers", workers, "--out-dir", out])
            runs.append((rc, sha256(out / "histogram.csv"), sha256(out / "chi2_report.json")))
        assert runs[0] == runs[1]

    def test_paper_grid_worker_count_does_not_change_bytes(self, tmp_path):
        # The paper's bins (dx 0.02, dp 0.05) give slice windows of up to 1.3M
        # cells.  Some bin of the first slices expects MIN_COUNT rows only from
        # about 400k rows on, so the run takes 25 chunks, over three slices.
        runs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            rc = run(["verify", "--grid-dx", 0.02, "--grid-dp", 0.05, "--gtf", 1, "--dt", 0.5,
                      "--n", 25 * CHUNK_ROWS, "--seed", 5, "--workers", workers, "--out-dir", out])
            runs.append((rc, sha256(out / "histogram.csv"), sha256(out / "chi2_report.json")))
        assert runs[0] == runs[1]
        assert runs[0][0] in (0, 1)

    @pytest.mark.parametrize(
        "args",
        [["--mixture", "--n", 20_000, "--gtf", 1, "--seed", 3],
         ["--n", 2 * CHUNK_ROWS + 7, "--gtf", 1, "--seed", 5]],
        ids=["mixture", "fringe"],
    )
    def test_counts_and_manifest_reproduce_the_chi2_report(self, tmp_path, args):
        # histogram.csv holds counts only; README's recipe recomputes the bin
        # probabilities from the manifest, and with them every chi-squared figure
        assert run(["verify", *args, "--workers", 1, "--out-dir", tmp_path]) in (0, 1)
        merged, spec, cfg = cli.resolve_config(
            cli.load_manifest_config(tmp_path / "manifest.json"), {})
        grid = stats.Grid3.auto(spec, cfg, dx=merged["grid_dx"], dp=merged["grid_dp"])
        probs = stats.analytic_bin_probs(spec, cfg, grid)

        x_at = {text: i for i, text in enumerate(fmt17(grid.x_edges))}
        p_at = {text: j for j, text in enumerate(fmt17(grid.p_edges))}
        slice_at = {fmt17([step * grid.dt])[0]: s for s, step in enumerate(grid.t_steps)}
        counts = [np.zeros((ix1 - ix0, ip1 - ip0), dtype=np.int64)
                  for ix0, ix1, ip0, ip1 in grid.windows]
        lines = (tmp_path / "histogram.csv").read_text().split("\n")
        assert lines[0] == "t,x_lo,x_hi,p_lo,p_hi,count" and lines[-1] == ""
        for line in lines[1:-1]:
            t, x_lo, _, p_lo, _, count = line.split(",")
            s = slice_at[t]
            ix0, _, ip0, _ = grid.windows[s]
            counts[s][x_at[x_lo] - ix0, p_at[p_lo] - ip0] = int(count)

        report = json.loads((tmp_path / "chi2_report.json").read_text())
        assert report["n_samples"] == cfg.n_samples
        assert sum(int(c.sum()) for c in counts) + report["n_out_of_grid"] == (
            cfg.n_samples * len(grid.t_steps))
        per_slice = [stats.chi2_counts_vs_probs(c, pr, cfg.n_samples)
                     for c, pr in zip(counts, probs, strict=True)]
        assert [(e["chi2"], e["k"]) for e in report["per_slice"]] == per_slice
        assert report["chi2_bar"] == sum(chi2 for chi2, _ in per_slice) / len(per_slice)

    def test_negative_control_fails_with_exit_one(self, tmp_path):
        rc = run(["verify", "--mixture", "--shift-x1", 0.5, "--n", 100_000,
                  "--seed", 2, "--workers", 1, "--out-dir", tmp_path])
        assert rc == 1
        report = json.loads((tmp_path / "chi2_report.json").read_text())
        assert report["passed"] is False
        assert report["chi2_bar"] > report["band"][1]

    def test_refused_shift_costs_no_simulation(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a run whose shifted model is refused")

        monkeypatch.setattr(stats, "map_chunks", refuse)
        out = tmp_path / "out"
        rc = run(["verify", "--x1", 1, "--shift-x1", -2, "--n", 100_000, "--gtf", 1,
                  "--workers", 1, "--out-dir", out])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == ["error: x1 must be >= 0, got -1.0"]
        assert not out.exists()


class TestReportingCommands:
    def test_born_json(self, tmp_path):
        rc = run(["born", "--c1sq", 0.5, "--x1", 4, "--gtf", 4, "--dt", 0.1,
                  "--n", 50_000, "--seed", 6, "--workers", 1, "--out-dir", tmp_path])
        assert rc == 0
        payload = json.loads((tmp_path / "born.json").read_text())
        assert abs(payload["f_plus"] - 0.5) < 3 * payload["se"]
        assert payload["within_3se"] is True
        assert payload["oracle_mass_plus"] == pytest.approx(0.5, abs=1e-9)

    def test_postselect_json_with_oracle(self, tmp_path):
        rc = run(["postselect", "--alpha0", 1, "--gtf", 4, "--dt", 0.1,
                  "--n", 50_000, "--seed", 6, "--oracle", "--workers", 1,
                  "--out-dir", tmp_path])
        assert rc == 0
        payload = json.loads((tmp_path / "postselect.json").read_text())
        assert "sampled" in payload and "oracle" in payload
        assert payload["oracle"]["epsilon"] == pytest.approx(0.92922, abs=1e-4)
        assert (tmp_path / "qplus_histogram.csv").exists()

    def test_blas_thread_count_does_not_change_bytes(self, tmp_path, child_env):
        # the oracle's 20k-node sums are past OpenBLAS's threaded-ddot size;
        # its thread count, the package default (unset) included, must not
        # reach the last digit of any value
        digests = []
        for threads in (None, "1", "4"):
            out = tmp_path / f"t{threads}"
            argv = ["postselect", "--alpha0", "0.5", "--gtf", "4", "--oracle", "--n", "20000",
                    "--seed", "3", "--workers", "1", "--out-dir", str(out)]
            done = subprocess.run([sys.executable, "-m", "qtraj.cli", *argv],
                                  env=child_env(OPENBLAS_NUM_THREADS=threads),
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            digests.append(sha256(out / "postselect.json"))
        assert len(set(digests)) == 1

    def test_postselect_worker_count_does_not_change_bytes(self, tmp_path):
        # 7 chunks, past the pool's window; each chunk is reduced where it ran
        flags = {"alpha0": 1.0, "gtf": 2.0, "n": 6 * CHUNK_ROWS + 7, "seed": 5}
        runs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            rc = run([*_argv("postselect", flags), "--workers", workers, "--out-dir", out])
            runs.append((rc, sha256(out / "postselect.json"), sha256(out / "qplus_histogram.csv")))
        assert runs[0] == runs[1] and runs[0][0] == 0
        # the chunk parts combine to the single-batch report
        _, spec, cfg = resolve_config({}, flags)
        report = analysis.postselect(simulate(spec, cfg, store_steps=(0, cfg.n_steps)), "+")
        payload = json.loads((tmp_path / "w2" / "postselect.json").read_text())
        assert payload["sampled"] == report.to_dict()
        analysis.write_qplus_csv(tmp_path / "single.csv", report)
        assert sha256(tmp_path / "single.csv") == runs[1][2]

    def test_born_worker_count_does_not_change_bytes(self, tmp_path):
        flags = {"c1sq": 0.3, "x1": 4.0, "gtf": 4.0, "n": 6 * CHUNK_ROWS + 7, "seed": 5}
        runs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            rc = run([*_argv("born", flags), "--workers", workers, "--out-dir", out])
            runs.append((rc, sha256(out / "born.json")))
        assert runs[0] == runs[1] and runs[0][0] == 0
        _, spec, cfg = resolve_config({}, flags)
        estimate = analysis.born_fraction(simulate(spec, cfg, store_steps=(0, cfg.n_steps)))
        payload = json.loads((tmp_path / "w2" / "born.json").read_text())
        assert {k: payload[k] for k in estimate.to_dict()} == estimate.to_dict()

    def test_postselect_refusal_counts_the_total_selection(self, tmp_path, capsys):
        # the last of two chunks selects about 250 rows; only the total must reach 1000
        out = tmp_path / "ok"
        assert run(["postselect", "--n", CHUNK_ROWS + 500, "--seed", 3, "--workers", 2,
                    "--out-dir", out]) == 0
        assert json.loads((out / "postselect.json").read_text())["sampled"]["n_selected"] > 1000
        flags = {"c1sq": 0.02, "x1": 4.0, "gtf": 2.0, "n": CHUNK_ROWS + 500, "seed": 3}
        out = tmp_path / "refused"
        capsys.readouterr()
        assert run([*_argv("postselect", flags), "--workers", 2, "--out-dir", out]) == 2
        _, spec, cfg = resolve_config({}, flags)
        batch = simulate(spec, cfg, store_steps=(0, cfg.n_steps))
        n_plus = int(np.count_nonzero(batch.amplified_at(cfg.n_steps) >= 0.0))
        assert n_plus < 1000
        assert capsys.readouterr().err == (
            f"error: only {n_plus} trajectories selected; "
            "conditional statistics need >= 1000\n"
        )
        assert not out.exists()

    def test_born_overlap_warns_once_in_the_calling_process(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(["born", "--x1", 0.2, "--gtf", 1, "--n", CHUNK_ROWS + 500,
                      "--workers", 2, "--out-dir", tmp_path])
        assert rc == 0
        assert sum("overlap" in str(w.message) for w in caught) == 1

    @pytest.mark.parametrize("command", [["postselect", "--oracle"], ["postselect"], ["born"]],
                             ids=["postselect", "postselect-sampled", "born"])
    def test_oracles_refuse_measure_p(self, tmp_path, capsys, monkeypatch, command):
        # the oracles and the sampled statistics model the two-hill x
        # boundary; a measure-p config is refused before the simulation
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a measure-p run")

        monkeypatch.setattr(cli, "map_chunks", refuse)
        out = tmp_path / "out"
        rc = run([*command, "--measure", "p", "--n", 5000, "--gtf", 2,
                  "--workers", 1, "--out-dir", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_postselect_oracle_refuses_an_underflowing_mass(self, tmp_path, capsys, monkeypatch):
        # the only hill on the + side lies 40 widths away: its mass Phi(-40) is 0 in floats
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a run the oracle refuses")

        monkeypatch.setattr(cli, "map_chunks", refuse)
        out = tmp_path / "out"
        rc = run(["postselect", "--oracle", "--c1sq", 0, "--x1", 40, "--r", 0, "--gtf", 4,
                  "--workers", 1, "--out-dir", out])
        assert rc == 2
        assert capsys.readouterr().err == "error: selected boundary mass is zero\n"
        assert not out.exists()

    @pytest.mark.parametrize("x1", [1e16, 1e100])
    @pytest.mark.parametrize("command", ["simulate", "born", "postselect"])
    def test_unresolvable_coordinates_exit_two(self, tmp_path, capsys, monkeypatch, command, x1):
        # past 2**53 float64 rounds a unit spread away: postselect exited 0
        # with var_x_cond 0.203 at x1 = 1e16 and -1.0 at 1e100.  The run is
        # refused before any chunk is simulated, with one error line.
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a run whose coordinates float64 cannot resolve")

        monkeypatch.setattr(engine, "_simulate_chunk", refuse)
        out = tmp_path / "out"
        rc = run([command, "--x1", x1, "--gtf", 3, "--dt", 0.15, "--n", 3000, "--seed", 3,
                  "--workers", 1, "--out-dir", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: coordinates reach") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("x1", [1e6, 1e8])
    def test_postselect_variance_keeps_its_digits_at_large_x1(self, tmp_path, x1):
        # the selected x(0) lie about x1 with a unit spread; a one-pass
        # E[x^2] - mean^2 wrote var_x_cond 0.0232 at x1 = 1e6 and -1.0 at 1e8
        flags = {"x1": x1, "gtf": 3.0, "dt": 0.15, "n": 3000, "seed": 3}
        assert run([*_argv("postselect", flags), "--workers", 1, "--out-dir", tmp_path]) == 0
        sampled = json.loads((tmp_path / "postselect.json").read_text())["sampled"]
        _, spec, cfg = resolve_config({}, flags)
        batch = simulate(spec, cfg, store_steps=(0, cfg.n_steps))
        x0 = batch.x_at(0)[batch.amplified_at(cfg.n_steps) >= 0.0]
        assert sampled["var_x_cond"] > 0.0
        assert sampled["var_x_cond"] == pytest.approx(np.var(x0) - 1.0, rel=1e-6, abs=0)

    def test_postselect_oracle_far_hill_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        # at x1 = 1e100 float64 cannot place a node within the selected hill:
        # the oracle refuses it before any simulation, with one error line
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a run the oracle refuses")

        monkeypatch.setattr(cli, "map_chunks", refuse)
        out = tmp_path / "out"
        rc = run(["postselect", "--x1", 1e100, "--gtf", 3, "--dt", 0.15, "--oracle",
                  "--workers", 1, "--out-dir", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the selected hill") and err.count("\n") == 1
        assert not out.exists()

    def test_marginal_curves(self, tmp_path):
        rc = run(["marginal", "--measure", "p", "--alpha0", 2, "--gtf", 4,
                  "--dt", 0.1, "--out-dir", tmp_path])
        assert rc == 0
        text = (tmp_path / "marginals.csv").read_text()
        kinds = {line.split(",")[0] for line in text.strip().split("\n")[1:]}
        assert kinds == {"x_initial", "x_final", "p_initial", "p_final", "p_final_scaled"}

    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha0 = 2.0\nmeasure = p\ngtf = 4.0\ndt = 0.1\nn = 1000\nseed = 4\n")
        rc = run(["marginal", cfg, "--out-dir", tmp_path])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["measure"] == "p"
        assert manifest["config"]["x1"] == 4.0
