import dataclasses
import json

import numpy as np
import pytest

import phaselab as pl
from phaselab import harness
from phaselab.cli import main as cli_main
from phaselab.harness import (
    ExperimentConfig,
    cmd_compare,
    cmd_eval,
    cmd_gen_flow,
    cmd_train,
    cmd_transfer,
    config_from_dict,
    load_config,
)
from phaselab.networks import build_network, save_checkpoint
from phaselab.topology import find_op


def tiny_config(tmp_path, **over):
    data = {
        "sim": {"episode_length": 200},
        "flow": {"name": None, "rates": [240.0] * 8, "duration": 200.0},
        "frap": {"demand_dim": 8, "conv_channels": 8},
        "train": {
            "max_learner_steps": 8,
            "batch_size": 8,
            "warmup_transitions": 8,
            "n_actors": 1,
            "eval_period": 4,
            "sync": True,
        },
        "out_dir": str(tmp_path / "out"),
        "seed": 0,
    }
    for key, value in over.items():
        if isinstance(value, dict):
            data.setdefault(key, {}).update(value)
        else:
            data[key] = value
    return config_from_dict(data)


class TestConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig()
        assert cfg.build_table().n_phases == 8

    def test_four_phase_table(self):
        cfg = config_from_dict({"phase_set": "4-phase"})
        assert cfg.build_table().n_phases == 4

    def test_cross_field_validation(self):
        with pytest.raises(ValueError):
            config_from_dict({"phase_set": "4-phase", "approaches": 3})
        with pytest.raises(ValueError):
            config_from_dict({"agent": "nope"})
        with pytest.raises(ValueError):
            config_from_dict({"flow": {"name": "balanced-8", "path": "x.csv"}})
        with pytest.raises(ValueError):
            config_from_dict({"train": {"gamma": 1.0}})
        with pytest.raises(ValueError):
            config_from_dict({"sim": {"yellow": 5, "all_red": 5}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_dict({"bogus": 1})
        with pytest.raises(ValueError, match="unknown"):
            config_from_dict({"train": {"bogus": 1}})
        # A config.json echoed before FRAP lost these two options holds them.
        for key, value in (("conv_layers", 1), ("output_relu", False)):
            with pytest.raises(ValueError, match="unknown FrapConfig keys"):
                config_from_dict({"frap": {key: value}})

    @pytest.mark.parametrize(
        "data, name",
        [
            ({"train": {"double_dqn": "false"}}, "train.double_dqn"),
            ({"frap": {"conv_channels": 20.0}}, "frap.conv_channels"),
            ({"train": {"sync": 1}}, "train.sync"),
            ({"train": {"batch_size": True}}, "train.batch_size"),
            ({"train": {"batch_size": 64.0}}, "train.batch_size"),
            ({"train": {"gamma": "0.9"}}, "train.gamma"),
            ({"train": {"lr_end": False}}, "train.lr_end"),
            ({"sim": {"approach_length": None}}, "sim.approach_length"),
            ({"vanilla": {"hidden": [32, "32"]}}, "vanilla.hidden"),
            ({"classical": {"fixedtime_cycles": 60.0}}, "classical.fixedtime_cycles"),
            ({"flow": {"name": None, "rates": [240.0] * 7 + [None]}}, "flow.rates"),
            ({"flow": {"name": 8}}, "flow.name"),
            ({"seed": "1"}, "seed"),
            ({"train": [64]}, "train"),
        ],
    )
    def test_values_of_another_json_type_are_rejected(self, data, name):
        # "false" is a truthy string: it would run double DQN and reach the
        # checkpoint's meta.
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            config_from_dict(data)

    def test_json_numbers_fit_their_fields(self):
        cfg = config_from_dict({
            "sim": {"approach_length": 300, "episode_length": 600},
            "flow": {"name": None, "rates": [240, 120.5] * 4, "duration": 600},
            "train": {"lr_end": None, "double_dqn": False},
            "vanilla": {"hidden": [16]},
            "classical": {"fixedtime_cycles": [40, 60.0]},
        })
        assert cfg.flow.rates == (240, 120.5) * 4 and cfg.vanilla.hidden == (16,)
        assert cfg.train.double_dqn is False
        assert cfg.classical.fixedtime_cycles == (40, 60.0)

    @pytest.mark.parametrize(
        "approaches, n_rates", [(4, 7), (4, 9), (3, 8), (5, "balanced-8"), (3, "balanced-8")]
    )
    def test_flow_rates_need_one_rate_per_movement(self, approaches, n_rates):
        # With 7 rates movement 7 silently got no traffic; 9 failed only
        # when the first simulator was built. A named flow has the 8 rates of
        # the 4-approach table: on 5 approaches it left R4 empty, on 3 it
        # failed when the simulator met movement id 6.
        if isinstance(n_rates, str):
            flow = {"name": n_rates}
        else:
            flow = {"name": None, "rates": [240.0] * n_rates}
        with pytest.raises(ValueError, match="flow.rates"):
            config_from_dict({"approaches": approaches, "flow": flow})
        config_from_dict({"approaches": approaches, "flow": {"name": None, "rates": [240.0] * 2 * approaches}})

    def test_load_config_with_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 3, "train": {"batch_size": 16}}))
        cfg = load_config(path, {"seed": 9, "train.sync": True, "out_dir": None})
        assert cfg.seed == 9
        assert cfg.train.batch_size == 16
        assert cfg.train.sync is True


class TestSeedStreams:
    def test_actor_stream_never_reaches_the_held_out_flow(self):
        cfg = ExperimentConfig()
        # 9973 = 9 * 1009 + 892: actor 9's episode 892 would be the eval flow
        with pytest.raises(ValueError, match="actor 9 episode 892"):
            harness.episode_flow_seed(cfg, 9, 892)
        assert harness.episode_flow_seed(cfg, 9, 891) == 9 * 1009 + 891
        assert harness.episode_flow_seed(cfg, 8, 892) == 8 * 1009 + 892

    def test_actor_stream_never_reaches_the_calibration_flow(self):
        cfg = ExperimentConfig(seed=2)
        base = 2 * 100_003
        # 99 991 = 99 * 1009 + 100
        with pytest.raises(ValueError, match="actor 99 episode 100"):
            harness.episode_flow_seed(cfg, 99, 100)
        assert harness.episode_flow_seed(cfg, 99, 99) == base + 99 * 1009 + 99


class TestCommands:
    def test_train_writes_artifacts(self, tmp_path):
        cfg = tiny_config(tmp_path)
        paths = cmd_train(cfg)
        out = tmp_path / "out"
        assert paths["checkpoint"].exists()
        assert (out / "ckpt.json").exists()
        assert (out / "ckpt.meta.json").exists()
        assert (out / "config.json").exists()
        assert (out / "table.json").exists()
        curve = paths["curve"].read_text().splitlines()
        assert curve[0] == "learner_step,eval_travel_time,exited_count,censored_travel_time"
        assert curve[1].startswith("0,")
        assert curve[-1].startswith("8,")

    def test_eval_emits_metrics(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        paths = cmd_train(cfg)
        metrics = cmd_eval(cfg, paths["checkpoint"])
        assert (tmp_path / "out" / "vehicles.csv").exists()
        assert (tmp_path / "out" / "intervals.csv").exists()
        assert "avg_travel_time" in capsys.readouterr().out
        assert metrics.exited_count >= 0

    def test_compare_single_method_one_row(self, tmp_path):
        cfg = tiny_config(tmp_path)
        rows = cmd_compare(cfg, ["fixedtime"])
        table = (tmp_path / "out" / "compare.csv").read_text().splitlines()
        assert len(rows) == 1
        assert table[0] == "method,avg_travel_time,exited_count"
        assert len(table) == 2
        assert table[1].startswith("fixedtime,")

    def test_compare_identical_flow_across_methods(self, tmp_path):
        cfg = tiny_config(tmp_path)
        rows = cmd_compare(cfg, ["fixedtime", "formula", "sotl"])
        assert len(rows) == 3
        # same flow: every method sees the same vehicle population
        entered = {m.exited_count + m.in_network_count for _, m in rows}
        assert len(entered) == 1

    def test_compare_calibrates_off_the_eval_flow(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        seen = []
        search = harness.fixedtime_grid_search

        def spy(cycles, phases, sim_cfg, table, flow, **kwargs):
            seen.append(flow)
            return search(cycles, phases, sim_cfg, table, flow, **kwargs)

        monkeypatch.setattr(harness, "fixedtime_grid_search", spy)
        cmd_compare(cfg, ["fixedtime"])
        [calibration] = seen
        held_out = harness.build_flow(cfg, harness.eval_flow_seed(cfg))
        assert calibration.entry_times != held_out.entry_times
        drawn = harness.build_flow(cfg, harness.calibration_flow_seed(cfg))
        assert calibration.entry_times == drawn.entry_times
        assert calibration.routes == drawn.routes

    def test_compare_rejects_a_checkpoint_of_another_method(self, tmp_path):
        paths = cmd_train(tiny_config(tmp_path, agent="vanilla", train={"max_learner_steps": 5}))
        cfg = tiny_config(tmp_path, out_dir=str(tmp_path / "compare"))
        with pytest.raises(ValueError, match="vanilla checkpoint, not frap"):
            cmd_compare(cfg, ["frap"], {"frap": str(paths["checkpoint"])})
        assert not (tmp_path / "compare" / "compare.csv").exists()

    def test_compare_rejects_a_checkpoint_for_a_classical_method(self, tmp_path):
        # sotl=PATH used to score SOTL and drop the checkpoint unread.
        cfg = tiny_config(tmp_path)
        with pytest.raises(ValueError, match="method sotl takes no checkpoint"):
            cmd_compare(cfg, ["fixedtime", "sotl"], {"sotl": "runs/frap/ckpt.bin"})
        assert not (tmp_path / "out" / "compare.csv").exists()

    def test_transfer_retrain_needs_a_checkpoint_of_the_agent_kind(self, tmp_path, monkeypatch):
        # The retrain is of config.agent: a vanilla checkpoint's transfer was
        # compared with a FRAP retrain.
        cfg = tiny_config(tmp_path)
        net = build_network("vanilla", cfg.build_table(), harness.network_config(cfg, "vanilla"))
        ckpt = save_checkpoint(tmp_path / "vanilla.bin", "vanilla", net, net.init_params(0))
        episodes = []
        run = harness.run_grid_controller
        monkeypatch.setattr(
            harness, "run_grid_controller", lambda *args: episodes.append(args) or run(*args)
        )
        with pytest.raises(ValueError, match="vanilla checkpoint, not frap"):
            cmd_transfer(cfg, ckpt, "flip", retrain=True)
        assert episodes == []
        assert not (tmp_path / "out" / "retrain").exists()
        # Without a retrain there is nothing to compare the kind with.
        assert set(cmd_transfer(cfg, ckpt, "flip")) == {"original", "transferred"}

    def test_transfer_identity_matches_eval(self, tmp_path):
        cfg = tiny_config(tmp_path)
        paths = cmd_train(cfg)
        eval_metrics = cmd_eval(cfg, paths["checkpoint"])
        results = cmd_transfer(cfg, paths["checkpoint"], "rot180")
        assert results["original"] == eval_metrics.avg_travel_time
        ident = cmd_transfer(cfg, paths["checkpoint"], "flip")
        assert set(ident) == {"original", "transferred"}
        assert (tmp_path / "out" / "transfer.csv").exists()

    def test_transfer_retrains_on_the_mirrored_file_flow(self, tmp_path):
        # A W-through-only file flow: flip maps movement 6 to movement 2, and
        # the retrain must see the mirrored schedule, not the original file.
        flow = pl.FlowSchedule(
            tuple(range(25)), tuple(8.0 * i for i in range(25)), (((0, 6),),) * 25
        )
        flow_path = pl.write_flow_csv(flow, tmp_path / "wt.csv")
        cfg = tiny_config(tmp_path, flow={"name": None, "rates": None, "path": str(flow_path)})
        paths = cmd_train(cfg)
        cmd_transfer(cfg, paths["checkpoint"], "flip", retrain=True)
        retrain = load_config(tmp_path / "out" / "retrain" / "config.json")
        trained_on = pl.parse_flow_csv(retrain.flow.path, n_movements=8)
        flip = find_op(cfg.build_table(), "flip")
        mirrored = pl.mirror_flow(flip, flow)
        assert trained_on.vehicle_ids == mirrored.vehicle_ids
        assert trained_on.entry_times == mirrored.entry_times
        assert trained_on.routes == mirrored.routes == (((0, 2),),) * 25

    def test_transfer_retrains_on_the_mirrored_named_flow(self, tmp_path):
        cfg = tiny_config(tmp_path, flow={"name": "unbalanced-WE", "rates": None})
        paths = cmd_train(cfg)
        cmd_transfer(cfg, paths["checkpoint"], "flip", retrain=True)
        retrain = load_config(tmp_path / "out" / "retrain" / "config.json")
        assert retrain.flow.name is None
        rates = dict(zip((m.name for m in cfg.build_table().movements), retrain.flow.rates))
        assert (rates["E-T"], rates["W-T"]) == (600.0, 120.0)
        assert retrain.flow.rates == (180.0, 180.0, 600.0, 180.0, 180.0, 180.0, 120.0, 180.0)

    def test_train_parses_a_file_flow_once(self, tmp_path, monkeypatch):
        # Every actor episode and every eval used to re-read the same file.
        flow_path = cmd_gen_flow(tiny_config(tmp_path), tmp_path / "flow.csv")
        cfg = tiny_config(tmp_path, flow={"name": None, "rates": None, "path": str(flow_path)})
        calls = []
        parse = pl.flows.parse_flow_csv

        def counting(*args, **kwargs):
            calls.append(args[0])
            return parse(*args, **kwargs)

        monkeypatch.setattr(pl.flows, "parse_flow_csv", counting)
        paths = cmd_train(cfg)
        assert calls == [str(flow_path)]
        assert len(paths["curve"].read_text().splitlines()) == 4  # steps 0, 4 and 8

    def test_gen_flow_roundtrip(self, tmp_path):
        cfg = tiny_config(tmp_path)
        path = cmd_gen_flow(cfg, tmp_path / "flow.csv")
        flow = pl.parse_flow_csv(path, n_movements=8)
        assert len(flow) > 0

    def test_eval_rejects_mismatched_checkpoint(self, tmp_path):
        cfg = tiny_config(tmp_path)
        paths = cmd_train(cfg)
        four = tiny_config(tmp_path, phase_set="4-phase")
        with pytest.raises(ValueError, match="phases"):
            cmd_eval(four, paths["checkpoint"])


class TestGrid:
    """The same commands on a 2x2 grid: one learner and checkpoint per intersection."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        cfg = tiny_config(tmp_path_factory.mktemp("grid"), grid_rows=2, grid_cols=2)
        return cfg, cmd_train(cfg)

    def test_sync_train_writes_manifest_and_is_reproducible(self, trained, tmp_path):
        cfg, paths = trained
        out = paths["checkpoint"].parent
        assert paths["checkpoint"] == out / "grid.json"
        manifest = json.loads(paths["checkpoint"].read_text())
        assert manifest["checkpoints"] == [f"ckpt_i{k}.bin" for k in range(4)]
        rerun = cmd_train(dataclasses.replace(cfg, out_dir=str(tmp_path / "rerun")))
        names = ["grid.json", "curve.csv"] + [f"ckpt_i{k}.bin" for k in range(4)]
        for name in names:
            assert (out / name).read_bytes() == (rerun["checkpoint"].parent / name).read_bytes()

    def test_eval_on_manifest_writes_per_intersection_intervals(self, trained, tmp_path):
        cfg, paths = trained
        cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "eval"))
        cmd_eval(cfg, paths["checkpoint"])
        for k in range(4):
            assert (tmp_path / "eval" / f"intervals_i{k}.csv").exists()

    def test_manifest_length_must_match_grid(self, trained, tmp_path):
        cfg, paths = trained
        manifest = json.loads(paths["checkpoint"].read_text())
        manifest["checkpoints"] = manifest["checkpoints"][:3]
        short = paths["checkpoint"].parent / "short.json"
        short.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="3 checkpoints"):
            cmd_eval(dataclasses.replace(cfg, out_dir=str(tmp_path / "eval")), short)

    def test_compare_rejects_a_manifest_of_another_method(self, trained, tmp_path):
        cfg, paths = trained
        cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "compare"))
        with pytest.raises(ValueError, match="frap checkpoint, not vanilla"):
            cmd_compare(cfg, ["vanilla"], {"vanilla": str(paths["checkpoint"])})

    def test_threaded_grid_training_rejected(self, tmp_path):
        cfg = tiny_config(tmp_path, grid_rows=2, grid_cols=2, train={"sync": False})
        with pytest.raises(ValueError, match="synchronous"):
            cmd_train(cfg)

    def test_formula_volumes_are_per_intersection(self):
        # The default flow on 2x2 loads each intersection about as much as
        # the same flow on 1x1, so Webster does not pin the 180 s cycle.
        grid = ExperimentConfig(grid_rows=2, grid_cols=2)
        single = ExperimentConfig()
        table = single.build_table()
        volumes = {}
        for cfg in (single, grid):
            flow = harness.build_flow(cfg, harness.eval_flow_seed(cfg))
            volumes[cfg.n_intersections] = flow.movement_volumes(
                table.n_movements, cfg.flow.duration, cfg.n_intersections
            )
        assert np.all(np.abs(volumes[4] / volumes[1] - 1.0) < 0.2)
        flow = harness.build_flow(grid, harness.eval_flow_seed(grid))
        plan = harness.make_classical_controller("formula", grid, table, flow).plan
        assert plan.cycle_length < 180.0

    def test_compare_classical_methods_on_grid(self, tmp_path):
        cfg = tiny_config(tmp_path, grid_rows=2, grid_cols=2)
        rows = cmd_compare(cfg, ["fixedtime", "formula", "sotl"])
        assert [method for method, _ in rows] == ["fixedtime", "formula", "sotl"]
        entered = {m.exited_count + m.in_network_count for _, m in rows}
        assert len(entered) == 1


class TestCli:
    def test_full_cli_flow(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "sim": {"episode_length": 200},
                    "flow": {"name": None, "rates": [240.0] * 8, "duration": 200.0},
                    "frap": {"demand_dim": 8, "conv_channels": 8},
                    "train": {
                        "max_learner_steps": 4,
                        "batch_size": 8,
                        "warmup_transitions": 8,
                        "n_actors": 1,
                        "eval_period": 4,
                    },
                    "out_dir": str(tmp_path / "out"),
                }
            )
        )
        rc = cli_main(["train", "--config", str(config_path)])
        assert rc == 0
        ckpt = str(tmp_path / "out" / "ckpt.bin")
        assert cli_main(["eval", "--config", str(config_path), "--checkpoint", ckpt]) == 0
        assert (
            cli_main(
                ["compare", "--config", str(config_path), "--method", f"fixedtime,frap={ckpt}"]
            )
            == 0
        )
        assert (
            cli_main(
                ["transfer", "--config", str(config_path), "--checkpoint", ckpt, "--op", "flip"]
            )
            == 0
        )
        assert cli_main(["gen-flow", "--config", str(config_path), "--flow-out", str(tmp_path / "f.csv")]) == 0
        out = capsys.readouterr().out
        assert "checkpoint:" in out

    def test_transfer_takes_every_op_of_the_table(self, tmp_path, capsys):
        # Each table has its own symmetry ops: 3 approaches rotate by 120 degrees.
        cfg = tiny_config(
            tmp_path, approaches=3, flow={"rates": [240.0] * 6}, out_dir=str(tmp_path / "t")
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(dataclasses.asdict(cfg)))
        net = build_network("frap", cfg.build_table(), harness.network_config(cfg, "frap"))
        ckpt = str(save_checkpoint(tmp_path / "ckpt.bin", "frap", net, net.init_params(0)))
        argv = ["transfer", "--config", str(config_path), "--checkpoint", ckpt, "--op"]
        assert cli_main([*argv, "rot120"]) == 0
        assert (tmp_path / "t" / "transfer.csv").exists()
        capsys.readouterr()
        assert cli_main([*argv, "rot90"]) == 1
        assert "valid: ['identity', 'rot120'" in capsys.readouterr().err

    def test_cli_error_exit_codes(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"agent": "bogus"}))
        assert cli_main(["train", "--config", str(bad)]) == 1
        assert cli_main(["eval", "--config", str(bad), "--checkpoint", "x"]) == 1
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"out_dir": str(tmp_path / "out")}))
        assert cli_main(["eval", "--config", str(good), "--checkpoint", "/nonexistent.bin"]) == 1

    def test_compare_requires_checkpoint_for_rl(self, tmp_path):
        cfg = tiny_config(tmp_path)
        with pytest.raises(ValueError, match="checkpoint"):
            cmd_compare(cfg, ["frap"])
