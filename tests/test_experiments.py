import json
import math

import numpy as np
import pytest

from graspmc import experiments
from graspmc.cli import main as cli_main
from graspmc.errors import DemonstrationFailure, GraspMCError, InvalidConfig, MissingSourceModel
from graspmc.experiments import (
    ACTIVE_BIASED_INIT,
    ACTIVE_RANDOM_INIT,
    RANDOM_WALK_BASELINE,
    TRANSFER_ACTUAL_MODES,
    TRANSFER_SIMILAR_MODES,
    ExperimentConfig,
    emit_table,
    export_samples,
    result_from_document,
    result_to_document,
    run_experiment,
)
from graspmc.grasping import DEFAULT_EVALUATION, EvaluationConfig, demonstrate_grasps
from graspmc.gripper import GripperModel, default_gripper
from graspmc.learning import Tally
from graspmc.objects import get_object
from graspmc.serialization import model_to_document

SHORT = dict(iterations=60, burn_in=20)


class TestConfig:
    def test_defaults_match_published_parameterization(self):
        cfg = ExperimentConfig(experiment=ACTIVE_BIASED_INIT, object_name="plate", seed=0)
        assert cfg.iterations == 1000
        assert cfg.gamma == 1e-4
        assert cfg.subsample_size == 100
        assert cfg.nu == pytest.approx(2.38 / math.sqrt(6), rel=1e-12)
        assert cfg.burn_in == 100
        assert cfg.p_check == 0.6
        assert cfg.epsilon == 0.7
        assert cfg.demonstration_count == 5

    def test_round_trip(self):
        cfg = ExperimentConfig(
            experiment=RANDOM_WALK_BASELINE, object_name="pan", seed=3, kappa=20.0
        )
        clone = ExperimentConfig.from_dict(cfg.to_dict())
        assert clone == cfg

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="warp-drive", object_name="plate", seed=0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(
                {"experiment": RANDOM_WALK_BASELINE, "object_name": "plate", "seed": 0, "x": 1}
            )

    @pytest.mark.parametrize(
        "change",
        [
            {"p_check": "0.6"},
            {"iterations": -5},
            {"gamma": 0},
            {"iterations": 5.0},
            {"subsample_size": True},
            {"keep_trace": 1},
            {"source_model": 3},
            {"seed": -1},
            {"nu": float("nan")},
            {"epsilon": -0.7},
            {"p_check": 1.5},
            {"burn_in": -1},
            {"demonstration_count": 0},
            {"kappa": -1.0},
            {"experiment": "warp-drive"},
            {"seed": None},
        ],
        ids=repr,
    )
    def test_bad_document_rejected_before_any_search(self, monkeypatch, change):
        def no_search(*args, **kwargs):
            raise AssertionError("the demonstration search ran")

        monkeypatch.setattr(experiments, "demonstrate_grasps", no_search)
        doc = {"experiment": ACTIVE_RANDOM_INIT, "object_name": "plate", "seed": 0, **change}
        doc = {key: value for key, value in doc.items() if value is not None}
        with pytest.raises(InvalidConfig) as caught:
            run_experiment(ExperimentConfig.from_dict(doc))
        assert isinstance(caught.value, GraspMCError) and isinstance(caught.value, ValueError)

    def test_integers_accepted_for_real_fields(self):
        doc = {"experiment": ACTIVE_RANDOM_INIT, "object_name": "plate", "seed": 0, "gamma": 1}
        assert ExperimentConfig.from_dict(doc).kameleon().gamma == 1


class TestRunExperiment:
    def test_baseline_budget(self):
        cfg = ExperimentConfig(
            experiment=RANDOM_WALK_BASELINE, object_name="plate", seed=5, **SHORT
        )
        record, model = run_experiment(cfg)
        assert record.tallies.total == 80
        assert model is None
        assert record.sketch_evaluations == 0
        assert len(record.trace) == 80

    def test_biased_run_writes_model_and_counts_sketch(self):
        cfg = ExperimentConfig(
            experiment=ACTIVE_BIASED_INIT, object_name="plate", seed=5, **SHORT
        )
        record, model = run_experiment(cfg)
        assert record.tallies.total == 80
        assert model is not None
        assert record.sketch_evaluations == 80

    def test_random_init_makes_no_sketch_evaluations(self):
        cfg = ExperimentConfig(
            experiment=ACTIVE_RANDOM_INIT, object_name="plate", seed=5, **SHORT
        )
        record, model = run_experiment(cfg)
        assert record.sketch_evaluations == 0
        assert record.tallies.total == 80

    def test_transfer_without_source_errors(self):
        cfg = ExperimentConfig(
            experiment=TRANSFER_SIMILAR_MODES, object_name="soup_plate", seed=5, **SHORT
        )
        with pytest.raises(MissingSourceModel):
            run_experiment(cfg)

    def test_transfer_pipeline(self, tmp_path):
        source_cfg = ExperimentConfig(
            experiment=ACTIVE_BIASED_INIT, object_name="plate", seed=6, **SHORT
        )
        _, source = run_experiment(source_cfg)
        path = tmp_path / "src.model.json"
        path.write_text(model_to_document(source), encoding="utf-8")
        cfg = ExperimentConfig(
            experiment=TRANSFER_SIMILAR_MODES,
            object_name="soup_plate",
            seed=6,
            source_model=str(path),
            **SHORT,
        )
        record, model = run_experiment(cfg)
        assert record.tallies.total == 80
        assert record.sketch_evaluations == 0
        assert model is not None and model.object_name == "soup_plate"

    def test_transfer_actual_modes(self, tmp_path):
        _, source = run_experiment(
            ExperimentConfig(experiment=ACTIVE_BIASED_INIT, object_name="pan", seed=7, **SHORT)
        )
        cfg = ExperimentConfig(
            experiment=TRANSFER_ACTUAL_MODES, object_name="small_pan", seed=7, **SHORT
        )
        record, model = run_experiment(cfg, source=source)
        assert record.tallies.total == 80
        assert all(d > 0.0 for d in model.mode_densities)

    def test_seeded_determinism(self):
        cfg = ExperimentConfig(
            experiment=ACTIVE_BIASED_INIT, object_name="plate", seed=9, **SHORT
        )
        rec_a, _ = run_experiment(cfg)
        rec_b, _ = run_experiment(cfg)
        a, b = rec_a.to_dict(), rec_b.to_dict()
        for volatile in ("created", "duration_seconds"):
            a.pop(volatile), b.pop(volatile)
        assert a == b

    def test_no_trace_flag(self):
        cfg = ExperimentConfig(
            experiment=RANDOM_WALK_BASELINE, object_name="plate", seed=5, keep_trace=False, **SHORT
        )
        record, _ = run_experiment(cfg)
        assert record.trace == []


class TestResultDocuments:
    def test_round_trip(self):
        cfg = ExperimentConfig(
            experiment=RANDOM_WALK_BASELINE, object_name="plate", seed=2, **SHORT
        )
        record, _ = run_experiment(cfg)
        clone = result_from_document(result_to_document(record))
        assert clone.tallies == record.tallies
        assert clone.config == record.config
        assert clone.trace == record.trace


class TestEmitTable:
    def fake_record(self, experiment, object_name, seed, tallies):
        cfg = ExperimentConfig(experiment=experiment, object_name=object_name, seed=seed)
        from graspmc.experiments import ResultRecord

        return ResultRecord(config=cfg.to_dict(), tallies=Tally(*tallies))

    def test_single_row_pass_through(self):
        record = self.fake_record(RANDOM_WALK_BASELINE, "plate", 0, (10, 20, 30, 1040))
        csv_text, table_text = emit_table([record])
        lines = csv_text.strip().splitlines()
        assert lines[0] == "experiment,object,seed,success,slipped,collision,miss"
        assert lines[1].endswith("10,20,30,1040")
        assert "plate" in table_text

    def test_grouping_order(self):
        records = [
            self.fake_record(ACTIVE_BIASED_INIT, obj, 0, (1, 2, 3, 4))
            for obj in ("plate", "pan")
        ] + [
            self.fake_record(RANDOM_WALK_BASELINE, obj, 0, (5, 6, 7, 8))
            for obj in ("plate", "pan")
        ]
        csv_text, _ = emit_table(records)
        rows = csv_text.strip().splitlines()[1:]
        assert len(rows) == 4
        # baseline preset precedes active preset, objects alphabetical inside
        assert rows[0].startswith("random-walk-baseline,pan")
        assert rows[1].startswith("random-walk-baseline,plate")
        assert rows[2].startswith("active-biased-init,pan")

    def test_zero_record_row(self):
        record = self.fake_record(RANDOM_WALK_BASELINE, "plate", 0, (0, 0, 0, 0))
        csv_text, table_text = emit_table([record])
        assert csv_text.strip().splitlines()[1].endswith("0,0,0,0")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emit_table([])


class TestExportSamples:
    def make_model(self):
        cfg = ExperimentConfig(
            experiment=ACTIVE_BIASED_INIT, object_name="plate", seed=4, **SHORT
        )
        _, model = run_experiment(cfg)
        return model

    def test_demonstrated_records_present(self):
        model = self.make_model()
        doc = json.loads(export_samples(model))
        demonstrated = [r for r in doc["records"] if r["category"] == "demonstrated"]
        learned = [r for r in doc["records"] if r["category"] == "learned"]
        assert len(demonstrated) == 5
        assert len(learned) == 80

    def test_success_only_filters_zero_quality(self):
        model = self.make_model()
        doc = json.loads(export_samples(model, success_only=True))
        assert doc["records"]
        assert all(r["quality"] > 0.0 for r in doc["records"])

    def test_segments_orthogonal(self):
        model = self.make_model()
        doc = json.loads(export_samples(model))
        for r in doc["records"]:
            o = np.asarray(r["orientation_segment"])
            s = np.asarray(r["span_segment"])
            ov = o[1] - o[0]
            sv = s[1] - s[0]
            cosine = abs(ov @ sv) / (np.linalg.norm(ov) * np.linalg.norm(sv))
            assert cosine < 1e-6


class TestCli:
    def test_learn_report_export_flow(self, tmp_path, capsys):
        out = tmp_path / "runs"
        cli_main(
            [
                "learn",
                "--experiment",
                ACTIVE_BIASED_INIT,
                "--object",
                "plate",
                "--seed",
                "1",
                "--iterations",
                "40",
                "--burn-in",
                "10",
                "--out-dir",
                str(out),
            ]
        )
        result_path = out / "active-biased-init_plate_seed1.result.json"
        model_path = out / "active-biased-init_plate_seed1.model.json"
        config_path = out / "active-biased-init_plate_seed1.config.json"
        assert result_path.exists() and model_path.exists() and config_path.exists()
        effective = json.loads(config_path.read_text())
        assert effective["iterations"] == 40 and effective["gamma"] == 1e-4

        record = result_from_document(result_path.read_text())
        assert record.tallies.total == 50

        cli_main(["report", str(result_path), "--csv", str(tmp_path / "t.csv")])
        captured = capsys.readouterr()
        assert "active-biased-init" in captured.out
        assert (tmp_path / "t.csv").exists()

        cloud = tmp_path / "cloud.json"
        cli_main(["export", "--model", str(model_path), "--out", str(cloud)])
        doc = json.loads(cloud.read_text())
        assert doc["schema"] == "graspmc.export/1"

    def test_transfer_requires_seed(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(
                [
                    "transfer",
                    "--experiment",
                    TRANSFER_SIMILAR_MODES,
                    "--object",
                    "soup_plate",
                    "--source",
                    "missing.json",
                    "--out-dir",
                    str(tmp_path),
                ]
            )

    def test_seed_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        cli_main(
            [
                "learn",
                "--experiment",
                RANDOM_WALK_BASELINE,
                "--object",
                "saucer",
                "--seeds",
                "0..1",
                "--iterations",
                "20",
                "--burn-in",
                "5",
                "--no-trace",
                "--out-dir",
                str(out),
            ]
        )
        assert (out / "random-walk-baseline_saucer_seed0.result.json").exists()
        assert (out / "random-walk-baseline_saucer_seed1.result.json").exists()

    def test_config_file_with_overrides(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"iterations": 30, "kappa": 25.0}))
        out = tmp_path / "runs"
        cli_main(
            [
                "learn",
                "--experiment",
                RANDOM_WALK_BASELINE,
                "--object",
                "saucer",
                "--seed",
                "2",
                "--config",
                str(cfg_file),
                "--burn-in",
                "5",
                "--out-dir",
                str(out),
            ]
        )
        effective = json.loads(
            (out / "random-walk-baseline_saucer_seed2.config.json").read_text()
        )
        assert effective["iterations"] == 30
        assert effective["kappa"] == 25.0
        assert effective["burn_in"] == 5


class TestDemonstrationMemo:
    """run_experiment searches for demonstrations once per (object, seed,
    count, gripper, evaluation config) in a process."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []

        def counted(obj, *args, **kwargs):
            calls.append(obj.name)
            return demonstrate_grasps(obj, *args, **kwargs)

        experiments._demonstrations.cache_clear()
        monkeypatch.setattr(experiments, "demonstrate_grasps", counted)
        yield calls
        experiments._demonstrations.cache_clear()

    def test_source_presets_share_one_search(self, searches):
        for experiment in (RANDOM_WALK_BASELINE, ACTIVE_RANDOM_INIT):
            cfg = ExperimentConfig(experiment=experiment, object_name="plate", seed=5, **SHORT)
            record, _ = run_experiment(cfg)
            assert record.tallies.total == 80
        assert searches == ["plate"]

    def test_memo_returns_the_search_result(self, searches):
        gripper = default_gripper()
        grasps = experiments._demonstrations("plate", 4, 1, gripper, DEFAULT_EVALUATION)
        rng = experiments._phase_rngs(4)["demonstrations"]
        fresh = demonstrate_grasps(get_object("plate"), gripper, 1, rng, DEFAULT_EVALUATION)
        assert [g.to_vector().tolist() for g in grasps] == [g.to_vector().tolist() for g, _ in fresh]

    def test_key_changes_miss(self, searches):
        gripper = default_gripper()
        wider = GripperModel(0.07, gripper.finger_length, gripper.finger_width, gripper.palm_depth)
        grippier = EvaluationConfig(friction_coefficient=0.6)
        keys = [
            ("plate", 4, 1, gripper, DEFAULT_EVALUATION),
            ("plate", 4, 2, gripper, DEFAULT_EVALUATION),
            ("plate", 4, 1, wider, DEFAULT_EVALUATION),
            ("plate", 4, 1, gripper, grippier),
        ]
        for key in keys + keys:
            experiments._demonstrations(*key)
        assert len(searches) == len(keys)

    def test_failure_is_raised_on_every_call(self, monkeypatch, searches):
        def failing(obj, *args, **kwargs):
            searches.append(obj.name)
            raise DemonstrationFailure("no demonstrations")

        monkeypatch.setattr(experiments, "demonstrate_grasps", failing)
        cfg = ExperimentConfig(experiment=ACTIVE_RANDOM_INIT, object_name="plate", seed=5, **SHORT)
        for _ in range(2):
            with pytest.raises(DemonstrationFailure):
                run_experiment(cfg)
        assert searches == ["plate", "plate"]

    def test_returned_grasps_are_read_only(self, searches):
        cfg = ExperimentConfig(experiment=ACTIVE_RANDOM_INIT, object_name="plate", seed=5, **SHORT)
        _, model = run_experiment(cfg)
        for grasp in model.modes:
            with pytest.raises(ValueError):
                grasp.position[0] = 0.0
            with pytest.raises(ValueError):
                grasp.orientation[0] = 1.0
