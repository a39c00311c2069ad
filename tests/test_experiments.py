import copy
import dataclasses
import functools
import json
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from graspmc import experiments, learning
from graspmc import quaternions as quat
from graspmc.cli import main as cli_main
from graspmc.errors import (
    DemonstrationFailure,
    GraspMCError,
    InvalidConfig,
    InvalidDemonstration,
    InvalidDocument,
    MissingSourceModel,
    read_document,
)
from graspmc.experiments import (
    ACTIVE_BIASED_INIT,
    ACTIVE_RANDOM_INIT,
    RANDOM_WALK_BASELINE,
    TRANSFER_ACTUAL_MODES,
    TRANSFER_SIMILAR_MODES,
    ExperimentConfig,
    ResultRecord,
    emit_table,
    export_samples,
    result_from_document,
    result_to_document,
    run_experiment,
)
from graspmc.grasping import Grasp, demonstrate_grasps
from graspmc.gripper import GripperModel, default_gripper
from graspmc.learning import Tally
from graspmc.objects import OBJECT_NAMES, get_object
from graspmc.serialization import model_from_document, model_to_document

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
            {"object_name": "plat"},
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

    def test_unknown_object_rejected_by_from_dict(self):
        doc = {"experiment": ACTIVE_RANDOM_INIT, "object_name": "plat", "seed": 0}
        with pytest.raises(InvalidConfig, match="unknown object 'plat'"):
            ExperimentConfig.from_dict(doc)

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

    def test_every_recorded_state_is_the_one_evaluated(self):
        """The target evaluates Grasp.from_vector(state); canonicalize leaves
        a recorded quaternion as it is, so that is the recorded state."""
        cfg = ExperimentConfig(
            experiment=ACTIVE_BIASED_INIT, object_name="plate", seed=0, iterations=200, burn_in=50
        )
        _, model = run_experiment(cfg)
        chain = model.chain
        assert len(chain.proposals) == 250
        for name in ("seed_states", "seed_proposals", "states", "proposals"):
            for state in getattr(chain, name):
                assert Grasp.from_vector(state).to_vector().tobytes() == state.tobytes(), name

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

    def test_modeless_source_fails_before_the_similar_modes_chain(self, monkeypatch):
        _, source = run_experiment(
            ExperimentConfig(experiment=ACTIVE_BIASED_INIT, object_name="plate", seed=6, **SHORT)
        )
        doc = json.loads(model_to_document(source))
        doc["modes"], doc["mode_densities"] = [], []
        modeless = model_from_document(json.dumps(doc))
        actual = ExperimentConfig(
            experiment=TRANSFER_ACTUAL_MODES, object_name="soup_plate", seed=6, **SHORT
        )
        # actual-object modes are the run's own demonstrations, so it still runs
        record, _ = run_experiment(actual, source=modeless)
        assert record.tallies.total == 80

        def no_target(*args, **kwargs):
            raise AssertionError("the transfer built its target")

        monkeypatch.setattr(learning, "make_target", no_target)
        similar = dataclasses.replace(actual, experiment=TRANSFER_SIMILAR_MODES)
        with pytest.raises(InvalidDemonstration):
            run_experiment(similar, source=modeless)

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

    def test_record_config_reruns_the_run(self):
        """The config a record echoes is all a rerun needs."""
        cfg = ExperimentConfig(experiment=ACTIVE_BIASED_INIT, object_name="plate", seed=9, **SHORT)
        record = result_from_document(result_to_document(run_experiment(cfg)[0]))
        rerun, _ = run_experiment(ExperimentConfig.from_dict(record.config))
        a, b = record.to_dict(), rerun.to_dict()
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


    def test_document_text_is_pinned(self):
        cfg = ExperimentConfig(experiment=ACTIVE_BIASED_INIT, object_name="plate", seed=3)
        record = ResultRecord(
            config=cfg.to_dict(),
            tallies=Tally(417, 12, 30, 641),
            duration_seconds=1.5,
            sketch_evaluations=1100,
            created="2026-01-01T00:00:00+00:00",
        )
        text = result_to_document(record)
        assert text == (
            '{"schema": "graspmc.result/1", "version": "0.1.0", '
            '"created": "2026-01-01T00:00:00+00:00", "config": {"experiment": '
            '"active-biased-init", "object_name": "plate", "seed": 3, "iterations": 1000, '
            '"burn_in": 100, "gamma": 0.0001, "nu": 0.971630931303994, "subsample_size": 100, '
            '"p_check": 0.6, "epsilon": 0.7, "kappa": 50.0, '
            '"position_sigma": 0.1, "demonstration_count": 5, "source_model": null, '
            '"keep_trace": true}, "tallies": {"success": 417, "slipped": 12, "collision": 30, '
            '"miss": 641}, "sketch_evaluations": 1100, "duration_seconds": 1.5, "trace": []}'
        )
        clone = result_from_document(text)
        assert clone.tallies == record.tallies and clone.total == 1100

    @staticmethod
    def document(config=None, **tallies):
        if config is None:
            config = {"experiment": ACTIVE_BIASED_INIT, "object_name": "plate", "seed": 3}
        doc = {
            "schema": "graspmc.result/1",
            "config": config,
            "tallies": {"success": 417, "slipped": 12, "collision": 30, "miss": 641, **tallies},
        }
        return json.dumps(doc)

    @pytest.mark.parametrize(
        "config",
        [
            [],
            {"object_name": "plate", "seed": 3},
            {"experiment": "nope", "object_name": "plate", "seed": 3},
            {"experiment": ACTIVE_BIASED_INIT, "object_name": 7, "seed": 3},
            {"experiment": ACTIVE_BIASED_INIT, "object_name": "plate", "seed": "3"},
            {"experiment": ACTIVE_BIASED_INIT, "object_name": "plate", "seed": True},
        ],
        ids=["not-an-object", "no-experiment", "unknown-experiment", "object-not-a-string",
             "string-seed", "bool-seed"],
    )
    def test_config_the_table_reads_is_checked(self, config):
        with pytest.raises(InvalidDocument) as caught:
            result_from_document(self.document(config))
        assert type(caught.value.__cause__) is ValueError

    @pytest.mark.parametrize("tally", ["1", None, -1, True, 1.5])
    def test_tallies_are_nonnegative_integers(self, tally):
        with pytest.raises(InvalidDocument) as caught:
            result_from_document(self.document(slipped=tally))
        assert type(caught.value.__cause__) is ValueError

    def test_a_string_seed_never_reaches_the_table_sort(self):
        records = [result_from_document(self.document())]
        with pytest.raises(InvalidDocument):
            records.append(result_from_document(self.document(
                {"experiment": ACTIVE_BIASED_INIT, "object_name": "plate", "seed": "4"}
            )))
        assert emit_table(records)[0].splitlines()[1] == "active-biased-init,plate,3,417,12,30,641"

    def test_a_record_of_an_older_config_still_reports(self):
        config = {
            "experiment": ACTIVE_BIASED_INIT, "object_name": "plate", "seed": 3, "scale_floor": 1e-6
        }
        record = result_from_document(self.document(config))
        assert record.config["scale_floor"] == 1e-6 and record.total == 1100
        assert "active-biased-init" in emit_table([record])[1]


# each reader with a document of its schema whose builder fails: a missing
# field (KeyError), a field of the wrong type (TypeError) or value (ValueError)
READERS = {
    "result": (result_from_document, "graspmc.result/1", [
        {"config": {}, "tallies": {"success": 1}},
        {"config": {}, "tallies": [1, 2, 3, 4]},
    ]),
    "model": (model_from_document, "graspmc.model/1", [
        {},
        {"object": "plate", "modes": 3, "regions": [], "chain": {}},
    ]),
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("text", ["not json", "[1, 2]", "null", '{"schema": "other/9"}'])
    def test_not_a_document_of_the_schema(self, reader, text):
        read, _, _ = READERS[reader]
        with pytest.raises(InvalidDocument) as caught:
            read(text)
        assert isinstance(caught.value, GraspMCError) and isinstance(caught.value, ValueError)

    @pytest.mark.parametrize("reader", READERS)
    def test_builder_failures(self, reader):
        read, schema, docs = READERS[reader]
        for doc in docs:
            with pytest.raises(InvalidDocument) as caught:
                read(json.dumps({"schema": schema, **doc}))
            assert isinstance(caught.value.__cause__, (KeyError, TypeError, ValueError))

    @pytest.mark.parametrize("error", [KeyError, TypeError, IndexError, ValueError, OverflowError])
    def test_builder_error_is_wrapped(self, error):
        def build(doc):
            raise error("bad field")

        with pytest.raises(InvalidDocument) as caught:
            read_document('{"schema": "s/1"}', "s/1", build)
        assert type(caught.value.__cause__) is error

    @pytest.mark.parametrize("error", [GraspMCError, InvalidConfig, InvalidDemonstration])
    def test_library_errors_pass_through(self, error):
        def build(doc):
            raise error("bad model")

        with pytest.raises(error) as caught:
            read_document('{"schema": "s/1"}', "s/1", build)
        assert type(caught.value) is error


@pytest.fixture(scope="module")
def model_doc():
    """A short active-biased-init model document, as a dict."""
    cfg = ExperimentConfig(
        experiment=ACTIVE_BIASED_INIT, object_name="plate", seed=4, iterations=4, burn_in=2,
        demonstration_count=2,
    )
    _, model = run_experiment(cfg)
    return json.loads(model_to_document(model))


def set_path(doc, path, value):
    *head, key = path
    functools.reduce(operator.getitem, head, doc)[key] = value


class TestModelDocuments:
    """Model documents that load without error and would mislead a later
    export or transfer must be refused when they are read."""

    @pytest.mark.parametrize(
        "path, value",
        [
            (("mode_densities",), [0.5]),
            (("mode_densities", 0), -0.5),
            (("mode_densities", 1), float("nan")),
            (("chain", "seed_densities", 0), -1.0),
            (("chain", "densities", 0), float("inf")),
            (("chain", "proposals", 0, "density"), float("nan")),
            (("chain", "seed_proposals", 0, "density"), -1.0),
            (("chain", "states"), []),
            (("chain", "densities"), [1.0]),
            (("chain", "moves"), ["kameleon"]),
            (("chain", "moves", 0), "teleport-to-the-moon"),
            (("chain", "moves", 1), 7),
            (("chain", "seed_densities"), [1.0]),
            (("regions", 0, "center"), [0.0] * 6),
            (("regions", 0, "rotation"), np.eye(6).tolist()),
            (("regions", 1, "scales"), [1.0] * 8),
            (("modes", 1), [0.0, 0.0, 0.05, 0.0, 0.0, 0.0, 0.0]),
            (("chain", "proposals", 1, "state"), [0.0, 0.0, 0.05, 0.0, 0.0, 0.0, 0.0]),
            (("chain", "seed_states"), [[0.1] * 6] * 2),
        ],
        ids=[
            "mode-density-count", "negative-mode-density", "nan-mode-density",
            "negative-seed-density", "infinite-chain-density", "nan-proposal-density",
            "negative-seed-proposal-density", "states-shorter", "densities-shorter",
            "moves-shorter", "unknown-move", "numeric-move", "seed-densities-shorter", "region-center-6d", "region-rotation-6d",
            "region-scales-8d", "zero-mode-quaternion", "zero-proposal-quaternion",
            "six-component-seed-states",
        ],
    )
    def test_malformed_model_is_refused(self, model_doc, path, value):
        doc = copy.deepcopy(model_doc)
        set_path(doc, path, value)
        with pytest.raises(InvalidDocument) as caught:
            model_from_document(json.dumps(doc))
        assert isinstance(caught.value.__cause__, ValueError)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("mode_densities", 0), "0.5"),
            (("mode_densities", 1), True),
            (("modes", 0, 0), "0.01"),
            (("modes", 1, 4), False),
            (("object",), None),
            (("object",), "plat"),
            (("object",), ["plate"]),
            (("regions", 0, "epsilon"), -1.0),
            (("regions", 0, "epsilon"), 0.0),
            (("regions", 1, "epsilon"), "0.7"),
            (("regions", 0, "volume"), float("nan")),
            (("regions", 1, "volume"), float("inf")),
            (("regions", 0, "center", 2), "0.05"),
            (("modes", 0, 1), 10**400),
            (("chain", "states", 0, 0), "0.01"),
            (("chain", "densities", 0), True),
            (("chain", "proposals", 0, "density"), "0.5"),
            (("chain", "seed_proposals", 0, "state", 3), "1"),
            (("chain", "proposals", 0, "accepted"), "no"),
            (("chain", "proposals", 1, "accepted"), 0),
            (("chain", "proposal_sourced"), "false"),
        ],
        ids=[
            "mode-density-string", "mode-density-boolean", "mode-component-string",
            "mode-component-boolean", "null-object", "unknown-object", "list-object",
            "negative-epsilon", "zero-epsilon", "epsilon-string", "nan-volume",
            "infinite-volume", "region-center-string", "mode-component-overflows-a-float",
            "chain-state-string", "chain-density-boolean", "proposal-density-string",
            "seed-proposal-state-string", "accepted-string", "accepted-number",
            "proposal-sourced-string",
        ],
    )
    def test_mistyped_or_out_of_range_field_is_refused(self, model_doc, path, value):
        doc = copy.deepcopy(model_doc)
        set_path(doc, path, value)
        with pytest.raises(InvalidDocument) as caught:
            model_from_document(json.dumps(doc))
        assert isinstance(caught.value.__cause__, (TypeError, ValueError, OverflowError))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_model_loads_and_exports_or_raises_invalid_document(self, model_doc, data):
        doc = data.draw(mutated_documents(model_doc))
        try:
            model = model_from_document(json.dumps(doc))
        except InvalidDocument:
            return
        except GraspMCError as error:  # the one library error the reader passes on
            assert type(error) is GraspMCError and "square-root" in str(error)
            return
        json.loads(export_samples(model))
        model_to_document(model)


def json_paths(value, path=()):
    """The path of every entry below a JSON value, depth first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


OTHER_TYPES = [None, "text", True, 1.5, [], {}]


@st.composite
def mutated_documents(draw, doc):
    """`doc` with one field dropped, given another type, made negative, NaN
    or infinite, given as a string (a number), or (a list) resized. The field's top-level key is drawn
    first, so the regions' and the chain's many entries do not crowd out
    the modes and their densities."""
    doc = copy.deepcopy(doc)
    top = draw(st.sampled_from(sorted(doc)))
    *head, key = draw(st.sampled_from([(top,), *json_paths(doc[top], (top,))]))
    parent = functools.reduce(operator.getitem, head, doc)
    value = parent[key]
    kinds = ["type"] + (["drop"] if isinstance(parent, dict) else [])
    if type(value) in (int, float):
        kinds += ["negative", "nan", "inf", "string"]
    if isinstance(value, list) and value:
        kinds += ["length"]
    kind = draw(st.sampled_from(kinds))
    event(kind)
    if kind == "drop":
        del parent[key]
    elif kind == "type":
        parent[key] = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(value)]))
    elif kind == "negative":
        parent[key] = -(abs(value) or 1.0)
    elif kind == "nan":
        parent[key] = float("nan")
    elif kind == "inf":
        parent[key] = draw(st.sampled_from([np.inf, -np.inf]))
    elif kind == "string":
        parent[key] = repr(value)
    else:
        parent[key] = value[:-1] if draw(st.booleans()) else value + value[-1:]
    return doc


class TestEmitTable:
    def fake_record(self, experiment, object_name, seed, tallies):
        cfg = ExperimentConfig(experiment=experiment, object_name=object_name, seed=seed)
        return ResultRecord(config=cfg.to_dict(), tallies=Tally(*tallies))

    def test_aligned_text_is_pinned(self):
        records = [
            self.fake_record(ACTIVE_BIASED_INIT, "plate", 3, (417, 12, 30, 641)),
            self.fake_record(RANDOM_WALK_BASELINE, "soup_plate", 12, (0, 5, 1095, 0)),
            self.fake_record(TRANSFER_ACTUAL_MODES, "pan", 0, (1100, 0, 0, 0)),
        ]
        _, table_text = emit_table(records)
        assert table_text == (
            "experiment             object      seed  success  slipped  collision  miss\n"
            "---------------------  ----------  ----  -------  -------  ---------  ----\n"
            "random-walk-baseline   soup_plate  12    0        5        1095       0   \n"
            "active-biased-init     plate       3     417      12       30         641 \n"
            "transfer-actual-modes  pan         0     1100     0        0          0   \n"
        )

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
        t = record.tallies
        line = (
            f"active-biased-init_plate_seed1: success={t.success} slipped={t.slipped} "
            f"collision={t.collision} miss={t.miss} ("
        )
        out = capsys.readouterr().out
        assert out.startswith(line) and re.fullmatch(r"\d+\.\ds\)\n", out[len(line):])

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

    @pytest.mark.parametrize("seeds", ["3", "a..b", "5..3", "0..1..2"])
    def test_malformed_seed_range_is_a_usage_error(self, seeds, tmp_path, capsys):
        with pytest.raises(SystemExit) as caught:
            cli_main(["learn", "--experiment", RANDOM_WALK_BASELINE, "--object", "saucer",
                      "--seeds", seeds, "--out-dir", str(tmp_path / "runs")])
        assert caught.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    # not JSON, not a JSON object, and a field ExperimentConfig does not have
    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"scale_floor": 1e-06}'])
    def test_malformed_config_file_raises_invalid_config(self, text, tmp_path, capsys):
        """The InvalidConfig is reported as a usage error, with no traceback."""
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        with pytest.raises(SystemExit) as caught:
            cli_main(["learn", "--experiment", RANDOM_WALK_BASELINE, "--object", "saucer",
                      "--seed", "0", "--config", str(cfg_file), "--out-dir", str(tmp_path)])
        assert caught.value.code == 2
        assert re.fullmatch(
            r"graspmc: error: (--config \S+ (is not JSON: .*|does not hold a JSON object)"
            r"|unknown config fields: \['scale_floor'\])\n",
            capsys.readouterr().err,
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("sketch --object nope --seed 0", "argument --object: invalid choice"),
            ("sketch --object plate --seed -1", "argument --seed: expected an integer >= 0"),
            ("sketch --object plate --seed 0 --iterations 0",
             "argument --iterations: expected an integer >= 1"),
            ("demonstrate --object nope --seed 0", "argument --object: invalid choice"),
            ("demonstrate --object plate --seed -1", "argument --seed: expected an integer >= 0"),
            ("demonstrate --object plate --seed x", "argument --seed: expected an integer, not 'x'"),
            ("demonstrate --object plate --seed 0 --count 0",
             "argument --count: expected an integer >= 1"),
            (f"learn --experiment {RANDOM_WALK_BASELINE} --object nope --seed 0",
             "argument --object: invalid choice"),
            (f"transfer --experiment {TRANSFER_SIMILAR_MODES} --object nope --seed 0"
             " --source missing.json", "argument --object: invalid choice"),
        ],
    )
    def test_bad_argument_is_a_usage_error(self, argv, message, tmp_path, capsys):
        verb = argv.split()[0]
        out = "--out" if verb in ("sketch", "demonstrate") else "--out-dir"
        with pytest.raises(SystemExit) as caught:
            cli_main(argv.split() + [out, str(tmp_path / "out")])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: graspmc {verb}") and message in err
        assert list(tmp_path.iterdir()) == []

    def test_library_error_is_reported_as_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as caught:
            cli_main(["learn", "--experiment", ACTIVE_BIASED_INIT, "--object", "plate",
                      "--seed", "0", "--iterations", "0", "--out-dir", str(tmp_path / "runs")])
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == "graspmc: error: iterations must be at least 1, not 0\n"
        assert captured.out == "" and not (tmp_path / "runs").exists()

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


class TestCliVerbs:
    def test_objects_lists_the_catalog(self, capsys):
        cli_main(["objects"])
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(OBJECT_NAMES)
        assert all(line.endswith(" mm") for line in lines)

    def test_sketch_writes_its_proposals_with_the_default_scales(self, tmp_path, capsys):
        out = tmp_path / "sketch.json"
        cli_main(["sketch", "--object", "plate", "--seed", "0", "--iterations", "30",
                  "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["schema"] == "graspmc.sketch/1"
        assert len(doc["proposals"]) == 30 and doc["source_object"] == "plate"
        assert doc["position_sigma"] == 0.10 and doc["kappa"] == 50.0
        assert "30 proposals on plate" in capsys.readouterr().out

    def test_demonstrate_writes_count_canonical_positive_grasps(self, tmp_path):
        out = tmp_path / "demos.json"
        cli_main(["demonstrate", "--object", "plate", "--seed", "0", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["object"] == "plate"
        assert len(doc["grasps"]) == 5  # ExperimentConfig.demonstration_count's default
        for grasp in doc["grasps"]:
            orientation = np.array(grasp["state"][3:])
            assert len(grasp["state"]) == 7 and orientation[0] > 0.0
            assert quat.canonicalize(orientation).tobytes() == orientation.tobytes()
            assert grasp["quality"] > 0.0
        cli_main(["demonstrate", "--object", "plate", "--seed", "0", "--count", "2",
                  "--out", str(out)])
        assert json.loads(out.read_text())["grasps"] == doc["grasps"][:2]

    def test_learn_sets_every_numeric_field(self, tmp_path):
        values = {
            "iterations": 12,
            "burn_in": 4,
            "gamma": 2e-4,
            "nu": 0.5,
            "subsample_size": 7,
            "p_check": 0.5,
            "epsilon": 0.6,
            "kappa": 40.0,
            "position_sigma": 0.05,
            "demonstration_count": 2,
        }
        numeric = [
            f.name for f in dataclasses.fields(ExperimentConfig)
            if f.type in ("int", "float") and f.name != "seed"
        ]
        assert list(values) == numeric
        defaults = ExperimentConfig(experiment=ACTIVE_BIASED_INIT, object_name="plate", seed=0)
        assert all(getattr(defaults, name) != value for name, value in values.items())
        flags = [
            arg
            for name, value in values.items()
            for arg in (f"--{name.replace('_', '-')}", str(value))
        ]
        out = tmp_path / "runs"
        cli_main(["learn", "--experiment", ACTIVE_BIASED_INIT, "--object", "plate", "--seed", "3",
                  *flags, "--out-dir", str(out)])
        effective = json.loads((out / "active-biased-init_plate_seed3.config.json").read_text())
        assert {name: effective[name] for name in values} == values
        record = result_from_document(
            (out / "active-biased-init_plate_seed3.result.json").read_text()
        )
        assert record.total == 16 and record.sketch_evaluations == 16


class TestDemonstrationMemo:
    """Consecutive runs with one (object, seed, count, gripper, evaluation
    config) share one demonstration search; only the last search is kept."""

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
        grasps = experiments._demonstrations("plate", 4, 1, gripper)
        rng = experiments._phase_rngs(4)["demonstrations"]
        fresh = demonstrate_grasps(get_object("plate"), gripper, 1, rng)
        assert [g.to_vector().tolist() for g in grasps] == [g.to_vector().tolist() for g, _ in fresh]

    def test_key_changes_miss(self, searches):
        gripper = default_gripper()
        wider = GripperModel(0.07, gripper.finger_length, gripper.finger_width, gripper.palm_depth)
        keys = [("plate", 4, 1, gripper), ("plate", 4, 2, gripper), ("plate", 4, 1, wider)]
        for done, key in enumerate(keys, start=1):
            for _ in range(2):
                experiments._demonstrations(*key)
            assert len(searches) == done

    def test_only_the_last_search_is_kept(self, searches):
        gripper = default_gripper()
        for seed in (4, 5, 4):
            experiments._demonstrations("plate", seed, 1, gripper)
        assert len(searches) == 3

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
