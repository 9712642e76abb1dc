"""Tests for the declarative driver configuration (repro.driver.config).

The load-bearing property is the differential one: a driver built from a
``DriverConfig`` that travelled through JSON must run *byte-identically* to
one built from the historical loose keywords — same statuses, same rounds,
same repaired parameters — because that is what lets the job daemon promise
that a submitted job equals an in-process run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.driver import DriverConfig, RepairDriver
from repro.exceptions import RepairError
from repro.nn.activations import ReLULayer
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.polytope.hpolytope import HPolytope
from repro.verify import SyrennVerifier, VerificationSpec


@pytest.fixture
def scenario(rng):
    """A seeded plane/box scenario the driver certifies in a few rounds."""
    network = Network(
        [
            FullyConnectedLayer.from_shape(2, 8, rng),
            ReLULayer(8),
            FullyConnectedLayer.from_shape(8, 6, rng),
            ReLULayer(6),
            FullyConnectedLayer.from_shape(6, 3, rng),
        ]
    )
    preds = network.predict(rng.uniform(-1.0, 1.0, size=(400, 2)))
    winner = int(np.bincount(preds, minlength=3).argmax())
    spec = VerificationSpec()
    spec.add_plane(
        [[-1, -1], [1, -1], [1, 1], [-1, 1]],
        HPolytope.argmax_region(3, winner, 1e-4),
    )
    spec.add_box([-0.5, -1.0], [0.5, 1.0], HPolytope.argmax_region(3, winner, 1e-4))
    return network, spec


TIMING_KEYS = {"seconds", "repair_seconds", "timing"}


def comparable(report) -> dict:
    """A report's run-defining content: everything except wall-clock times."""
    summary = {k: v for k, v in report.as_dict().items() if k not in TIMING_KEYS}
    summary["final_report"].pop("seconds", None)
    summary["rounds"] = [
        {k: v for k, v in record.items() if k not in TIMING_KEYS}
        for record in summary["rounds"]
    ]
    return summary


def parameter_bytes(network) -> list[bytes]:
    return [
        layer.get_parameters().tobytes()
        for layer in network.value.layers
        if layer.num_parameters
    ]


class TestDriverConfig:
    def test_json_round_trip_is_lossless(self):
        config = DriverConfig(
            mode="polytope",
            layer_schedule=[4, 2],
            max_rounds=7,
            incremental=True,
            max_new_counterexamples=3,
            norm="l1",
            delta_bound=0.5,
        )
        restored = DriverConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config
        assert restored.layer_schedule == (4, 2)  # lists normalize to tuples

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(RepairError, match="unknown driver config keys"):
            DriverConfig.from_dict({"max_round": 5})

    def test_validation_matches_driver(self):
        with pytest.raises(RepairError):
            DriverConfig(max_rounds=0)
        with pytest.raises(RepairError):
            DriverConfig(mode="lines")
        with pytest.raises(RepairError):
            DriverConfig(layer_schedule=[])
        with pytest.raises(RepairError):
            DriverConfig(max_new_counterexamples=0)
        with pytest.raises(RepairError, match="norm"):
            DriverConfig(norm="l2")
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(RepairError, match="delta_bound"):
                DriverConfig(delta_bound=bad)
            with pytest.raises(RepairError, match="repair_margin"):
                DriverConfig(repair_margin=bad)
        for bad in (-5.0, float("nan")):
            with pytest.raises(RepairError, match="budget_seconds"):
                DriverConfig(budget_seconds=bad)
        with pytest.raises(RepairError, match="invalid LP backend"):
            DriverConfig(backend="race:highs_native,scipy")
        # The boundary values stay legal: tests and jobs use them.
        DriverConfig(repair_margin=0.0, budget_seconds=0.0, delta_bound=0.0)
        # Decoding is strict about types: no bool()/int()/float() coercion.
        for key, bad in (
            ("incremental", "false"),
            ("warm_start", 1),
            ("sparse", "yes"),
            ("max_rounds", 2.5),
            ("max_rounds", "abc"),
            ("max_rounds", True),
            ("memory_budget", True),
            ("max_new_counterexamples", 1.5),
            ("layer_schedule", 3),
            ("layer_schedule", [1.5]),
            ("repair_margin", "0.1"),
            ("delta_bound", True),
            ("budget_seconds", "5"),
            ("backend", 3),
        ):
            with pytest.raises(RepairError, match=key):
                DriverConfig.from_dict({key: bad})
        with pytest.raises(RepairError, match="JSON object"):
            DriverConfig.from_dict([["max_rounds", 3]])
        # JSON numbers may carry integers as integral floats.
        config = DriverConfig.from_dict(
            {"max_rounds": 3.0, "layer_schedule": [4.0], "memory_budget": 1024.0}
        )
        assert config == DriverConfig(max_rounds=3, layer_schedule=(4,), memory_budget=1024)
        assert type(config.max_rounds) is int and type(config.layer_schedule[0]) is int

    def test_replace_revalidates(self):
        config = DriverConfig(max_rounds=5)
        assert config.replace(max_rounds=6).max_rounds == 6
        with pytest.raises(RepairError):
            config.replace(max_rounds=0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DriverConfig().max_rounds = 3


class TestDriverConstruction:
    def test_legacy_keywords_still_work(self, scenario):
        """The historical keyword call sites build the equivalent config."""
        network, spec = scenario
        driver = RepairDriver(
            network, spec, SyrennVerifier(), max_rounds=6, norm="l1", incremental=True
        )
        assert driver.config == DriverConfig(max_rounds=6, norm="l1", incremental=True)
        assert driver.max_rounds == 6 and driver.norm == "l1" and driver.incremental

    def test_config_and_keywords_cannot_mix(self, scenario):
        network, spec = scenario
        with pytest.raises(RepairError, match="not both"):
            RepairDriver(
                network, spec, SyrennVerifier(), config=DriverConfig(), max_rounds=3
            )

    def test_unknown_keyword_rejected(self, scenario):
        network, spec = scenario
        with pytest.raises(TypeError):
            RepairDriver(network, spec, SyrennVerifier(), max_round=3)


class TestConfigDifferential:
    @pytest.mark.parametrize("incremental", [False, True])
    def test_json_config_run_matches_keyword_run(self, scenario, incremental):
        """Keyword run vs JSON-round-tripped config run: byte-identical."""
        network, spec = scenario
        keyword_report = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            max_rounds=8,
            norm="l1",
            incremental=incremental,
        ).run()

        wire = json.loads(
            json.dumps(
                DriverConfig(max_rounds=8, norm="l1", incremental=incremental).to_dict()
            )
        )
        config_report = RepairDriver(
            network, spec, SyrennVerifier(), config=DriverConfig.from_dict(wire)
        ).run()

        assert keyword_report.status == "certified"
        assert comparable(keyword_report) == comparable(config_report)
        assert parameter_bytes(keyword_report.network) == parameter_bytes(
            config_report.network
        )

    def test_spec_wire_round_trip_runs_byte_identically(self, scenario):
        """The spec's JSON form drives the same run as the original spec."""
        network, spec = scenario
        wire_spec = VerificationSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        original = RepairDriver(network, spec, SyrennVerifier(), max_rounds=8).run()
        travelled = RepairDriver(network, wire_spec, SyrennVerifier(), max_rounds=8).run()
        assert comparable(original) == comparable(travelled)
        assert parameter_bytes(original.network) == parameter_bytes(travelled.network)


class TestOnRoundCallback:
    def test_callback_streams_every_round(self, scenario):
        network, spec = scenario
        streamed = []
        report = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            max_rounds=8,
            on_round=streamed.append,
        ).run()
        assert [r.round_index for r in streamed] == [r.round_index for r in report.rounds]
        # The callback sees finished records: identical to the report's.
        assert [r.as_dict() for r in streamed] == [r.as_dict() for r in report.rounds]

    def test_callback_exceptions_abort_the_run(self, scenario):
        network, spec = scenario

        def explode(record):
            raise RuntimeError("stop here")

        with pytest.raises(RuntimeError, match="stop here"):
            RepairDriver(
                network, spec, SyrennVerifier(), max_rounds=8, on_round=explode
            ).run()
