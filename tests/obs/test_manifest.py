"""Tests for run manifests (repro.obs.manifest)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import Evaluator, ExperimentSettings
from repro.obs.manifest import (
    MANIFEST_FORMAT,
    MANIFEST_VERSION,
    ManifestError,
    RunManifest,
    validate_manifest,
)
from repro.obs.trace import read_trace, summarize
from repro.runconfig import RunConfig

SETTINGS = ExperimentSettings(
    profile_length=6_000, eval_length=8_000, warmup=1_500, scale=0.15
)


@pytest.fixture(scope="module")
def evaluator():
    # the config's own tracer: the manifest reports only this run's spans
    ev = Evaluator(config=RunConfig(settings=SETTINGS))
    ev.prewarm(apps=["wordpress"], variants=("baseline", "ispy", "contiguous8"))
    return ev


@pytest.fixture(scope="module")
def manifest(evaluator):
    return RunManifest.collect(evaluator, command="evaluate")


class TestCollect:
    def test_validates_clean(self, manifest):
        assert manifest.validate() == []

    def test_identity_fields(self, manifest):
        import repro

        payload = manifest.payload
        assert payload["format"] == MANIFEST_FORMAT
        assert payload["version"] == MANIFEST_VERSION
        assert payload["repro_version"] == repro.__version__
        assert payload["command"] == "evaluate"
        assert payload["settings"]["scale"] == SETTINGS.scale
        assert payload["settings"]["eval_length"] == SETTINGS.eval_length
        assert payload["jobs"] == 1

    def test_kernel_gate_recorded(self, manifest):
        from repro import kernel

        section = manifest.payload["kernel"]
        assert section["numpy_available"] == kernel.HAVE_NUMPY
        assert section["numpy_enabled"] == kernel.numpy_enabled()

    def test_apps_carry_variant_digests(self, manifest):
        apps = manifest.payload["apps"]
        assert set(apps) == {"wordpress"}
        variants = apps["wordpress"]["variants"]
        assert {"baseline", "ispy"} <= set(variants)
        for record in variants.values():
            assert len(record["record_sha256"]) == 64
            assert record["cycles"] > 0

    def test_digest_is_deterministic(self, evaluator, manifest):
        again = RunManifest.collect(evaluator, command="evaluate")
        a = manifest.payload["apps"]["wordpress"]["variants"]
        b = again.payload["apps"]["wordpress"]["variants"]
        assert a == b

    def test_backend_counts_are_simulate_counts(self, manifest):
        counts = manifest.payload["backend_counts"]
        assert sum(counts.values()) >= 2  # baseline + ispy at minimum
        assert all(isinstance(v, int) for v in counts.values())

    def test_sections_are_the_span_summary(self, evaluator, manifest):
        sections = summarize(evaluator.tracer.snapshot()).manifest_sections()
        for name in ("stages", "backend_counts", "batch"):
            assert manifest.payload[name] == sections[name], name
        replays = [
            e["args"]["backend"]
            for e in evaluator.tracer.snapshot()
            if e["ph"] == "X" and e["name"] == "sim:replay"
        ]
        assert sum(manifest.payload["backend_counts"].values()) == len(replays)
        assert manifest.payload["stages"]["sim:replay"]["calls"] == len(replays)

    def test_mechanism_replays_name_their_backend(self, evaluator, manifest):
        """Fig. 5's window replays count too: every replay span,
        mechanism members included, names the backend that served it."""
        replays = [
            e for e in evaluator.tracer.snapshot()
            if e["ph"] == "X" and e["name"] == "sim:replay"
        ]
        counts = manifest.payload["backend_counts"]
        assert counts.get("mechanism") == sum(
            e["args"].get("plan") == "contiguous8" for e in replays
        ) == 1
        assert sum(counts.values()) == len(replays)

    def test_written_trace_gives_the_same_counts(self, tmp_path):
        """The two sinks come from one stream, so they agree."""
        config = RunConfig(
            settings=SETTINGS, trace_path=tmp_path / "t.jsonl",
            manifest_path=tmp_path / "m.json", command="evaluate",
        )
        ev = config.evaluator()
        ev.prewarm(apps=["wordpress"], variants=("baseline", "ideal", "ispy"))
        config.finalize(ev)
        payload = RunManifest.load(tmp_path / "m.json").payload
        from_file = summarize(read_trace(tmp_path / "t.jsonl"))
        assert payload["backend_counts"] == from_file.backend_counts
        # ideal is the baseline's bound: no replay of its own
        assert sum(from_file.backend_counts.values()) == 2

    def test_storeless_run_records_absent_store(self, manifest):
        section = manifest.payload["store"]
        assert section["present"] is False
        assert section["hit_rate"] is None

    def test_store_counters_flow_through(self, tmp_path):
        config = RunConfig(settings=SETTINGS, store=tmp_path / "cache")
        ev = config.evaluator()
        ev.prewarm(apps=["wordpress"], variants=("baseline",))
        payload = RunManifest.collect(ev).payload
        config.finalize(ev)  # end the run: uninstall its tracer
        section = payload["store"]
        assert section["present"] is True
        assert section["root"] == str(ev.store.root)
        # a cold run looks everything up and misses
        assert sum(section["misses"].values()) > 0
        assert section["hit_rate"] is not None


class TestValidation:
    def test_missing_field_reported(self, manifest):
        payload = json.loads(json.dumps(manifest.payload))
        del payload["kernel"]
        errors = validate_manifest(payload)
        assert any("manifest.kernel: missing" in e for e in errors)

    def test_wrong_type_reported(self, manifest):
        payload = json.loads(json.dumps(manifest.payload))
        payload["settings"]["scale"] = "big"
        errors = validate_manifest(payload)
        assert any("manifest.settings.scale" in e for e in errors)

    def test_bool_does_not_satisfy_int(self, manifest):
        payload = json.loads(json.dumps(manifest.payload))
        payload["jobs"] = True
        errors = validate_manifest(payload)
        assert any("manifest.jobs" in e and "bool" in e for e in errors)

    def test_bad_variant_record_reported(self, manifest):
        payload = json.loads(json.dumps(manifest.payload))
        payload["apps"]["wordpress"]["variants"]["baseline"].pop("record_sha256")
        errors = validate_manifest(payload)
        assert any("record_sha256" in e for e in errors)

    def test_unknown_format_rejected(self, manifest):
        payload = json.loads(json.dumps(manifest.payload))
        payload["format"] = "not-a-manifest"
        assert validate_manifest(payload)

    def test_non_dict_payload(self):
        assert validate_manifest([1, 2, 3])

    def test_version_3_payload_rejected(self, manifest):
        """A v3 manifest, with its parallel section, is not a v4 one."""
        payload = json.loads(json.dumps(manifest.payload))
        payload["version"] = 3
        payload["parallel"] = {"mode": None, "workers": None, "rounds": {}}
        errors = validate_manifest(payload)
        assert any("unsupported version 3" in e for e in errors)

    def test_version_4_payload_rejected(self, manifest):
        """A v4 manifest, with its batch mode, is not a v5 one."""
        payload = json.loads(json.dumps(manifest.payload))
        payload["version"] = 4
        payload["batch"]["mode"] = None
        errors = validate_manifest(payload)
        assert any("unsupported version 4" in e for e in errors)

    def test_version_5_payload_rejected(self, manifest):
        """A v5 manifest, with its registry-shaped stages, is not a v6 one."""
        payload = json.loads(json.dumps(manifest.payload))
        payload["version"] = 5
        payload["stages"] = {
            "simulate": {"calls": 2, "seconds": 0.1, "units": 16_000}
        }
        errors = validate_manifest(payload)
        assert any("unsupported version 5" in e for e in errors)
        assert any("self_seconds: missing" in e for e in errors)

    def test_batch_section_has_no_mode(self, manifest):
        assert "mode" not in manifest.payload["batch"]


class TestWriteLoad:
    def test_roundtrip(self, manifest, tmp_path):
        target = manifest.write(tmp_path / "m.json")
        loaded = RunManifest.load(target)
        assert loaded.payload == manifest.payload

    def test_write_refuses_invalid(self, manifest, tmp_path):
        broken = RunManifest(json.loads(json.dumps(manifest.payload)))
        del broken.payload["stages"]
        with pytest.raises(ManifestError):
            broken.write(tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()

    def test_load_refuses_tampered(self, manifest, tmp_path):
        target = manifest.write(tmp_path / "m.json")
        payload = json.loads(target.read_text())
        payload["version"] = 99
        target.write_text(json.dumps(payload))
        with pytest.raises(ManifestError):
            RunManifest.load(target)

    def test_written_json_is_sorted_and_indented(self, manifest, tmp_path):
        text = manifest.write(tmp_path / "m.json").read_text()
        assert text == json.dumps(manifest.payload, indent=2, sort_keys=True) + "\n"
