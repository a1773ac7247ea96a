"""The REPRO_* knob registry: typed accessors, defaults, loud failures."""

from __future__ import annotations

import pytest

from repro import config


class TestFlags:
    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv(config.ENV_OBS_SIDECAR, raising=False)
        assert config.obs_sidecar() is False
        monkeypatch.delenv(config.ENV_ARTIFACT_VERIFY, raising=False)
        assert config.artifact_verify() is True

    @pytest.mark.parametrize("raw", ["1", "true", "YES", "on"])
    def test_truthy(self, monkeypatch, raw):
        monkeypatch.setenv(config.ENV_OBS_SIDECAR, raw)
        assert config.obs_sidecar() is True

    @pytest.mark.parametrize("raw", ["0", "false", "No", "OFF"])
    def test_falsy(self, monkeypatch, raw):
        monkeypatch.setenv(config.ENV_ARTIFACT_MMAP, raw)
        assert config.artifact_mmap() is False

    def test_garbage_flag_is_loud(self, monkeypatch):
        monkeypatch.setenv(config.ENV_ARTIFACT_VERIFY, "maybe")
        with pytest.raises(ValueError, match="REPRO_ARTIFACT_VERIFY"):
            config.artifact_verify()

    def test_disable_numpy_keeps_legacy_truthiness(self, monkeypatch):
        # Any unrecognized non-empty value disables the fast path (the
        # safe direction); explicit falsy spellings keep it on.
        monkeypatch.setenv(config.ENV_DISABLE_NUMPY, "definitely")
        assert config.numpy_disabled() is True
        monkeypatch.setenv(config.ENV_DISABLE_NUMPY, "0")
        assert config.numpy_disabled() is False
        monkeypatch.delenv(config.ENV_DISABLE_NUMPY)
        assert config.numpy_disabled() is False


class TestInts:
    def test_serve_workers_default(self, monkeypatch):
        monkeypatch.delenv(config.ENV_SERVE_WORKERS, raising=False)
        assert config.serve_workers() == 1
        monkeypatch.setenv(config.ENV_SERVE_WORKERS, "3")
        assert config.serve_workers() == 3
        assert config.serve_workers(2) == 2

    def test_bad_int_is_loud(self, monkeypatch):
        monkeypatch.setenv(config.ENV_SERVE_WORKERS, "many")
        with pytest.raises(ValueError, match="REPRO_SERVE_WORKERS"):
            config.serve_workers()


class TestEngine:
    def test_unset_means_auto(self, monkeypatch):
        monkeypatch.delenv(config.ENV_ENGINE, raising=False)
        assert config.engine() is None

    @pytest.mark.parametrize("raw", ["native", "NumPy", "STDLIB"])
    def test_env_names_are_case_insensitive(self, monkeypatch, raw):
        monkeypatch.setenv(config.ENV_ENGINE, raw)
        assert config.engine() == raw.lower()

    def test_auto_spelling_means_auto(self, monkeypatch):
        monkeypatch.setenv(config.ENV_ENGINE, "auto")
        assert config.engine() is None

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(config.ENV_ENGINE, "stdlib")
        assert config.engine("numpy") == "numpy"

    def test_unknown_engine_is_loud(self, monkeypatch):
        monkeypatch.setenv(config.ENV_ENGINE, "fortran")
        with pytest.raises(ValueError, match="REPRO_ENGINE"):
            config.engine()

    def test_resolution_honors_preference(self, monkeypatch):
        # The kernel resolves the env preference against availability:
        # stdlib is always importable, so asking for it must stick.
        from repro.core import kernel

        monkeypatch.setenv(config.ENV_ENGINE, "stdlib")
        assert kernel.default_backend() == kernel.STDLIB_BACKEND
        monkeypatch.delenv(config.ENV_ENGINE)
        assert kernel.default_backend() in kernel.available_backends()


class TestMpStart:
    def test_default_is_available(self, monkeypatch):
        monkeypatch.delenv(config.ENV_MP_START, raising=False)
        import multiprocessing

        assert config.mp_start() in multiprocessing.get_all_start_methods()

    def test_unknown_method_is_loud(self, monkeypatch):
        monkeypatch.setenv(config.ENV_MP_START, "teleport")
        with pytest.raises(ValueError, match="REPRO_MP_START"):
            config.mp_start()


class TestRegistry:
    def test_every_knob_described(self):
        names = {knob.name for knob in config.KNOBS}
        assert names == {
            "REPRO_MP_START",
            "REPRO_DISABLE_NUMPY",
            "REPRO_ENGINE",
            "REPRO_OBS_SIDECAR",
            "REPRO_SERVE_WORKERS",
            "REPRO_ARTIFACT_MMAP",
            "REPRO_ARTIFACT_VERIFY",
        }
        rows = config.describe()
        assert {row["name"] for row in rows} == names
        assert all(row["help"] for row in rows)
