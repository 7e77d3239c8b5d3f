"""``ReproConfig.from_env``: precedence, round trips, failure modes."""

import dataclasses

import pytest

from repro.config import ReproConfig
from repro.errors import ReproError


def _fields(config: ReproConfig) -> tuple:
    """Everything but the cost model (cost objects lack ``__eq__``)."""
    return (
        config.backend,
        config.jobs,
        config.cache_size,
        config.persistent,
        config.record_intermediates,
        config.log_level,
        config.log_format,
        config.metrics,
    )


class TestDefaults:
    def test_empty_environment_is_the_dataclass_defaults(self):
        config = ReproConfig.from_env(env={})
        assert _fields(config) == _fields(ReproConfig())
        assert config.cost.name == ReproConfig().cost.name

    def test_observability_defaults(self):
        config = ReproConfig()
        assert config.log_level == "info"
        assert config.log_format == "text"
        assert config.metrics is True


class TestEnvironment:
    def test_full_round_trip(self):
        config = ReproConfig.from_env(
            env={
                "REPRO_BACKEND": "serial",
                "REPRO_JOBS": "4",
                "REPRO_CACHE_SIZE": "128",
                "REPRO_LOG_LEVEL": "DEBUG",
                "REPRO_LOG_FORMAT": "json",
                "REPRO_METRICS": "off",
            }
        )
        assert config.backend == "serial"
        assert config.jobs == 4
        assert config.cache_size == 128
        assert config.log_level == "debug"
        assert config.log_format == "json"
        assert config.metrics is False

    def test_cost_spec_resolves(self):
        config = ReproConfig.from_env(env={"REPRO_COST": "unit"})
        assert config.cost.name == "UnitCost"

    def test_blank_values_are_unset(self):
        config = ReproConfig.from_env(
            env={"REPRO_BACKEND": "", "REPRO_JOBS": ""}
        )
        assert _fields(config) == _fields(ReproConfig())

    @pytest.mark.parametrize("word,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("false", False), ("No", False), ("off", False),
    ])
    def test_metrics_boolean_spellings(self, word, expected):
        config = ReproConfig.from_env(env={"REPRO_METRICS": word})
        assert config.metrics is expected


class TestOverrides:
    def test_flags_beat_environment(self):
        config = ReproConfig.from_env(
            env={"REPRO_BACKEND": "thread", "REPRO_LOG_LEVEL": "debug"},
            backend="serial",
            log_level="error",
        )
        assert config.backend == "serial"
        assert config.log_level == "error"

    def test_none_overrides_defer_to_environment(self):
        config = ReproConfig.from_env(
            env={"REPRO_BACKEND": "serial"}, backend=None, jobs=None
        )
        assert config.backend == "serial"
        assert config.jobs is None


class TestMalformedValues:
    """A typo'd deployment fails at startup, naming the variable."""

    @pytest.mark.parametrize("var,value", [
        ("REPRO_JOBS", "many"),
        ("REPRO_CACHE_SIZE", "big"),
        ("REPRO_METRICS", "maybe"),
    ])
    def test_unparsable_values_name_the_variable(self, var, value):
        with pytest.raises(ReproError, match=var):
            ReproConfig.from_env(env={var: value})

    def test_invalid_log_format_rejected(self):
        with pytest.raises(ReproError, match="log format"):
            ReproConfig.from_env(env={"REPRO_LOG_FORMAT": "xml"})

    def test_invalid_log_level_rejected(self):
        with pytest.raises(ReproError, match="log level"):
            ReproConfig.from_env(env={"REPRO_LOG_LEVEL": "chatty"})

    def test_invalid_backend_rejected(self):
        with pytest.raises(ReproError, match="backend"):
            ReproConfig.from_env(env={"REPRO_BACKEND": "gpu"})


class _RecordingEnv(dict):
    """An environment mapping that remembers every variable read."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestSurface:
    """The configuration surface: one field per knob, one variable per
    environment-settable field, and no convolution-kernel selector."""

    def test_fields(self):
        names = [field.name for field in dataclasses.fields(ReproConfig)]
        assert len(names) == 11
        assert "kernel" not in names

    def test_from_env_reads_exactly_these_variables(self):
        env = _RecordingEnv()
        ReproConfig.from_env(env=env)
        assert env.read == {
            "REPRO_COST",
            "REPRO_BACKEND",
            "REPRO_JOBS",
            "REPRO_CACHE_SIZE",
            "REPRO_LOG_LEVEL",
            "REPRO_LOG_FORMAT",
            "REPRO_METRICS",
            "REPRO_MAX_BODY_BYTES",
            "REPRO_WORKERS",
        }

    def test_unknown_variables_are_ignored(self):
        config = ReproConfig.from_env(env={"REPRO_KERNEL": "fortran"})
        assert _fields(config) == _fields(ReproConfig())
