"""Knob resolution: CLI flags vs ``REPRO_SERVE_*`` environment."""

import dataclasses

import pytest

from repro.serve.config import (
    DEFAULTS,
    ServeConfig,
    ServeConfigError,
    resolve_config,
)

_ENV_NAMES = ("REPRO_SERVE_HOST", "REPRO_SERVE_PORT",
              "REPRO_SERVE_SOCKET", "REPRO_SERVE_SHARDS")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in _ENV_NAMES:
        monkeypatch.delenv(name, raising=False)


class TestResolution:
    def test_defaults(self):
        config = resolve_config()
        assert config.host == DEFAULTS["host"]
        assert config.port == DEFAULTS["port"]
        assert config.socket is None
        assert config.shards == DEFAULTS["shards"]
        assert [field.name for field in dataclasses.fields(ServeConfig)] \
            == ["host", "port", "socket", "shards"]

    def test_flag_wins_when_env_unset(self):
        assert resolve_config(port=9999).port == 9999

    def test_env_wins_when_flag_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "9001")
        monkeypatch.setenv("REPRO_SERVE_SHARDS", " 3 ")
        config = resolve_config()
        assert config.port == 9001
        assert config.shards == 3

    def test_agreeing_sources_are_fine(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "9001")
        assert resolve_config(port=9001).port == 9001

    def test_conflict_is_fatal(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "9001")
        with pytest.raises(ServeConfigError, match="conflicting"):
            resolve_config(port=8000)

    def test_string_knob_conflict(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_HOST", "0.0.0.0")
        with pytest.raises(ServeConfigError, match="host"):
            resolve_config(host="127.0.0.1")

    def test_unparseable_env_is_fatal(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_SHARDS", "soon")
        with pytest.raises(ServeConfigError, match="SHARDS"):
            resolve_config()

    @pytest.mark.parametrize("name, value", [
        ("REPRO_SERVE_MAX_BATCH", "soon"),
        ("REPRO_SERVE_MEMO_ENTRIES", "0"),
    ])
    def test_removed_knob_env_is_ignored(self, monkeypatch, name,
                                         value):
        monkeypatch.setenv(name, value)
        assert resolve_config() == ServeConfig(**DEFAULTS)

    def test_whitespace_env_means_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_HOST", "   ")
        assert resolve_config().host == DEFAULTS["host"]


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"port": -1}, {"port": 65536}, {"shards": -1},
    ])
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ServeConfigError):
            resolve_config(**kwargs)

    def test_zero_port_and_zero_shards_allowed(self):
        config = resolve_config(port=0, shards=0)
        assert config.port == 0
        assert config.shards == 0


class TestCliExitCode:
    def test_conflict_exits_2(self, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_SERVE_PORT", "9001")
        status = main(["serve", "--port", "8000"])
        assert status == 2
        assert "conflicting" in capsys.readouterr().err

    def test_invalid_env_exits_2(self, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_SERVE_SHARDS", "many")
        status = main(["serve"])
        assert status == 2
        assert "REPRO_SERVE_SHARDS" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-batch", "--memo-entries"])
    def test_removed_flags_exit_2(self, monkeypatch, capsys, flag):
        from repro.cli import main
        # Should the flag ever parse again, the invalid port fails the
        # test at once instead of starting a server.
        monkeypatch.setenv("REPRO_SERVE_PORT", "-1")
        with pytest.raises(SystemExit) as exited:
            main(["serve", flag, "8"])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
