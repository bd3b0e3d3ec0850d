"""Serve configuration: CLI flags vs ``REPRO_SERVE_*`` environment.

Every knob resolves the same way: an explicitly passed CLI flag and a
set environment variable that *disagree* are a configuration error
(the CLI exits 2) — the service must never silently prefer one source
over the other, because a deployment that exports
``REPRO_SERVE_PORT=9000`` while its unit file says ``--port 8000``
has two sources of truth and whichever we picked would surprise
someone.  Agreeing sources are fine; a single source wins outright;
neither source means the default.

All environment parsing goes through :func:`repro.runtime.env_int` /
:func:`repro.runtime.env_flag` / :func:`repro.runtime.env_str`, so
the ``"0 "``-style whitespace misparses PR 5 eliminated stay
eliminated here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro import runtime


class ServeConfigError(ValueError):
    """Conflicting or invalid serve configuration (CLI exit 2)."""


#: Knob defaults, in one place so docs/tests cite a single source.
DEFAULTS: Dict[str, Any] = {
    "host": "127.0.0.1",
    "port": 8787,
    "socket": None,
    "shards": 2,
}


@dataclass(frozen=True)
class ServeConfig:
    """Resolved service configuration.

    ``shards`` counts warm worker processes (0 = compute in-process).
    """

    host: str
    port: int
    socket: Optional[str]
    shards: int


def _resolve(name: str, flag_value, env_name: str,
             reader: Callable[[str], Any], default):
    """One knob: flag vs environment vs default, conflicts fatal."""
    try:
        env_value = reader(env_name)
    except ValueError as exc:
        raise ServeConfigError(str(exc)) from exc
    if flag_value is not None and env_value is not None \
            and flag_value != env_value:
        raise ServeConfigError(
            f"conflicting settings for {name}: --{name}={flag_value!r} "
            f"but {env_name}={env_value!r}; drop one "
            f"(they may also agree)")
    if flag_value is not None:
        return flag_value
    if env_value is not None:
        return env_value
    return default


def resolve_config(*, host: Optional[str] = None,
                   port: Optional[int] = None,
                   socket: Optional[str] = None,
                   shards: Optional[int] = None) -> ServeConfig:
    """Resolve every knob; raise :class:`ServeConfigError` on conflict.

    Arguments are the explicit CLI flag values (``None`` = not
    passed); the environment side is ``REPRO_SERVE_HOST``, ``_PORT``,
    ``_SOCKET`` and ``_SHARDS``.
    """
    config = ServeConfig(
        host=_resolve("host", host, "REPRO_SERVE_HOST",
                      runtime.env_str, DEFAULTS["host"]),
        port=_resolve("port", port, "REPRO_SERVE_PORT",
                      runtime.env_int, DEFAULTS["port"]),
        socket=_resolve("socket", socket, "REPRO_SERVE_SOCKET",
                        runtime.env_str, DEFAULTS["socket"]),
        shards=_resolve("shards", shards, "REPRO_SERVE_SHARDS",
                        runtime.env_int, DEFAULTS["shards"]),
    )
    if config.port < 0 or config.port > 65535:
        raise ServeConfigError("port must lie in [0, 65535] "
                               "(0 = ephemeral)")
    if config.shards < 0:
        raise ServeConfigError("shards must be >= 0 "
                               "(0 = in-process compute)")
    return config
