"""Run configuration.

One JSON config file per run; the API key is never stored in the file and
comes from an environment variable instead.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

BACKEND_MODES = ("live", "record", "replay", "scripted")

DEFAULT_MODELS = {
    "1": "flash-large-context",
    "2": "flash-large-context",
    "3": "flash-large-context",
    "4": "flash-large-context",
    "5": "flash-reasoning",
}


@dataclass
class RunConfig:
    corpus_dir: str = "corpus"
    run_dir: str = "run"
    report_dir: str = "report"
    backend: str = "replay"
    endpoint_url: str = ""
    models: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_MODELS))
    temperature: float = 0.0
    batch_cap: int = 20
    worker_count: int = 1
    rpm_limit: int = 60
    retry_budget: int = 4
    jitter_seed: int = 0
    scripted_seed: int = 0
    context_budget: int = 1_000_000
    template_dir: str | None = None
    catalog_path: str | None = None
    api_base_url: str = "https://api.openalex.org"
    api_query: str = ""
    api_filters: dict[str, str] = field(default_factory=dict)
    mailto: str | None = None
    api_key_env: str = "SDGPB_API_KEY"

    def validate(self) -> None:
        for name, (kinds, items) in _field_types().items():
            value = getattr(self, name)
            if not _accepts(kinds, value):
                allowed = " or ".join(kind.__name__ for kind in kinds)
                raise ConfigError(f"{name} must be {allowed}, got {type(value).__name__} {value!r}")
            for key, item in value.items() if items else ():
                if not (_accepts(items[:1], key) and _accepts(items[1:], item)):
                    expected = " to ".join(kind.__name__ for kind in items)
                    raise ConfigError(f"{name} must map {expected}, got {name}[{key!r}] = {item!r}")
        for key in self.models:
            if key not in DEFAULT_MODELS:
                raise ConfigError(f"models[{key!r}] is not a stage number 1..5")
        if self.backend not in BACKEND_MODES:
            raise ConfigError(f"backend must be one of {BACKEND_MODES}, got {self.backend!r}")
        if self.batch_cap < 1:
            raise ConfigError("batch_cap must be >= 1")
        if self.worker_count < 1:
            raise ConfigError("worker_count must be >= 1")
        if self.rpm_limit < 1:
            raise ConfigError("rpm_limit must be >= 1")
        if self.retry_budget < 0:
            raise ConfigError("retry_budget must be >= 0")
        if self.context_budget < 1:
            raise ConfigError("context_budget must be >= 1")
        if self.backend == "live" and not self.endpoint_url:
            raise ConfigError("live backend requires endpoint_url")
        if self.backend == "live" and "1" not in self.models:
            raise ConfigError('live backend requires models["1"], a model name')


def _accepts(kinds: tuple[type, ...], value: object) -> bool:
    return isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool))


def _field_types() -> dict[str, tuple[tuple[type, ...], tuple[type, ...]]]:
    """Each RunConfig field's accepted types, read from its annotation, and a
    dict field's key and value types: an int may stand for a float, and a
    bool is no int."""
    kinds = {}
    for name, hint in typing.get_type_hints(RunConfig).items():
        union = typing.get_origin(hint) in (typing.Union, types.UnionType)
        args = tuple(typing.get_origin(arg) or arg for arg in (typing.get_args(hint) if union else (hint,)))
        items = typing.get_args(hint) if typing.get_origin(hint) is dict else ()
        kinds[name] = (args + (int,) if float in args else args, items)
    return kinds


def load_config(path: str | Path | None) -> RunConfig:
    if path is None:
        cfg = RunConfig()
        cfg.validate()
        return cfg
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text("utf-8"))
    except ValueError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig(**data)
    cfg.validate()
    return cfg
