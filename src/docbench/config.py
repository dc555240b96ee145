"""Layered run configuration.

A run's settings come from (lowest to highest precedence): a shipped profile,
an optional user config file, and command-line ``--set section.key=value``
overrides.  Files are plain INI sections; every default the pipeline uses is
a visible key in the shipped profiles.
"""

from __future__ import annotations

import configparser
import os
from importlib import resources


class ConfigError(ValueError):
    """Bad or missing configuration value."""


PROFILE_PACKAGE = "docbench.profiles"

# sentinel: distinguishes "no default supplied" from a default of None
_REQUIRED = object()


def profile_path(name: str) -> str:
    """Resolve a shipped profile name like 'desk' to its file path."""
    ref = resources.files(PROFILE_PACKAGE).joinpath(f"{name}.cfg")
    if not ref.is_file():
        raise ConfigError(f"unknown profile {name!r}")
    return str(ref)


class Config:
    def __init__(self):
        self._cp = configparser.ConfigParser(interpolation=None)

    @classmethod
    def load(cls, config: str | None = None, overrides=(),
             base_profile: str = "desk") -> "Config":
        """Layer base profile <- optional file or profile <- overrides."""
        cfg = cls()
        cfg.read_file(profile_path(base_profile))
        if config:
            if os.path.exists(config):
                cfg.read_file(config)
            else:
                cfg.read_file(profile_path(config))
        for item in overrides:
            cfg.apply_override(item)
        return cfg

    def read_file(self, path: str):
        if not self._cp.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        return self

    def apply_override(self, item: str):
        """Apply one 'section.key=value' override."""
        try:
            target, value = item.split("=", 1)
            section, key = target.split(".", 1)
        except ValueError:
            raise ConfigError(
                f"override must look like section.key=value, got {item!r}") from None
        if not self._cp.has_section(section):
            self._cp.add_section(section)
        self._cp.set(section, key.strip(), value.strip())

    # -- typed access -------------------------------------------------------

    def _raw(self, section, key, default):
        try:
            return self._cp.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            if default is _REQUIRED:
                raise ConfigError(f"missing config value {section}.{key}") from None
            return default

    def get(self, section, key, default=None):
        return self._raw(section, key, default)

    def getint(self, section, key, default=_REQUIRED) -> int:
        raw = self._raw(section, key, default)
        if raw is None:
            return None
        try:
            return int(str(raw))
        except (TypeError, ValueError):
            raise ConfigError(
                f"{section}.{key} must be an integer, got {raw!r}") from None

    def getfloat(self, section, key, default=_REQUIRED) -> float:
        raw = self._raw(section, key, default)
        if raw is None:
            return None
        try:
            return float(str(raw))
        except (TypeError, ValueError):
            raise ConfigError(
                f"{section}.{key} must be a number, got {raw!r}") from None

    def getbool(self, section, key, default=_REQUIRED) -> bool:
        raw = self._raw(section, key, default)
        if raw is None:
            return None
        if isinstance(raw, bool):
            return raw
        text = str(raw).strip().lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{section}.{key} must be a boolean, got {raw!r}")

    def getints(self, section, key, default=_REQUIRED) -> list:
        raw = self._raw(section, key, default)
        if raw is None:
            return None
        if not isinstance(raw, str):
            return list(raw)
        try:
            return [int(tok) for tok in raw.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(
                f"{section}.{key} must be a list of integers, got {raw!r}") from None

    def snapshot(self) -> dict:
        """Plain dict copy for run manifests."""
        return {section: dict(self._cp.items(section))
                for section in self._cp.sections()}
