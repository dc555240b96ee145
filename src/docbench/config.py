"""Layered run configuration.

A run's settings come from (lowest to highest precedence): the shipped desk
profile, an optional profile name or user config file, and command-line
``--set section.key=value`` overrides.  Files are plain INI sections.  The
desk profile lists every key the pipeline reads, so it is the one source of
defaults: the getters take no default, and a key missing from every layer
fails as ``missing config value <section>.<key>``.  It is also the list of
keys: a file or override that sets any other key fails as ``unknown config
key <section>.<key>``.

``Config.build`` makes a dataclass from one section, reading each field under
its own name, and every failure it raises names the section, and the key when
the check names one.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
from importlib import resources


class ConfigError(ValueError):
    """Bad or missing configuration value."""


PROFILE_PACKAGE = "docbench.profiles"


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
    def load(cls, config: str | None = None, overrides=()) -> "Config":
        """Layer desk profile <- optional file or profile <- overrides, then
        reject any key the desk profile does not define."""
        cfg = cls()
        cfg.read_file(profile_path("desk"))
        known = set(cfg._keys())
        if config:
            if os.path.exists(config):
                cfg.read_file(config)
            else:
                cfg.read_file(profile_path(config))
        for item in overrides:
            cfg.apply_override(item)
        for section, key in cfg._keys():
            if (section, key) not in known:
                raise ConfigError(f"unknown config key {section}.{key}")
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

    def _keys(self):
        """Every (section, key) set in any layer, [DEFAULT] keys first."""
        return [(self._cp.default_section, key) for key in self._cp.defaults()] + [
            (section, key) for section in self._cp.sections()
            for key in self._cp.options(section)]

    # -- typed access -------------------------------------------------------

    def get(self, section, key) -> str:
        try:
            return self._cp.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            raise ConfigError(f"missing config value {section}.{key}") from None

    def _parse(self, section, key, parse, kind, minimum=None):
        raw = self.get(section, key)
        try:
            value = parse(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"{section}.{key} must be {kind}, got {raw!r}") from None
        for item in value if isinstance(value, list) else [value]:
            if minimum is not None and item < minimum:
                raise ConfigError(f"{section}.{key} must be >= {minimum}, got {item}")
        return value

    def getint(self, section, key, minimum=None) -> int:
        return self._parse(section, key, int, "an integer", minimum)

    def getfloat(self, section, key) -> float:
        return self._parse(section, key, float, "a number")

    def getbool(self, section, key) -> bool:
        return self._parse(section, key,
                           lambda raw: self._cp.BOOLEAN_STATES[raw.lower()],
                           "a boolean")

    def getints(self, section, key, minimum=None) -> list:
        return self._parse(
            section, key, lambda raw: [int(tok) for tok in raw.replace(",", " ").split()],
            "a list of integers", minimum)

    def build(self, cls, section, **given):
        """``cls(**given)`` with every other field of the dataclass read from
        ``section`` under its own name and parsed by its declared type.

        A ValueError from the dataclass's checks becomes a ConfigError
        prefixed ``<section>.`` when its message starts with a key of the
        section, else ``<section>: ``.
        """
        read = {"int": self.getint, "float": self.getfloat,
                "bool": self.getbool, "str": self.get}
        for f in dataclasses.fields(cls):
            if f.name not in given:
                given[f.name] = read[getattr(f.type, "__name__", f.type)](
                    section, f.name)
        try:
            return cls(**given)
        except ValueError as exc:
            key = str(exc).partition(" ")[0]
            sep = "." if self._cp.has_option(section, key) else ": "
            raise ConfigError(f"{section}{sep}{exc}") from None

    def snapshot(self) -> dict:
        """Plain dict copy for run manifests."""
        return {section: dict(self._cp.items(section))
                for section in self._cp.sections()}
