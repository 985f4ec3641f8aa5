"""Resolver configuration: score tables and rule constants.

Every number the resolver uses is configurable through a ``key=value`` file;
the defaults below are the shipped calibration.

    definite=0              definiteness scores, one per referential property
    indefinite=-5
    generic=-5
    sim.0=-30               similarity score per category level, 0 = no match;
    sim.4=7                 the table must stay monotonically non-decreasing
    subject_base=23         base points for subjects on the anaphor's clause chain
    identity_points=30      points for a repeated definite noun phrase
    relational_points=30    points for the noun modified by a relational noun
    pseudo_points=10        points for the no-antecedent pseudo candidate
    example_match_min_level=4   level at which example similarity satisfies a slot;
                                at most the similarity table's top level
    semantics=on            off sets every score of the similarity table to 0
    weight.focus.noun:no=12     extra salience row (class:particles[:punct])

``ResolverConfig`` checks its definiteness keys, its similarity table, that
every score and point value is an ``int`` and that ``extra_weight_rows`` is
a collection of ``WeightRow`` objects, which check themselves, however it is
built, in code, by ``dataclasses.replace`` or from a file.  ``load_config``
also rejects an ``example_match_min_level`` above the similarity table's top
level; a config built in code is not held to it.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from ._files import read_utf8
from ._frozen import reduce_by_fields
from .salience import WeightRow, parse_weight_row

DEFAULT_SIMILARITY_TABLE: dict[int, int] = {0: -30, 1: -20, 2: -10, 3: 0, 4: 7, 5: 10}
DEFAULT_DEFINITENESS: dict[str, int] = {"definite": 0, "indefinite": -5, "generic": -5}


class ConfigError(ValueError):
    """A configuration value or file entry is malformed or inconsistent."""


@dataclass(frozen=True)
class ResolverConfig:
    definiteness: Mapping[str, int] = field(
        default_factory=lambda: dict(DEFAULT_DEFINITENESS))
    similarity_table: Mapping[int, int] = field(
        default_factory=lambda: dict(DEFAULT_SIMILARITY_TABLE))
    subject_base: int = 23
    identity_points: int = 30
    relational_points: int = 30
    pseudo_points: int = 10
    example_match_min_level: int = 4
    extra_weight_rows: tuple[WeightRow, ...] = ()

    def __post_init__(self):
        definiteness = dict(self.definiteness)
        if definiteness.keys() != DEFAULT_DEFINITENESS.keys():
            raise ConfigError(
                f"definiteness must score exactly {sorted(DEFAULT_DEFINITENESS)}, "
                f"got {list(definiteness)}")
        similarity_table = dict(self.similarity_table)
        scores = {**definiteness, **{name: getattr(self, name) for name in _INT_KEYS},
                  **{f"sim.{level}": score for level, score in similarity_table.items()}}
        for key, score in scores.items():
            if type(score) is not int:
                raise ConfigError(f"{key} must be an integer, got {score!r}")
        _check_similarity_table(similarity_table)
        rows = self.extra_weight_rows
        if isinstance(rows, (str, bytes)) or not isinstance(rows, Iterable):
            raise ConfigError(
                f"extra_weight_rows must be a collection of WeightRow items, got {rows!r}")
        rows = tuple(rows)
        for row in rows:
            if not isinstance(row, WeightRow):
                raise ConfigError(f"extra_weight_rows must hold WeightRow items, got {row!r}")
        object.__setattr__(self, "extra_weight_rows", rows)
        object.__setattr__(self, "definiteness", MappingProxyType(definiteness))
        object.__setattr__(self, "similarity_table", MappingProxyType(similarity_table))

    __reduce__ = reduce_by_fields

    @classmethod
    def default(cls) -> "ResolverConfig":
        return cls()

    def without_semantics(self) -> "ResolverConfig":
        return replace(self, similarity_table=dict.fromkeys(self.similarity_table, 0))


# The keys of a config file that set an integer field of its own name.
_INT_KEYS = tuple(f.name for f in fields(ResolverConfig) if type(f.default) is int)


def _check_similarity_table(table: Mapping[int, int]) -> None:
    for level in table:
        if type(level) is not int:
            raise ConfigError(f"similarity level must be an integer, got {level!r}")
    levels = sorted(table)
    if levels != list(range(len(levels))) or not levels:
        raise ConfigError(
            f"similarity table must cover contiguous levels from 0, got {levels}")
    scores = [table[level] for level in levels]
    if any(a > b for a, b in zip(scores, scores[1:])):
        raise ConfigError(
            f"similarity table must be monotonically non-decreasing, got {scores}")


def load_config(path: Path | str) -> ResolverConfig:
    """Read a key=value file on top of the defaults.

    ``ResolverConfig`` and ``WeightRow`` check the values they are given;
    their errors come back with the file's path, a row's with its line.  An
    ``example_match_min_level`` above the table's top level is rejected here.
    """
    default = ResolverConfig.default()
    definiteness = dict(default.definiteness)
    similarity = dict(default.similarity_table)
    values: dict[str, int] = {}
    weight_rows = []
    semantics = True

    for lineno, raw in enumerate(read_utf8(path, ConfigError).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(("%", "#")):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key in definiteness:
                definiteness[key] = _integer(key, value)
            elif key.startswith("sim."):
                similarity[_integer("similarity level", key[4:])] = _integer(key, value)
            elif key in _INT_KEYS:
                values[key] = _integer(key, value)
            elif key == "semantics":
                if value not in ("on", "off", "true", "false"):
                    raise ValueError("semantics must be on or off")
                semantics = value in ("on", "true")
            elif key.startswith("weight."):
                parts = key.split(".", 2)
                if len(parts) != 3:
                    raise ValueError("expected weight.<kind>.<pattern>")
                weight_rows.append(parse_weight_row(parts[1], parts[2], _integer(key, value)))
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: {exc}") from None

    try:
        config = replace(default, definiteness=definiteness, similarity_table=similarity,
                         extra_weight_rows=tuple(weight_rows), **values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    top = max(config.similarity_table)
    if config.example_match_min_level > top:
        # No level above the table's top can occur, so example matching
        # would be switched off without a word.
        raise ConfigError(
            f"{path}: example_match_min_level={config.example_match_min_level} "
            f"is above the similarity table's top level {top}")
    return config if semantics else config.without_semantics()


def _integer(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None
