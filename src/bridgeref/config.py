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
    semantics=on            off fixes every similarity score to 0
    weight.focus.noun:no=12     extra salience row (class:particles[:punct])
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional

from ._frozen import reduce_by_fields
from .salience import WeightRow, parse_weight_row

DEFAULT_SIMILARITY_TABLE: dict[int, int] = {0: -30, 1: -20, 2: -10, 3: 0, 4: 7, 5: 10}
DEFAULT_DEFINITENESS: dict[str, int] = {"definite": 0, "indefinite": -5, "generic": -5}


class ConfigError(ValueError):
    """A configuration file entry is malformed or inconsistent."""


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
    semantics: bool = True
    extra_weight_rows: tuple[WeightRow, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "definiteness", MappingProxyType(dict(self.definiteness)))
        object.__setattr__(
            self, "similarity_table", MappingProxyType(dict(self.similarity_table)))

    __reduce__ = reduce_by_fields

    @classmethod
    def default(cls) -> "ResolverConfig":
        return cls()

    def without_semantics(self) -> "ResolverConfig":
        return replace(self, semantics=False)


def _check_similarity_table(table: Mapping[int, int]) -> None:
    levels = sorted(table)
    if levels != list(range(len(levels))) or not levels:
        raise ConfigError(
            f"similarity table must cover contiguous levels from 0, got {levels}")
    scores = [table[level] for level in levels]
    if any(a > b for a, b in zip(scores, scores[1:])):
        raise ConfigError(
            f"similarity table must be monotonically non-decreasing, got {scores}")


def load_config(path: Path | str, base: Optional[ResolverConfig] = None) -> ResolverConfig:
    """Read a key=value file on top of ``base`` (defaults when omitted)."""
    base = base or ResolverConfig.default()
    definiteness = dict(base.definiteness)
    similarity = dict(base.similarity_table)
    scalars = {
        "subject_base": base.subject_base,
        "identity_points": base.identity_points,
        "relational_points": base.relational_points,
        "pseudo_points": base.pseudo_points,
        "example_match_min_level": base.example_match_min_level,
    }
    semantics = base.semantics
    weight_rows = list(base.extra_weight_rows)

    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
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
                definiteness[key] = int(value)
            elif key.startswith("sim."):
                similarity[int(key[4:])] = int(value)
            elif key in scalars:
                scalars[key] = int(value)
            elif key == "semantics":
                if value not in ("on", "off", "true", "false"):
                    raise ConfigError(
                        f"{path}: line {lineno}: semantics must be on or off")
                semantics = value in ("on", "true")
            elif key.startswith("weight."):
                parts = key.split(".", 2)
                if len(parts) != 3:
                    raise ConfigError(
                        f"{path}: line {lineno}: expected weight.<kind>.<pattern>")
                weight_rows.append(parse_weight_row(parts[1], parts[2], int(value)))
            else:
                raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: {exc}") from None

    _check_similarity_table(similarity)
    top = max(similarity)
    if scalars["example_match_min_level"] > top:
        # No level above the table's top can occur, so example matching
        # would be switched off without a word.
        raise ConfigError(
            f"{path}: example_match_min_level={scalars['example_match_min_level']} "
            f"is above the similarity table's top level {top}")
    return ResolverConfig(
        definiteness=definiteness,
        similarity_table=similarity,
        subject_base=scalars["subject_base"],
        identity_points=scalars["identity_points"],
        relational_points=scalars["relational_points"],
        pseudo_points=scalars["pseudo_points"],
        example_match_min_level=scalars["example_match_min_level"],
        semantics=semantics,
        extra_weight_rows=tuple(weight_rows),
    )
