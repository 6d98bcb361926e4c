"""Scenario assembly: a validated config names a group family and a cocycle;
from those we build the group models, the magnetic phase space, the holonomy
subgroup of dual-space shifts with its closure, and the cylinder quotient.

Config values travel as exact-scalar strings so that lattice decisions stay
exact; only sampling data (mu values, tolerances) is floating point.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .cylinder import Cylinder
from .errors import ConfigError, InputError
from .exact import QuadraticField, echelon, float_row, from_integer_row
from .groups import GroupModel, GroupPath, circle_count
from .lattices import (
    CoverDescriptor,
    LatticeSubgroup,
    classify_cover,
    is_closed,
    subgroup_is_hamiltonian,
)
from .momentum import PhasePath
from .symplectic import CocycleTheta, MagneticCotangent

__all__ = [
    "GROUP_CHOICES",
    "VerifySettings",
    "ScenarioConfig",
    "parse_config",
    "Scenario",
    "build_scenario",
]

log = logging.getLogger("momenta.scenario")

# "heisenberg" and "centralExtension" are synonyms: the family is the
# three-dimensional nilpotent group with compact center, whose universal
# cover is the simply connected group of the same Lie algebra.
GROUP_CHOICES = ("torus", "heisenberg", "centralExtension")
_GROUP_KIND = {"torus": "torus", "heisenberg": "central_extension", "centralExtension": "central_extension"}

_TOP_KEYS = {"group", "dim", "field", "theta", "sigma", "muList", "gammaN", "verify"}
_VERIFY_KEYS = {"tolerance", "sampleCount", "seed"}


@dataclass(frozen=True)
class VerifySettings:
    tolerance: float = 1e-8
    sample_count: int = 100
    seed: int = 42


@dataclass(frozen=True)
class ScenarioConfig:
    group: str
    dim: int
    field: QuadraticField
    theta: CocycleTheta
    mu_list: tuple
    gamma_n: tuple | None
    verify: VerifySettings

    def summary(self) -> dict:
        """Exact, JSON-ready echo of the scenario inputs."""
        out = {
            "group": self.group,
            "dim": self.dim,
            "field": str(self.field.r),
            "muList": [[float(x) for x in mu] for mu in self.mu_list],
        }
        if self.theta.sigma is not None:
            out["sigma"] = [s.format() for s in self.theta.sigma]
        else:
            out["theta"] = [[x.format() for x in row] for row in self.theta.matrix]
        if self.gamma_n is not None:
            out["gammaN"] = [list(col) for col in self.gamma_n]
        out["verify"] = {
            "tolerance": self.verify.tolerance,
            "sampleCount": self.verify.sample_count,
            "seed": self.verify.seed,
        }
        return out


def _is_finite_number(value) -> bool:
    """A JSON number in the float range: not the Infinity and NaN tokens that
    Python's JSON reader accepts, nor an integer too large for a float."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _config_int(value, field_name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field_name, f"expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(field_name, f"must be at least {minimum}")
    return value


def _parse_scalar(field: QuadraticField, entry, name: str):
    """The exact scalar of a theta or sigma entry.  Every numeric layer reads
    theta as floats, so a float must be finite, and normal unless the entry
    is 0: a zero or subnormal one breaks the cylinder of the exact lattice."""
    try:
        x = field.coerce(entry)
        size = abs(float(x))
    except (ValueError, TypeError) as err:
        raise ConfigError(name, str(err)) from err
    except OverflowError:
        size = math.inf
    if not size <= sys.float_info.max:  # inf and NaN fail
        raise ConfigError(name, "value is beyond the float range")
    if x and size < sys.float_info.min:
        raise ConfigError(name, "nonzero value is below the normal float range")
    return x


def _parse_theta(field: QuadraticField, rows, dim: int) -> CocycleTheta:
    ok = isinstance(rows, list) and len(rows) == dim
    ok = ok and all(isinstance(r, list) and len(r) == dim for r in rows)
    if not ok:
        raise ConfigError("theta", f"expected a {dim}x{dim} matrix of exact scalars")
    parsed = [
        [_parse_scalar(field, entry, f"theta[{i}][{j}]") for j, entry in enumerate(row)] for i, row in enumerate(rows)
    ]
    try:
        return CocycleTheta(field, parsed)
    except InputError as err:
        raise ConfigError("theta", "theta not antisymmetric") from err


# Largest accepted |mu| entry: the checks square mu (the Heisenberg Casimir)
# and flow it, which overflows floats long before 1e308.
_MU_BOUND = 1e100


def _parse_mu_list(raw, n: int) -> tuple:
    if raw is None:
        return (np.zeros(n),)
    if not (isinstance(raw, list) and raw):
        raise ConfigError("muList", "expected a nonempty list of dual vectors")
    out = []
    for i, entry in enumerate(raw):
        good = isinstance(entry, list) and len(entry) == n
        if not (good and all(_is_finite_number(x) for x in entry)):
            raise ConfigError(f"muList[{i}]", f"expected {n} finite numbers")
        if any(abs(x) > _MU_BOUND for x in entry):
            raise ConfigError(f"muList[{i}]", f"entries must be at most {_MU_BOUND:g} in magnitude")
        out.append(np.array(entry, dtype=float))
    return tuple(out)


def _parse_gamma_n(raw, gamma_dim: int):
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise ConfigError("gammaN", "expected a list of integer vectors")
    cols = []
    for i, col in enumerate(raw):
        good = isinstance(col, list) and len(col) == gamma_dim
        good = good and all(isinstance(x, int) and not isinstance(x, bool) for x in col)
        if not good:
            raise ConfigError(f"gammaN[{i}]", f"expected {gamma_dim} integers")
        cols.append(tuple(col))
    return tuple(cols)


def _parse_verify(raw) -> VerifySettings:
    if raw is None:
        return VerifySettings()
    if not isinstance(raw, dict):
        raise ConfigError("verify", "expected an object")
    unknown = set(raw) - _VERIFY_KEYS
    if unknown:
        raise ConfigError(f"verify.{sorted(unknown)[0]}", "unknown field")
    tol = raw.get("tolerance", 1e-8)
    if not (_is_finite_number(tol) and tol > 0):
        raise ConfigError("verify.tolerance", "must be a finite positive number")
    if not math.isfinite(tol / 1e-8):  # the scale of every stated check tolerance
        raise ConfigError("verify.tolerance", "scales the check tolerances past the float range")
    count = _config_int(raw.get("sampleCount", 100), "verify.sampleCount", 1)
    seed = _config_int(raw.get("seed", 42), "verify.seed", 0)
    return VerifySettings(tolerance=float(tol), sample_count=count, seed=seed)


def parse_config(text: str) -> ScenarioConfig:
    """Validate config JSON; raises ConfigError naming the offending field."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            "<json>", f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown config field")

    group = raw.get("group")
    if group not in GROUP_CHOICES:
        raise ConfigError("group", f"must be one of: {', '.join(GROUP_CHOICES)}")
    try:
        field = QuadraticField(raw.get("field", 2))
    except (ValueError, TypeError) as err:
        raise ConfigError("field", str(err)) from err
    except OverflowError as err:  # from its square root
        raise ConfigError("field", "square root is beyond the float range") from err

    if group == "torus":
        if "sigma" in raw:
            raise ConfigError("sigma", "sigma applies only to the Heisenberg family")
        dim = _config_int(raw.get("dim"), "dim", 1)
        theta = _parse_theta(field, raw.get("theta"), dim)
    else:
        if "theta" in raw:
            raise ConfigError("theta", "theta is derived from sigma for the Heisenberg family")
        dim = _config_int(raw.get("dim", 3), "dim", 1)
        if dim != 3:
            raise ConfigError("dim", "the Heisenberg family is three-dimensional")
        sig = raw.get("sigma")
        if not (isinstance(sig, list) and len(sig) == 2):
            raise ConfigError("sigma", "expected a pair of exact scalars")
        theta = CocycleTheta.from_sigma(field, [_parse_scalar(field, x, f"sigma[{i}]") for i, x in enumerate(sig)])

    mu_list = _parse_mu_list(raw.get("muList"), dim)
    gamma_n = _parse_gamma_n(raw.get("gammaN"), circle_count(_GROUP_KIND[group], dim))
    verify = _parse_verify(raw.get("verify"))
    log.info("parsed %s scenario config (dim=%d)", group, dim)
    return ScenarioConfig(
        group=group,
        dim=dim,
        field=field,
        theta=theta,
        mu_list=mu_list,
        gamma_n=gamma_n,
        verify=verify,
    )


class Scenario:
    """Everything derived from a config: models, holonomy, cylinder, lattices.
    Every decision reads the model's bracket pairs and circles, never
    ``kind``, the model's label."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.field = config.field
        self.theta = config.theta
        self.group = GroupModel(_GROUP_KIND[config.group], config.dim)
        self.kind = self.group.kind  # the family's label; no decision here reads it
        self.model = MagneticCotangent(self.group, self.theta)
        self.cover = self.model.cover
        self.n = self.model.n

        # one fundamental-group generator per circle coordinate; the loop
        # around circle a shifts momentum by theta column a, which is minus
        # row a of the skew theta
        self.gamma_dim = len(self.group.circles)
        self.gamma = LatticeSubgroup.standard(self.gamma_dim)
        columns = self.theta.columns()
        self.holonomy_generators = tuple(columns[a] for a in self.group.circles)
        rows = self.theta.rows
        self._generator_rows = rows._replace(ints=[[-x for x in rows.ints[a]] for a in self.group.circles])
        self.decomp = is_closed(self.field, self.n, self._generator_rows)
        self.cylinder = Cylinder(self.decomp)
        # the deck loops with zero holonomy: the generators' relations
        self.gamma0 = self.decomp.relations
        self.cover_descriptor = self._cover_descriptor()
        self.mu_list = config.mu_list
        self.gamma_n = (
            None if config.gamma_n is None else LatticeSubgroup(self.gamma_dim, config.gamma_n)
        )
        if self.gamma_n is not None and not subgroup_is_hamiltonian(self.gamma_n, self.gamma0):
            raise ConfigError("gammaN", "not a Hamiltonian cover: gamma_n is not contained in gamma_0")
        log.info(
            "built %s scenario: holonomy closed=%s, gamma0 rank=%d",
            self.kind,
            self.decomp.closed,
            self.gamma0.rank,
        )

    # -- exact structure ---------------------------------------------------

    def _cover_descriptor(self) -> CoverDescriptor:
        """The minimal Hamiltonian cover R^n / gamma_0 = T^r x R^(n - r); a
        model with non-circle coordinates spells its kept circle S^1."""
        cover = classify_cover(self.gamma0, self.n)
        if self.gamma_dim == self.n:
            return cover
        return replace(cover, text=cover.text.replace("T^1 x", "S^1 x"))

    @cached_property
    def orbit_basis(self) -> np.ndarray:
        """Rows of an exact basis (reduced row echelon form) of the real span
        of the theta columns, as floats; affine-action orbits of an abelian
        model are translates of that span.  Computed once per scenario.

        The columns of the skew theta span what its rows span, so this is
        the echelon of theta's integer rows.  When every coordinate is a
        circle, generator a is minus row a of theta, so the matrix
        whose columns are the generators, which `is_closed` eliminates
        first, is theta itself: when theta has a sqrt part, that echelon
        (`ClosedSubgroupDecomp.generator_echelon`) is this one, and theta is
        not eliminated again."""
        ints, _, q, R = self.theta.rows
        form = self.decomp.generator_echelon if self.gamma_dim == self.n else None
        red, pivots = echelon(ints, self.n, R) if form is None else form
        rows = [float_row(row, row[c], q, R, self.field.sqrt_r) for row, c in zip(red, pivots)]
        basis = np.array(rows, dtype=float).reshape(len(pivots), self.n)
        basis.flags.writeable = False  # shared by every orbit descriptor
        return basis

    @cached_property
    def orbit_frame(self) -> np.ndarray:
        """Orthonormal columns spanning the rows of `orbit_basis` (the Q of
        its transpose's QR): the frame that orbit residuals project onto.
        Computed once per scenario."""
        frame = np.linalg.qr(self.orbit_basis.T)[0]
        frame.flags.writeable = False
        return frame

    def gamma_prime(self) -> LatticeSubgroup:
        """Stabilizer-image subgroup at the base point; all of gamma for T*G
        (the identity coset is fixed by every deck translation's stabilizer)."""
        return self.gamma

    def holonomy_of(self, k):
        """Exact momentum shift of the fundamental-group element k: the
        integer combination of the generator rows, as exact scalars."""
        ints, den, q, R = self._generator_rows
        ks = [int(c) for c in np.atleast_1d(k)]
        row = [sum(c * x for c, x in zip(ks, col)) for col in zip(*ints)]
        return tuple(from_integer_row(row, den, q, R, self.field))

    def loop_path(self, k) -> GroupPath:
        """Cover path from the identity to the deck translate k: projects to a
        fundamental-group loop downstairs.  Stacked rows of k give a batch."""
        ks = np.asarray(k, dtype=float)
        if ks.ndim == 0:
            ks = ks[None]
        xi = np.zeros(ks.shape[:-1] + (self.n,))
        xi[..., self.group.circles] = ks
        return GroupPath.straight(self.cover, xi)

    # -- sampling helpers --------------------------------------------------

    def random_loop_coefficients(self, rng) -> np.ndarray:
        k = rng.integers(-3, 4, self.gamma_dim)
        if not np.any(k):
            k[0] = 1
        return k

    # A random path has two segments from the identity (a phase path: from
    # the base point).  A sample's numbers are one row of the generator
    # stream: per kind, in the order asked for, 2 durations in (0.5, 1.5)
    # (scaled to sum 1), 2 directions in (-1.5, 1.5)^n and, for a phase path,
    # 3 momenta at the breakpoints in (-1, 1)^n, the first then set to 0.

    def _row_ranges(self, kinds):
        n = self.n
        cover = [(0.5, 1.5, 2), (-1.5, 1.5, 2 * n)]
        fields = {"cover": cover, "phase": cover + [(-1.0, 1.0, 3 * n)]}
        lows, highs, sizes = zip(*(f for kind in kinds for f in fields[kind]))
        return np.repeat(lows, sizes), np.repeat(highs, sizes)

    def _paths_from_rows(self, rows, kinds) -> list:
        n, out = self.n, []
        for kind in kinds:
            durs, dirs, rows = np.split(rows, [2, 2 + 2 * n], axis=1)
            durs = (durs / durs.sum(axis=1, keepdims=True)).ravel()
            path = GroupPath.from_table(self.cover, dirs.reshape(-1, n), durs, counts=np.full(len(rows), 2))
            if kind == "phase":
                momenta, rows = np.split(rows, [3 * n], axis=1)
                momenta[:, :n] = 0.0
                path = PhasePath(path, momenta.reshape(-1, n))
            out.append(path)
        return out

    def draw_paths(self, rng, count: int, *kinds) -> list:
        """``count`` random paths of each kind ("cover" or "phase"), drawn
        sample after sample in one generator call; one batch per kind."""
        lows, highs = self._row_ranges(kinds)
        return self._paths_from_rows(rng.uniform(lows, highs, (count, len(lows))), kinds)

    def draw_phase_and_loops(self, rng, count: int):
        """``count`` phase paths and, drawn after each, deck-loop
        coefficients.  Bounded integers keep half a word buffered in the
        generator, so this one goes sample by sample."""
        lows, highs = self._row_ranges(("phase",))
        rows, ks = zip(*[(rng.uniform(lows, highs), self.random_loop_coefficients(rng)) for _ in range(count)])
        return self._paths_from_rows(np.array(rows), ("phase",))[0], np.array(ks)

    def random_cover_path(self, rng) -> GroupPath:
        """One random cover path, not a batch."""
        (p,) = self.draw_paths(rng, 1, "cover")
        return GroupPath.from_table(self.cover, p.directions, p.durations)

    def random_phase_path(self, rng) -> PhasePath:
        """One random phase path, not a batch."""
        (x,) = self.draw_paths(rng, 1, "phase")
        return PhasePath(GroupPath.from_table(self.cover, x.base.directions, x.base.durations), x.momenta)


def build_scenario(config: ScenarioConfig) -> Scenario:
    return Scenario(config)
