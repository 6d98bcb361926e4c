"""Analysis-report assembly and JSON serialization.

Reports keep an "exact" section (lattice and group facts, no tolerances) apart
from a "numeric" section (sampled checks with max errors).  Exact scalars are
serialized as strings so that round-tripping a report never corrupts lattice
data.  The only non-deterministic fields are the timestamp and the per-check
wall times, isolated in the header so reports are comparable by stripping it.

`AnalysisReport.to_json` writes the bytes of ``json.dumps(data, indent=2,
sort_keys=True)`` plus a newline itself: with an indent, the json module
falls back to its pure-Python encoder, which costs more than the report
takes to build.  Strings are escaped by the json module's own
`encode_basestring_ascii`, floats printed by `float.__repr__` (NaN and
Infinity as json spells them), and each list or object is one join of its
items' texts.  Keys are strings, as in every report and every parsed JSON
object (`encode_basestring_ascii` refuses any other).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from datetime import datetime, timezone

from .cylinder import deck_group_of_reduced_cover, gamma_mu, orbit_descriptor
from .lattices import LatticeSubgroup
from .verification import CheckReport, check_rng, run_checks

__all__ = ["AnalysisReport", "build_analysis"]

log = logging.getLogger("momenta.report")

_escape = json.encoder.encode_basestring_ascii

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AnalysisReport:
    """Thin wrapper over the report dictionary; serialization is canonical
    (sorted keys, two-space indent) so identical data gives identical bytes."""

    data: dict

    def to_json(self) -> str:
        return _text(self.data, "\n") + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls(json.loads(text))

    # -- convenience accessors -------------------------------------------

    @property
    def exact(self) -> dict:
        return self.data["exact"]

    def without_header(self) -> dict:
        return {k: v for k, v in self.data.items() if k != "header"}


def _float_text(o: float) -> str:
    if math.isfinite(o):
        return float.__repr__(o)
    return "NaN" if o != o else ("Infinity" if o > 0 else "-Infinity")


# JSON text of a leaf by its exact type; subclasses of str, int and float
# are read as their base, as json.dumps reads them
_LEAF = {
    str: _escape,
    int: int.__repr__,
    float: _float_text,
    bool: lambda o: "true" if o else "false",
    type(None): lambda o: "null",
}


def _text(o, newline: str) -> str:
    """The indented JSON text of ``o``; ``newline`` is a newline and the
    indent of the line ``o`` starts on."""
    leaf = _LEAF.get(type(o))
    if leaf is not None:
        return leaf(o)
    inner = newline + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_escape(k) + ": " + _text(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join([_text(x, inner) for x in o]) + newline + "]"
    for base in (str, int, float):
        if isinstance(o, base):
            return _LEAF[base](o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _exact_vectors(vectors) -> list[list[str]]:
    return [[x.format() for x in v] for v in vectors]


def _orbit_dict(desc) -> dict:
    out = {"kind": desc.kind, "summary": desc.summary(), "validatedSamples": desc.validated_samples}
    if desc.kind == "affineSubspace":
        out["dim"] = int(desc.basis.shape[0])
        out["basis"] = [[float(x) for x in row] for row in desc.basis]
    else:
        out["casimirValue"] = float(desc.casimir_value)
    return out


def _per_mu_entry(sc, index: int, mu, seed: int) -> dict:
    desc = orbit_descriptor(sc, mu, rng=check_rng(seed, f"orbit[{index}]"))
    entry: dict = {"mu": [float(x) for x in mu], "orbit": _orbit_dict(desc)}

    if not sc.decomp.closed:
        entry["reductionSuppressed"] = "holonomy closure has a positive-dimensional part"
        return entry

    g_mu = gamma_mu(sc, mu)
    entry["gammaMu"] = {"rank": g_mu.rank, "basis": [list(c) for c in g_mu.columns]}

    gamma_n = sc.gamma_n if sc.gamma_n is not None else LatticeSubgroup.zero(sc.gamma_dim)
    deck = deck_group_of_reduced_cover(sc, mu, gamma_n)
    entry["deckInvariants"] = {"freeRank": deck.free_rank, "torsion": list(deck.torsion)}
    entry["deckDescription"] = deck.describe()
    entry["symplectomorphism"] = deck.is_trivial
    entry["reducedCoverRelation"] = (
        "symplectomorphism" if deck.is_trivial else "nontrivial covering"
    )
    return entry


def build_analysis(sc, checks: list[CheckReport] | None = None, timestamp: str | None = None) -> AnalysisReport:
    """Assemble the full report; runs the check suite when none is supplied."""
    if checks is None:
        checks = run_checks(sc)
    seed = sc.config.verify.seed
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat()

    exact = {
        "holonomyGenerators": _exact_vectors(sc.holonomy_generators),
        "holonomyClosed": sc.decomp.closed,
        "closure": {
            "subspaceBasis": _exact_vectors(sc.decomp.subspace_basis),
            "latticeBasis": _exact_vectors(sc.decomp.lattice_basis),
        },
        "gamma0Basis": [list(c) for c in sc.gamma0.columns],
        "coverClassification": sc.cover_descriptor.text,
        "perMu": [
            _per_mu_entry(sc, i, mu, seed) for i, mu in enumerate(sc.mu_list)
        ],
    }
    data = {
        "header": {
            "generatedAt": timestamp,
            "tool": "momenta",
            "schemaVersion": SCHEMA_VERSION,
            "checkSeconds": {c.check_name: c.duration_seconds for c in checks},
        },
        "scenario": sc.config.summary(),
        "exact": exact,
        "numeric": {
            "checks": [c.to_dict() for c in checks],
            "allPassed": all(c.passed for c in checks),
        },
    }
    log.info(
        "assembled report: closed=%s, %d checks, allPassed=%s",
        sc.decomp.closed,
        len(checks),
        data["numeric"]["allPassed"],
    )
    return AnalysisReport(data)
