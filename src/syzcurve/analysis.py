"""Whole-curve analysis reports and the expectation comparator used by the
corpus regression run.

A report gathers every computed invariant of one curve record: the scalar
syzygy invariants, graded dimension tables, bundle numerics, and the
stability / freeness / reconstructability verdicts.  Reports serialize to
JSON with deterministic formatting (two-space indent, sorted keys, rational
numbers as "p/q" strings) so that emitted files round-trip byte-for-byte.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache
from typing import Optional

from .curvecat import CurveRecord
from .logbundle import (freeness, genus_sum_check, h0_tangent, h1_tangent,
                        h2_tangent, is_stable, numerics, stability_sufficient)
from .ring3 import HPoly
from .singcat import CUSP, NODE, NotNodal, SmoothCurve, alpha_curve
from .syzygy import ar_dim, ct, defect, er_dim, h0m_dim, mdr, milnor_dim, tau
from .torelli import (dimension_obstruction, moduli_dim, severi_dim,
                      torelli_cuspidal, torelli_nodal)

SCHEMA_VERSION = 1

MODULE_TABLES = ("ar", "er", "milnor", "defect")
BUNDLE_TABLES = ("h0", "h1", "h2")

_TABLE_FUNCS = {
    "ar": ar_dim,
    "er": er_dim,
    "milnor": milnor_dim,
    "defect": defect,
    "h0": h0_tangent,
    "h1": h1_tangent,
    "h2": h2_tangent,
}


class UnknownInvariant(ValueError):
    """Requested table invariant is not one of the supported names."""


def table_values(f: HPoly, invariant: str, lo: int, hi: int) -> list:
    """Exact dimension table of one graded invariant over lo..hi inclusive."""
    func = _TABLE_FUNCS.get(invariant)
    if func is None:
        raise UnknownInvariant(
            "unknown invariant %r; choose one of %s"
            % (invariant, ", ".join(sorted(_TABLE_FUNCS))))
    return [func(f, k) for k in range(lo, hi + 1)]


def _sing_counts(sings):
    n = sum(1 for s in sings if s.stype == NODE)
    kappa = sum(1 for s in sings if s.stype == CUSP)
    other = len(sings) - n - kappa
    return n, kappa, other


def _criterion(rec):
    """(method, verdict) of the criterion torelli_report dispatches to."""
    _, kappa, _ = _sing_counts(rec.sings)
    if kappa == 0:
        return "nodal", torelli_nodal(rec)
    return "cuspidal", torelli_cuspidal(rec)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _sing_entry(s):
    return {
        "type": str(s.stype),
        "point": str(s.point) if s.point is not None else None,
        "tangent": str(s.tangent) if s.tangent is not None else None,
    }


def torelli_report(rec: CurveRecord) -> dict:
    """Dispatch the applicable reconstructability criterion and fold in the
    dimension-count obstruction.

    Nodal-only curves go through the nodal witness search, node-and-cusp
    curves through the cusp-aware one; anything else (including smooth
    curves) is out of criterion scope.  When the search criterion fails on
    a stable node-and-cusp curve whose family dimension exceeds the bundle
    family dimension, the failure is upgraded to an affirmative
    "dimension_obstruction" verdict: the generic such curve cannot be
    recovered from its bundle.
    """
    n, kappa, other = _sing_counts(rec.sings)
    out = {"applicable": False, "method": None, "status": "not_applicable",
           "witness_degree": None, "by_count": False, "detail": None,
           "criterion_status": None, "obstruction": None}
    if not rec.sings or other:
        out["detail"] = ("smooth curve" if not rec.sings else
                         "criteria cover curves with nodes and ordinary "
                         "cusps only")
        return out
    method, verdict = _criterion(rec)
    out.update(asdict(verdict), applicable=True, method=method,
               criterion_status=verdict.status)
    obstruction = dimension_obstruction(rec.degree, n, kappa)
    if obstruction is not None:
        out["obstruction"] = asdict(obstruction)
        if verdict.status == "criterion_fails" and is_stable(rec.f):
            out["status"] = "dimension_obstruction"
            out["detail"] = (verdict.detail + "; " + obstruction.detail)
    return out


@dataclass(frozen=True)
class AnalysisReport:
    data: dict

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True) + "\n"

    def __getitem__(self, key):
        return self.data[key]


def build_report(rec: CurveRecord, max_degree: Optional[int] = None
                 ) -> AnalysisReport:
    """Compute every invariant of one curve record.

    Graded module tables run over [0, top] and bundle cohomology tables
    over [-3, top], where top = d unless capped by max_degree.
    """
    f = rec.f
    d = f.degree
    top = d if max_degree is None else min(d, max_degree)

    tau_val = tau(f)
    mdr_val = mdr(f)
    ct_val = ct(f) if mdr_val is not None else None
    try:
        alpha = alpha_curve(rec.sings)
    except SmoothCurve:
        alpha = None

    tables = {}
    for names, lo in ((MODULE_TABLES, 0), (BUNDLE_TABLES, -3)):
        for name in names:
            tables[name] = {"start": lo,
                            "values": table_values(f, name, lo, top)}

    stable = is_stable(f)
    sufficient = (stability_sufficient(d, alpha)
                  if alpha is not None else None)
    free_verdict = freeness(f)
    chern = numerics(d, tau_val)

    try:
        genus = asdict(genus_sum_check(rec))
    except NotNodal:
        genus = None

    data = {
        "schema": SCHEMA_VERSION,
        "curve": {
            "name": rec.name,
            "degree": d,
            "polynomial": str(f),
            "irreducible": rec.irreducible,
            "components": rec.components,
            "component_genera": _jsonable(rec.component_genera),
            "singularities": [_sing_entry(s) for s in rec.sings],
            "tags": sorted(rec.tags),
        },
        "invariants": {
            "tau": tau_val,
            "mdr": mdr_val,
            "ct": ct_val,
            "alpha": _jsonable(alpha),
        },
        "bundle": {
            "c1": chern.c1,
            "c2": chern.c2,
            "chi": chern.chi,
            "discriminant": chern.discriminant,
        },
        "tables": tables,
        "stability": {
            "stable": stable,
            "sufficient_criterion_applies": sufficient,
        },
        "freeness": _jsonable(asdict(free_verdict)),
        "torelli": torelli_report(rec),
        "genus_check": genus,
    }
    return AnalysisReport(data)


# ---------------------------------------------------------------------------
# expectation comparison (corpus regression)

@dataclass(frozen=True)
class ExpectationResult:
    curve: str
    key: str
    expected: str
    computed: str
    ok: bool


def check_expectations(rec: CurveRecord) -> list:
    """Compute every expected invariant of a record and compare.  Results
    already kept on rec.f by earlier calls are reused, not recomputed.
    The results come one per expectation key, in sorted key order."""
    f = rec.f
    d = f.degree
    n, kappa, _ = _sing_counts(rec.sings)
    free_verdict = cache(lambda: freeness(f))
    torelli = cache(lambda: _criterion(rec)[1])
    # key -> computed value, given the expected value (profile keys take
    # their length or degrees from it)
    computed = {
        "tau": lambda want: tau(f),
        "mdr": lambda want: mdr(f),
        "ct": lambda want: ct(f),
        "alpha": lambda want: alpha_curve(rec.sings),
        "stable": lambda want: is_stable(f),
        "free": lambda want: free_verdict().free,
        "exponents": lambda want: free_verdict().exponents,
        "discriminant": lambda want: numerics(d, tau(f)).discriminant,
        "ar_profile": lambda want: tuple(ar_dim(f, m)
                                         for m in range(len(want))),
        "ar_at": lambda want: tuple((m, ar_dim(f, m)) for m, _ in want),
        "h0m_profile": lambda want: tuple(h0m_dim(f, k)
                                          for k in range(len(want))),
        "h0m_at": lambda want: tuple((k, h0m_dim(f, k)) for k, _ in want),
        "defect_profile": lambda want: tuple(defect(f, k)
                                             for k in range(len(want))),
        "genus_h1": lambda want: h1_tangent(f, d - 3),
        "torelli_status": lambda want: torelli().status,
        "torelli_witness": lambda want: torelli().witness_degree,
        "severi": lambda want: severi_dim(d, n, kappa),
        "moduli": lambda want: moduli_dim(d, n, kappa),
        "obstructed": lambda want: (dimension_obstruction(d, n, kappa)
                                    is not None),
    }
    results = []
    for key in sorted(rec.expected):
        want = rec.expected[key]
        if key not in computed:
            got, ok = "<unknown expectation key>", False
        else:
            got = computed[key](want)
            ok = got == want
        if key == "free":
            # the verdict counts only when both freeness methods agree
            ok = ok and free_verdict().methods_agree
        elif key == "h0m_at":
            # an expected None stands for "nonzero"
            ok = all((v is None and g >= 1) or g == v
                     for (_, v), (_, g) in zip(want, got))
        results.append(ExpectationResult(rec.name, key, repr(want),
                                         repr(got), ok))
    return results
