"""Certificates must stay byte-identical.

`golden_certificates.json` holds the emitted certificate JSON (the
`decompose --json` form) for a seeded batch of random monomial ideals
and random complexes, searched at k = 0, 1, 2, complexes in both direct
and dual mode.  Any change to the search order, the shedding tests or
the emitters shows up here as a changed or missing certificate.
"""

from __future__ import annotations

import json
from pathlib import Path
from random import Random

from kdecomp import VariableContext, k_decomposable_complex, k_decomposable_ideal
from kdecomp.documents import (
    complex_certificate_object,
    emit_object,
    ideal_certificate_object,
)
from kdecomp.generators import random_complex, random_monomial_ideal

GOLDEN = Path(__file__).with_name("golden_certificates.json")
SEED = 20240917
IDEALS_PER_K = 12
COMPLEXES = 16


def _emit(obj) -> str | None:
    return None if obj is None else json.dumps(obj, indent=2)


def golden_batch() -> list[dict]:
    """One record per search: its input document and emitted certificate."""
    rng = Random(SEED)
    records = []
    ctx = VariableContext.of("x1", "x2", "x3", "x4", "x5")
    memo: dict = {}
    for k in (0, 1, 2):
        for _ in range(IDEALS_PER_K):
            ideal = random_monomial_ideal(rng, ctx, max_gens=6, max_exp=2)
            cert = k_decomposable_ideal(ideal, k, memo)
            records.append(
                {
                    "input": emit_object(ideal),
                    "k": k,
                    "certificate": _emit(cert and ideal_certificate_object(cert)),
                }
            )
    ctx = VariableContext.of("a", "b", "c", "d", "e", "f")
    memos: dict = {"direct": {}, "dual": {}}
    for _ in range(COMPLEXES):
        delta = random_complex(rng, ctx, 6)
        for mode in ("direct", "dual"):
            for k in (0, 1, 2):
                cert = k_decomposable_complex(delta, k, mode, memos[mode])
                records.append(
                    {
                        "input": emit_object(delta),
                        "k": k,
                        "mode": mode,
                        "certificate": _emit(
                            cert and complex_certificate_object(cert, ctx)
                        ),
                    }
                )
    return records


def test_certificates_match_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = golden_batch()
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"record {index} changed"
