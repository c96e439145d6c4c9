"""Seeded operation lists for the three benchmark workloads.

Every symbol is generated from its roots, ``f(z) = prod_i (1 - z / r_i)``, so
``a_0 = 1`` and the planted root counts are known.  The workload seed varies
only angles, signs and exact radii inside fixed root classes: it never changes
which classes are present, so the planted outcomes (exit codes, verdicts,
inversion sides) are the same for every seed.

An operation is either a ``shiftop`` subcommand, run in-process through
``shiftop.cli.main``, or a public library call (``process.wold_estimate``).
"""

from __future__ import annotations

import cmath
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ANALYZE_DIMS = (8, 32, 128, 512, 1024)
SIMULATE_T = 1_000_000
SIMULATE_MAX_LAG = 200
INVERT_EPS = 1e-10

VERDICT_INVERTIBLE = "Invertible"
VERDICT_BORDERLINE = "Borderline"
VERDICT_NON_INVERTIBLE = "NonInvertible"

EXIT_OK = 0
EXIT_BORDERLINE = 3
EXIT_TAIL_NOT_CERTIFIED = 4


@dataclass(frozen=True)
class Op:
    """One operation of a workload and the outcome its generator planted.

    ``argv`` is the CLI argument list without ``--out`` (empty for library
    calls).  ``expect`` always holds ``exit``; the other keys depend on
    ``kind``.
    """

    name: str
    kind: str
    coeffs: tuple[complex, ...]
    expect: dict
    argv: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)


def poly_from_roots(roots) -> tuple[complex, ...]:
    """Ascending coefficients of ``prod (1 - z / r)``."""
    coeffs = np.array([1 + 0j])
    for r in roots:
        coeffs = np.convolve(coeffs, [1, -1 / r])
    return tuple(complex(c) for c in coeffs)


def real_coeffs(coeffs) -> tuple[complex, ...]:
    """Drop the rounding-level imaginary parts of a conjugate-closed product."""
    for c in coeffs:
        if abs(c.imag) > 1e-12 * max(1.0, abs(c)):
            raise ValueError(f"coefficient {c} is not real")
    return tuple(complex(c.real) for c in coeffs)


def root_counts(roots) -> dict:
    inside = sum(1 for r in roots if abs(r) < 1 - 1e-6)
    on_circle = sum(1 for r in roots if abs(abs(r) - 1) <= 1e-6)
    outside = len(roots) - inside - on_circle
    if on_circle:
        verdict = VERDICT_BORDERLINE
    elif inside:
        verdict = VERDICT_NON_INVERTIBLE
    else:
        verdict = VERDICT_INVERTIBLE
    return {"inside": inside, "on_circle": on_circle, "outside": outside, "verdict": verdict}


def _polar(radius: float, angle: float) -> complex:
    return radius * cmath.exp(1j * angle)


def _angle(rng: random.Random) -> float:
    return rng.uniform(0.0, 2.0 * math.pi)


def _pair(rng: random.Random, lo: float, hi: float) -> list[complex]:
    """A conjugate root pair (real coefficients) at a seeded radius and angle."""
    r = _polar(rng.uniform(lo, hi), rng.uniform(0.3, math.pi - 0.3))
    return [r, r.conjugate()]


def _sign(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0))


def coeffs_document(coeffs) -> dict:
    """The CLI's JSON coefficient format for a causal symbol."""
    return {"offset": 0, "coeffs": [[c.real, c.imag] for c in coeffs]}


def inline_coeffs(coeffs) -> str:
    return ",".join(repr(c.real) for c in coeffs)


# -- analyze_dense ------------------------------------------------------------


def _analyze_classes(rng: random.Random) -> list[tuple[str, list[complex], tuple[complex, ...] | None]]:
    """(name, planted roots, exact coefficients or None) per root class."""
    # root exactly at z = 1 times a dyadic real factor: every coefficient and
    # every Horner partial sum at z = 1 is exact, so f(1) == 0.0 and the
    # circulant is singular at every N
    c = _sign(rng) * rng.randint(4, 12) / 16
    return [
        ("outside_d3", [_polar(rng.uniform(1.5, 2.5), _angle(rng)) for _ in range(3)], None),
        ("inside_half", [_polar(rng.uniform(0.5, 0.52), _angle(rng))], None),
        ("straddle_d2", [_polar(rng.uniform(0.6, 0.8), _angle(rng)),
                         _polar(rng.uniform(1.25, 1.6), _angle(rng))], None),
        ("mixed_d7", [_polar(rng.uniform(0.7, 0.9), _angle(rng)) for _ in range(3)]
                     + [_polar(rng.uniform(1.2, 2.5), _angle(rng)) for _ in range(4)], None),
        ("on_circle", [1 + 0j, complex(1 / c)], (1 + 0j, complex(-(1 + c)), complex(c))),
        ("inside_third", [_polar(rng.uniform(0.32, 0.35), _angle(rng))], None),
    ]


def _analyze_ops(rng: random.Random, inputs: Path) -> list[Op]:
    ops = []
    dims = ",".join(str(d) for d in ANALYZE_DIMS)
    for name, roots, exact in _analyze_classes(rng):
        coeffs = exact or poly_from_roots(roots)
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(coeffs_document(coeffs)))
        expect = {"exit": EXIT_OK, **root_counts(roots), "dims": list(ANALYZE_DIMS)}
        argv = ("analyze", "--coeffs-file", str(path), "--dims", dims)
        ops.append(Op(name, "analyze", coeffs, expect, argv))
    return ops


# -- near_circle --------------------------------------------------------------


def _near(rng: random.Random, delta: float, side: int) -> complex:
    """A root ``delta`` (jittered by 2%) outside (side=+1) or inside (-1) the circle."""
    return _polar(1 + side * delta * rng.uniform(0.98, 1.02), _angle(rng))


def _near_circle_ops(rng: random.Random, inputs: Path) -> list[Op]:
    classes = []
    for degree, deltas in ((1, (1e-3,)), (2, (3e-3, 1e-2)), (3, (3e-3, 5e-3, 1e-2))):
        for side, side_name in ((1, "causal"), (-1, "anticausal")):
            roots = [_near(rng, d, side) for d in deltas]
            expect = {"exit": EXIT_OK, "side": side_name, **root_counts(roots)}
            classes.append((f"{side_name}_d{degree}", roots, expect))
    on = [_polar(1.0, _angle(rng))]
    classes.append(("on_circle", on, {"exit": EXIT_BORDERLINE, **root_counts(on)}))
    # two roots 4e-4 outside: the geometric tail bound after 65536
    # coefficients is still of order 1, far above eps
    slow = [_near(rng, 4e-4, 1) for _ in range(2)]
    classes.append(("uncertified_d2", slow, {"exit": EXIT_TAIL_NOT_CERTIFIED, **root_counts(slow)}))
    ops = []
    for name, roots, expect in classes:
        coeffs = poly_from_roots(roots)
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(coeffs_document(coeffs)))
        argv = ("invert", "--coeffs-file", str(path), "--eps", repr(INVERT_EPS))
        ops.append(Op(name, "invert", coeffs, {**expect, "eps": INVERT_EPS}, argv))
    for theta in (0.97, 0.99, 0.999):
        coeffs = (1 + 0j, complex(_sign(rng) * theta))
        ops.append(_wold_op(f"wold_ma1_{theta}", coeffs))
    ma4 = real_coeffs(poly_from_roots(_pair(rng, 1.3, 2.0) + _pair(rng, 1.3, 2.0)))
    ops.append(_wold_op("wold_ma4", ma4))
    return ops


def autocovariance(coeffs) -> list[float]:
    """``gamma(k) = sum_j a_j a_{j+k}`` for unit innovation variance."""
    a = [c.real for c in coeffs]
    return [math.fsum(a[j] * a[j + k] for j in range(len(a) - k)) for k in range(len(a))]


def _wold_op(name: str, coeffs) -> Op:
    params = {"autocov": autocovariance(coeffs), "order": len(coeffs) - 1}
    expect = {"exit": EXIT_OK, "transfer": [c.real for c in coeffs], "sigma2": 1.0}
    return Op(name, "wold", tuple(coeffs), expect, params=params)


# -- simulate_export ----------------------------------------------------------


def _simulate_ops(rng: random.Random) -> list[Op]:
    classes = [
        ("invertible", _pair(rng, 1.5, 2.5) + [complex(_sign(rng) * rng.uniform(1.5, 3.0))],
         SIMULATE_MAX_LAG, "reconstruction.csv"),
        ("inside_root", [complex(_sign(rng) * rng.uniform(0.5, 0.8)),
                         complex(_sign(rng) * rng.uniform(1.5, 3.0))], None, "divergence.csv"),
        ("on_circle", _pair(rng, 1.0, 1.0), None, None),
    ]
    ops = []
    for name, roots, max_lag, table in classes:
        coeffs = real_coeffs(poly_from_roots(roots))
        seed = rng.randrange(1 << 32)
        argv = ["simulate", "--coeffs", inline_coeffs(coeffs), "--T", str(SIMULATE_T),
                "--seed", str(seed)]
        if max_lag is not None:
            argv += ["--max-lag", str(max_lag)]
        expect = {
            "exit": EXIT_OK,
            **root_counts(roots),
            "table": table,
            "seed": seed,
            "t_len": SIMULATE_T,
            "max_lag": 20 if max_lag is None else max_lag,
        }
        ops.append(Op(name, "simulate", coeffs, expect, tuple(argv)))
    return ops


WORKLOADS = ("analyze_dense", "near_circle", "simulate_export")

# Operations that fail their checks at the commit that introduced this
# benchmark (ROADMAP item 4), with the one failure each is known for.  They
# stay in the workloads and are counted as failures; a failure keeps a run
# correct only when every problem it has matches its pattern, so the same
# operation failing in any other way still marks the run incorrect.
KNOWN_DEFECTS = {
    "analyze_dense/on_circle": (
        "report.json holds bare Infinity for the singular circulant",
        r"report\.json is not strict JSON: non-RFC 8259 constant -?Infinity",
    ),
    "analyze_dense/inside_third": (
        "triangular inverse overflows at N=1024; exit 2 'SVD did not converge'",
        r"exit 2, planted 0 \(error: SVD did not converge\)",
    ),
}


def is_known_defect(op_id: str, problems: list[str]) -> bool:
    """True when every problem of the failed operation ``op_id`` is its known defect."""
    if op_id not in KNOWN_DEFECTS or not problems:
        return False
    pattern = KNOWN_DEFECTS[op_id][1]
    return all(re.fullmatch(pattern, p) for p in problems)


def build(workload: str, seed: int, inputs: Path) -> list[Op]:
    """The operation list of ``workload`` for ``seed``; input files go to ``inputs``."""
    rng = random.Random(f"{workload}/{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "analyze_dense":
        return _analyze_ops(rng, inputs)
    if workload == "near_circle":
        return _near_circle_ops(rng, inputs)
    if workload == "simulate_export":
        return _simulate_ops(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
