"""Independent output checks, one function per operation kind.

Each check compares what an operation wrote against what the workload
generator planted, using only numpy and the standard library, never shiftop
itself.  A check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import workloads

# relative agreement demanded of independently recomputed floats
REL_TOL = 1e-8
WOLD_TOL = 1e-6
# dimensions at which analyze's matrix norms are recomputed by SVD; the
# larger ones cost as much as the workload itself and are bracketed instead
RECHECK_DIMS = (8, 32, 128)


class StrictJSONError(ValueError):
    pass


def _reject_constant(name: str):
    raise StrictJSONError(f"non-RFC 8259 constant {name}")


def load_strict_json(path: Path):
    """Parse a JSON file per RFC 8259: ``Infinity``, ``-Infinity`` and ``NaN`` are errors."""
    return json.loads(path.read_bytes().decode("utf-8"), parse_constant=_reject_constant)


def _symbol_document_matches(document, coeffs) -> bool:
    return document == workloads.coeffs_document(coeffs)


def _roots_match(roots: dict, expect: dict) -> list[str]:
    problems = []
    for key in ("inside", "on_circle", "outside", "verdict"):
        if roots.get(key) != expect[key]:
            problems.append(f"roots.{key} is {roots.get(key)!r}, planted {expect[key]!r}")
    return problems


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


def _read_json(out: Path, name: str, problems: list[str]):
    """The parsed file, or None if missing or unparsable.

    A file that breaks only RFC 8259 (bare ``Infinity`` or ``NaN``) is one
    problem; its content is still parsed and checked, so further problems in
    the same file show.
    """
    path = out / name
    if not path.is_file():
        problems.append(f"{name} missing")
        return None
    try:
        return load_strict_json(path)
    except StrictJSONError as exc:
        problems.append(f"{name} is not strict JSON: {exc}")
    except (ValueError, UnicodeDecodeError) as exc:
        problems.append(f"{name} is not JSON: {exc}")
        return None
    return json.loads(path.read_bytes().decode("utf-8"))


def _lower_toeplitz(column: np.ndarray, dim: int) -> np.ndarray:
    """``dim x dim`` lower-triangular Toeplitz matrix with ``column[i - j]`` at ``(i, j)``."""
    col = np.zeros(dim, dtype=complex)
    col[: min(dim, len(column))] = column[:dim]
    lag = np.subtract.outer(np.arange(dim), np.arange(dim))
    return np.where(lag >= 0, col[np.maximum(lag, 0)], 0)


def _inverse_series(a: np.ndarray, length: int) -> np.ndarray:
    """First ``length`` power-series coefficients of ``1 / f`` for causal ``f`` with ``a_0 != 0``."""
    b = np.zeros(length, dtype=complex)
    b[0] = 1.0 / a[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, length):
            m = min(k, len(a) - 1)
            b[k] = -np.dot(a[1 : m + 1], b[k - 1 :: -1][:m]) / a[0]
    return b


def _l2(x: np.ndarray) -> float:
    """Euclidean norm without overflow in the squares."""
    scale = float(np.abs(x).max())
    return scale * float(np.linalg.norm(x / scale)) if 0 < scale < math.inf else scale


def _check_norms(a: np.ndarray, isometry: list, asymmetry: list) -> list[str]:
    """Compression and triangular-inverse norms against numpy alone.

    At every N: each norm lies between the l2 and l1 norms of its Toeplitz
    column (the inverse's column is the series of ``1/f``), both columns of
    norms are nondecreasing in N (each matrix is the leading block of the
    next), and ``cond_triangular`` is the product of the two norms.  At
    ``RECHECK_DIMS`` the norms are recomputed by SVD of the Toeplitz matrices.
    """
    problems = []
    norm = {row["N"]: row["norm"] for row in isometry}
    norm_inv = {row["N"]: row["norm_triangular_inverse"] for row in asymmetry}
    dims = sorted(norm)
    b = _inverse_series(a, dims[-1])
    for label, column, values in (("isometry", a, norm), ("triangular inverse", b, norm_inv)):
        for lo, hi in zip(dims, dims[1:]):
            if not values[hi] >= values[lo] * (1 - REL_TOL):
                problems.append(f"{label} norm falls from {values[lo]} at N={lo} to {values[hi]} at N={hi}")
        for n in dims:
            head = column[:n]
            low, high = _l2(head) * (1 - REL_TOL), float(np.abs(head).sum()) * (1 + REL_TOL)
            if np.all(np.isfinite(head)) and not low <= values[n] <= high:
                problems.append(f"{label} norm {values[n]} at N={n} outside its l2/l1 bracket")
            if n in RECHECK_DIMS:
                svd = float(np.linalg.svd(_lower_toeplitz(head, n), compute_uv=False)[0])
                if not math.isclose(values[n], svd, rel_tol=REL_TOL):
                    problems.append(f"{label} norm {values[n]} at N={n}, SVD gives {svd}")
    for row in asymmetry:
        n = row["N"]
        if n in norm and not math.isclose(row["cond_triangular"], norm[n] * norm_inv[n], rel_tol=REL_TOL):
            problems.append(f"asymmetry N={n}: cond_triangular {row['cond_triangular']} != norm * inverse norm")
    return problems


def check_analyze(op, out: Path) -> list[str]:
    problems: list[str] = []
    report = _read_json(out, "report.json", problems)
    if report is None:
        return problems
    expect = op.expect
    dims = expect["dims"]
    if not _symbol_document_matches(report.get("symbol"), op.coeffs):
        problems.append("report.json symbol differs from the input")
    problems += _roots_match(report.get("roots", {}), expect)

    a = np.array(op.coeffs, dtype=complex)
    l1 = float(np.abs(a).sum())
    sup = report.get("sup_norm")
    sup_bound = sup + report.get("sup_norm_grid_error_bound", 0.0)
    isometry = report.get("isometry", [])
    if [row.get("N") for row in isometry] != dims:
        problems.append("isometry rows do not match --dims")
    for row in isometry:
        # a compression of f(S) never exceeds the true sup norm of f
        if not row["norm"] <= sup_bound * (1 + REL_TOL):
            problems.append(f"isometry N={row['N']}: norm {row['norm']} above sup bound {sup_bound}")

    asymmetry = report.get("asymmetry", [])
    if [row.get("N") for row in asymmetry] != dims:
        problems.append("asymmetry rows do not match --dims")
    for row in asymmetry:
        n = row["N"]
        spectrum_min = float(np.abs(np.fft.fft(a, n)).min())
        reported = row.get("norm_circulant_inverse")
        if spectrum_min <= 1e-12 * l1:
            if not row.get("circulant_singular"):
                problems.append(f"asymmetry N={n}: circulant singular by FFT but not flagged")
        elif row.get("circulant_singular") or reported is None:
            problems.append(f"asymmetry N={n}: circulant flagged singular, FFT min {spectrum_min:.3g}")
        elif not math.isclose(reported, 1.0 / spectrum_min, rel_tol=REL_TOL):
            problems.append(
                f"asymmetry N={n}: circulant inverse norm {reported} != 1/min|fft(f)| {1.0 / spectrum_min}"
            )
        else:
            cond = float(np.abs(np.fft.fft(a, n)).max()) / spectrum_min
            if not math.isclose(row["cond_circulant"], cond, rel_tol=REL_TOL):
                problems.append(
                    f"asymmetry N={n}: cond_circulant {row['cond_circulant']} != max/min|fft(f)| {cond}"
                )
    if [row.get("N") for row in isometry] == dims == [row.get("N") for row in asymmetry]:
        problems += _check_norms(a, isometry, asymmetry)
    for name in ("isometry.csv", "asymmetry.csv"):
        path = out / name
        if not path.is_file():
            problems.append(f"{name} missing")
        elif len(_csv_rows(path)) != len(dims) + 1:
            problems.append(f"{name}: expected {len(dims)} rows")
    return problems


def _residual_l1(f: np.ndarray, g: np.ndarray, g_offset: int) -> float:
    """``l1(f * g - 1)`` for causal ``f`` (offset 0) and ``g`` at ``g_offset``."""
    product = np.convolve(f, g)
    zero = -g_offset  # index of z**0 in the product
    if 0 <= zero < len(product):
        product[zero] -= 1.0
        return float(np.abs(product).sum())
    return float(np.abs(product).sum()) + 1.0


def check_invert(op, out: Path) -> list[str]:
    problems: list[str] = []
    expect = op.expect
    if expect["exit"] != workloads.EXIT_OK:
        if (out / "inverse.json").exists():
            problems.append("inverse.json written although the inversion was refused")
        return problems
    doc = _read_json(out, "inverse.json", problems)
    if doc is None:
        return problems
    parsed = len(problems)
    if doc.get("side") != expect["side"]:
        problems.append(f"side {doc.get('side')!r}, planted {expect['side']!r}")
    if not _symbol_document_matches(doc.get("source"), op.coeffs):
        problems.append("inverse.json source differs from the input")
    g = np.array([complex(re, im) for re, im in doc.get("coeffs", [])], dtype=complex)
    length = doc.get("truncation_len")
    if length != len(g):
        problems.append(f"truncation_len {length} but {len(g)} coefficients stored")
    degree = len(op.coeffs) - 1
    want_offset = 0 if expect["side"] == "causal" else -degree - len(g) + 1
    if doc.get("offset") != want_offset:
        problems.append(f"offset {doc.get('offset')}, expected {want_offset}")
    tail = doc.get("tail_bound")
    if doc.get("eps") != expect["eps"] or not (isinstance(tail, float) and tail <= expect["eps"]):
        problems.append(f"tail_bound {tail} does not certify eps {expect['eps']}")
    if len(problems) > parsed:
        return problems
    f = np.array(op.coeffs, dtype=complex)
    residual = _residual_l1(f, g, doc["offset"])
    limit = tail * float(np.abs(f).sum())
    if not residual <= limit:
        problems.append(f"l1(f*g - 1) = {residual:.3e} exceeds tail_bound * l1(f) = {limit:.3e}")
    return problems


def _ergodic_ladder(t_len: int) -> list[int]:
    return sorted({max(1, t_len // 64), max(1, t_len // 16), max(1, t_len // 4), t_len})


def check_simulate(op, out: Path) -> list[str]:
    problems: list[str] = []
    expect = op.expect
    meta = _read_json(out, "metadata.json", problems)
    if meta is None:
        return problems
    for key in ("seed", "t_len", "max_lag"):
        if meta.get(key) != expect[key]:
            problems.append(f"metadata {key} {meta.get(key)!r}, expected {expect[key]!r}")
    if meta.get("verdict") != expect["verdict"]:
        problems.append(f"verdict {meta.get('verdict')!r}, planted {expect['verdict']!r}")
    files = ["sample.csv", "ergodicity.csv", "metadata.json"]
    if expect["table"] is not None:
        files.insert(1, expect["table"])
    if meta.get("files") != files or sorted(p.name for p in out.iterdir()) != sorted(files):
        problems.append(f"files {sorted(p.name for p in out.iterdir())}, expected {files}")
        return problems

    with (out / "sample.csv").open() as fh:
        header = fh.readline().strip()
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    t_len = expect["t_len"]
    if header != "t,X_t,eps_t" or table.shape != (t_len, 3):
        problems.append(f"sample.csv: header {header!r}, shape {table.shape}")
        return problems
    if not np.array_equal(table[:, 0], np.arange(t_len)):
        problems.append("sample.csv: t column is not 0..T-1")
    a = np.array([c.real for c in op.coeffs])
    q = len(a) - 1
    path, eps = table[:, 1], table[:, 2]
    # X_t = sum_j a_j eps_{t-j} wherever every eps_{t-j} is in the file
    predicted = np.convolve(eps, a)[q:t_len]
    err = float(np.max(np.abs(path[q:] - predicted)))
    scale = float(np.abs(a).sum() * np.max(np.abs(eps)))
    if not err <= 1e-13 * scale:
        problems.append(f"sample.csv: X_t deviates from sum a_j eps_(t-j) by {err:.3e}")

    ladder = [int(row[0]) for row in _csv_rows(out / "ergodicity.csv")[1:]]
    if ladder != _ergodic_ladder(t_len):
        problems.append(f"ergodicity.csv: T column {ladder}")
    if expect["table"] is not None:
        rows = _csv_rows(out / expect["table"])[1:]
        lags = [int(r[0]) for r in rows]
        mse = [float(r[1]) for r in rows]
        if lags != list(range(expect["max_lag"] + 1)):
            problems.append(f"{expect['table']}: M column is not 0..{expect['max_lag']}")
        elif expect["table"] == "reconstruction.csv" and not mse[-1] <= 1e-8 * mse[0]:
            problems.append(f"reconstruction.csv: MSE {mse[-1]:.3e} at M={lags[-1]} did not reach the floor")
        elif expect["table"] == "divergence.csv" and not mse[-1] > mse[0]:
            problems.append("divergence.csv: MSE does not grow with the cutoff")
    return problems


def check_wold(op, value) -> list[str]:
    expect = op.expect
    problems = []
    got = value["transfer"]
    if value["offset"] != 0 or len(got) != len(expect["transfer"]):
        return [f"transfer has offset {value['offset']} and {len(got)} coefficients"]
    err = max(abs(x - y) for x, y in zip(got, expect["transfer"]))
    if not err <= WOLD_TOL:
        problems.append(f"transfer coefficients off by {err:.3e}")
    if not abs(value["sigma2"] - expect["sigma2"]) <= WOLD_TOL * expect["sigma2"]:
        problems.append(f"sigma2 {value['sigma2']!r}, planted {expect['sigma2']!r}")
    return problems


CHECKS = {"analyze": check_analyze, "invert": check_invert, "simulate": check_simulate}


def check_op(op, record: dict, out: Path) -> list[list[str]]:
    """Problems per pass for one operation; content is checked on the last pass.

    Every pass must exit as planted and leave byte-identical output to the
    last pass, so a content check of the last pass covers every pass.
    """
    passes = len(record["exit"])
    content: list[str] = []
    if record["exit"][-1] == op.expect["exit"]:
        try:
            if op.kind == "wold":
                content = check_wold(op, record["value"])
            else:
                content = CHECKS[op.kind](op, out)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            content = [f"malformed output: {exc!r}"]
    said = record["output"].strip().splitlines()[-1:]  # last line of the last pass
    per_pass = []
    for i in range(passes):
        problems = []
        if record["exit"][i] != op.expect["exit"]:
            problems.append(f"exit {record['exit'][i]}, planted {op.expect['exit']} ({' '.join(said)})")
        elif record["digest"][i] != record["digest"][-1]:
            problems.append("output differs from the rerun in the last pass")
        per_pass.append(problems or content)
    return per_pass
