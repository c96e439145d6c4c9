"""Command line front end: analyze, invert, and simulate subcommands.

Every command reads a symbol either from ``--coeffs`` (inline, real,
comma-separated, ascending powers from z^0) or from ``--coeffs-file`` (the
JSON coefficient format, which also carries offsets and imaginary parts),
writes machine-readable reports under ``--out``, and echoes a short human
summary.  This module alone lays out the output files; only ``sample.csv``
has its own encoder, :func:`shiftop.process.sample_to_csv`, which streams it
to disk a row block at a time.  Every file is written to ``<name>.tmp`` and
renamed over ``<name>`` once complete; a write that fails removes its temp
file and leaves an existing ``<name>`` as it was.  Reruns with
identical configuration produce byte-identical files: floats are pinned to
17 significant digits in CSV cells, JSON numbers use exact round-trip repr
(the floats of an array are formatted by array operations, byte for byte as
``repr`` writes them), and all randomness is keyed by the seed.  JSON is strict (RFC 8259): a value
with no finite float is ``null``, and a norm past float max is a decimal
literal with 17 significant digits.

Exit codes: 0 success, 2 invalid input, 3 borderline symbol (a root on the
circle within ``--tol``), 4 truncation tail not certified, 5 numerical
failure (a linear algebra routine, such as the eigenvalue solver behind the
root classification, failed on valid input, or a scaling overflowed, as for
a root of subnormal modulus).  An input too large to allocate (numpy's
``MemoryError``, as for ``analyze --grid 1125899906842624``) exits 2.  No
file is written on a nonzero exit.  The commands raise their failures;
``_exits``, the wrapper every command runs in, is the one place that maps
them to exit codes.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import click
import numpy as np

from . import __version__, invertibility, operators, process, wiener
from ._digits import _CELL_WORDS, _repr_cells
from .invertibility import (
    InversionSide,
    TailNotCertifiedError,
    Verdict,
    WideFloat,
)
from .wiener import WienerElement

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_BORDERLINE = 3
EXIT_TAIL_NOT_CERTIFIED = 4
EXIT_NUMERICAL_FAILURE = 5


def _parse_inline_coeffs(text: str) -> WienerElement:
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(p == "" for p in parts):
        raise ValueError("--coeffs: expected comma-separated numbers")
    values = []
    for i, p in enumerate(parts):
        try:
            value = float(p)
        except ValueError:
            raise ValueError(f"--coeffs: field {i} ({p!r}) is not a number") from None
        if not math.isfinite(value):
            raise ValueError(f"--coeffs: field {i} ({p!r}) is not finite")
        values.append(value)
    return WienerElement(values)


def _resolve_symbol(coeffs: str | None, coeffs_file: str | None) -> WienerElement:
    if (coeffs is None) == (coeffs_file is None):
        raise ValueError("provide exactly one of --coeffs or --coeffs-file")
    if coeffs is not None:
        return _parse_inline_coeffs(coeffs)
    try:
        return wiener.load_coefficients(coeffs_file)
    except OSError as exc:
        raise ValueError(f"--coeffs-file: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"--coeffs-file {coeffs_file}: {exc}") from None


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise ValueError(f"--dims: expected comma-separated integers, got {text!r}") from None
    if not dims:
        raise ValueError("--dims: at least one dimension required")
    return dims


def _eps_option(ctx, param, value: float) -> float:
    """Reject an ``--eps`` no tail bound can honestly certify, before any work."""
    try:
        return invertibility._checked_eps(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None


@contextlib.contextmanager
def _replacing(path: Path):
    """A binary file that replaces ``path`` when the ``with`` body completes.

    It is ``<name>.tmp`` until then; if the body raises, the temp file is
    removed and ``path`` keeps its bytes.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` through a temporary file."""
    with _replacing(path) as handle:
        handle.write(text.encode())


def _csv_text(header: str, rows) -> str:
    """``header`` and one line per row: an int cell by ``str``, a float by
    ``format(x, ".17g")``, a :class:`WideFloat` by ``.text()``."""

    def cell(x) -> str:
        if isinstance(x, WideFloat):
            return x.text()
        return format(x, ".17g") if isinstance(x, float) else str(x)

    return "\n".join([header, *(",".join(map(cell, row)) for row in rows)]) + "\n"


def _json_text(document) -> str:
    """``json.dumps(document, indent=2, allow_nan=False)`` and a newline, byte for byte.

    Strict JSON (RFC 8259): NaN or infinity raises ``ValueError``.  Besides
    the JSON types (``dict`` with ``str`` keys, ``list``, ``tuple``, ``str``,
    ``int``, ``float``, ``bool`` and ``None``) it writes a :class:`WideFloat`
    as its float, or past float max as its decimal literal, and a 1-D
    complex ndarray as a list of (real part, imaginary part) pairs.
    """
    parts: list[str] = []
    _encode(document, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _encode(value, newline: str, parts: list[str]) -> None:
    """Append the text of ``value`` to ``parts``; ``newline`` opens a line at its depth."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        parts.append(float.__repr__(value))
    elif isinstance(value, WideFloat):
        number = float(value)
        parts.append(value.text() if math.isinf(number) else float.__repr__(number))
    elif isinstance(value, np.ndarray):
        parts.append(_pairs_text(value, newline))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        parts.append("[")
        for item in value:
            parts.append(inner)
            _encode(item, inner, parts)
            parts.append(",")
        parts[-1] = newline + "]"
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        parts.append("{")
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(f"{inner}{encode_basestring_ascii(key)}: ")
            _encode(item, inner, parts)
            parts.append(",")
        parts[-1] = newline + "}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# -- JSON numbers by array operations ---------------------------------------------

# A complex array is written _PAIR_BLOCK values at a time, so its encoding
# temporaries stay a fixed size however long the array is.
_PAIR_BLOCK = 2048


def _pairs_text(values: np.ndarray, newline: str) -> str:
    """A 1-D complex array as a list of (real, imaginary) pairs, as ``json.dumps`` writes it.

    Each float is the text of ``float.__repr__``, in a cell from
    :func:`shiftop._digits._repr_cells`, the layouter of ``sample.csv``'s cells
    too.  Each block of ``_PAIR_BLOCK`` pairs is laid out as rows of words, one
    pair ``{inner}[{inner}  X,{inner}  Y{inner}]`` per row with the cells of X
    and Y in place and NUL padding that ``bytes.translate`` drops, so the
    encoding temporaries do not grow with the array.
    """
    if values.ndim != 1 or values.dtype != complex:
        raise TypeError(f"expected a 1-D complex array, got {values.dtype} of shape {values.shape}")
    if not len(values):
        return "[]"
    if not np.all(np.isfinite(values)):
        raise ValueError("Out of range float values are not JSON compliant")
    inner = newline + "  "
    segments = [
        np.frombuffer(part.encode().ljust(-(-len(part) // 8) * 8, b"\0"), dtype="<u8")
        for part in (f",{inner}[{inner}  ", f",{inner}  ", f"{inner}]")
    ]
    blank = np.zeros(_CELL_WORDS, dtype="<u8")
    template = np.concatenate([segments[0], blank, segments[1], blank, segments[2]])
    x = len(segments[0])
    y = x + _CELL_WORDS + len(segments[1])
    floats = np.ascontiguousarray(values).view(float)
    # one growing buffer: block strings kept in a list interleave with the
    # block temporaries on the heap, and the peak RSS creeps up pass by pass
    text = bytearray(b"[")
    for start in range(0, len(floats), 2 * _PAIR_BLOCK):
        cells = _repr_cells(floats[start : start + 2 * _PAIR_BLOCK]).reshape(-1, 2 * _CELL_WORDS)
        rows = np.empty((len(cells), len(template)), dtype="<u8")
        rows[:] = template
        rows[:, x : x + _CELL_WORDS] = cells[:, :_CELL_WORDS]
        rows[:, y : y + _CELL_WORDS] = cells[:, _CELL_WORDS:]
        if not start:
            rows.view(np.uint8)[0, 0] = 0  # no ',' before the first pair
        text += rows.tobytes().translate(None, b"\0")
    text += (newline + "]").encode()
    return text.decode("ascii")


def _invert(f: WienerElement, side: InversionSide, eps: float):
    """The certified inverse on ``side``; both routines are looked up on the
    module at call time, so a rebound attribute is the one called."""
    if side is InversionSide.CAUSAL:
        return invertibility.invert_causal(f, eps=eps)
    return invertibility.invert_anticausal(f, eps=eps)


def _inversion_block(f: WienerElement, classification, eps: float):
    """Inverse coefficients for the analyze report, when one side applies."""
    side = classification.side
    if side is None:
        return {"available": False, "reason": f"verdict {classification.verdict.value}"}
    try:
        result = _invert(f, side, eps)
    except TailNotCertifiedError as exc:
        bound = exc.achieved_bound
        return {
            "available": False,
            "reason": f"tail not certified within {exc.max_len} coefficients",
            # the bound itself overflows for a high degree near the circle
            "achieved_bound": bound if math.isfinite(bound) else None,
        }
    except np.linalg.LinAlgError:  # a numerical failure, not a missing inverse: exit 5
        raise
    except ValueError as exc:  # inverse coefficients past float max
        return {"available": False, "reason": str(exc)}
    return {
        "available": True,
        "side": result.side.value,
        "offset": result.inverse.offset,
        "coeffs": result.inverse.to_array(),
        "truncation_len": result.truncation_len,
        "tail_bound": result.tail_bound,
    }


def cmd_analyze(
    f: WienerElement, dims: tuple[int, ...], grid_size: int, tol: float, eps: float, out: Path
) -> int:
    """Root classification, norms, isometry sweep, and asymmetry report."""
    dims = operators.isometry_dims(dims)
    classification = invertibility.classify_roots(f, tol)
    l1 = wiener.l1_norm(f)
    if math.isinf(l1):
        raise ValueError("coefficients too large: their l1 norm overflows")
    sup = wiener.sup_norm(f, grid_size)
    grid_error = wiener.sup_norm_grid_error(f, grid_size)
    if math.isinf(grid_error):
        raise ValueError("coefficients too large: the sup norm's grid error bound overflows")
    asym = invertibility.asymmetry_report(f, dims, classification, sup=sup)
    inversion = _inversion_block(f, classification, eps)
    # the isometry sweep's norms are the asymmetry rows' ||T_N(f)||
    sweep = operators.isometry_rows(dims, [r.norm_triangular for r in asym], sup)
    report = {
        "symbol": wiener.to_json_dict(f),
        "l1_norm": l1,
        "sup_norm": sup,
        "grid_size": grid_size,
        "sup_norm_grid_error_bound": grid_error,
        "roots": {
            "values": np.asarray(classification.roots, dtype=complex),
            "inside": classification.inside,
            "on_circle": classification.on_circle,
            "outside": classification.outside,
            "tol": classification.tol,
            "verdict": classification.verdict.value,
        },
        "inversion": inversion,
        "isometry": [
            {"N": r.dim, "norm": r.norm, "gap": r.gap} for r in sweep
        ],
        "asymmetry": [
            {
                "N": r.dim,
                # a singular circulant has no inverse norm: null, and the flag
                "norm_circulant_inverse": r.wide_norm_circulant_inverse,
                "norm_triangular_inverse": r.wide_norm_triangular_inverse,
                "cond_circulant": None if r.circulant_singular else r.cond_circulant,
                "cond_triangular": r.wide_cond_triangular,
                "circulant_singular": r.circulant_singular,
            }
            for r in asym
        ],
    }
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "report.json", _json_text(report))
    _write_text(
        out / "isometry.csv",
        _csv_text("N,norm,gap", [(r.dim, r.norm, r.gap) for r in sweep]),
    )
    # a missing inverse norm (singular matrix) reads inf where report.json has null
    asym_rows = [
        (r.dim, r.wide_norm_circulant_inverse, r.wide_norm_triangular_inverse,
         r.cond_circulant, r.wide_cond_triangular)
        for r in asym
    ]
    asym_rows = [[math.inf if x is None else x for x in row] for row in asym_rows]
    _write_text(
        out / "asymmetry.csv",
        _csv_text(
            "N,norm_circulant_inverse,norm_triangular_inverse,cond_circulant,cond_triangular",
            asym_rows,
        ),
    )
    click.echo(
        f"verdict {classification.verdict.value}: "
        f"{classification.inside} inside / {classification.on_circle} on / "
        f"{classification.outside} outside the circle"
    )
    click.echo(f"l1 norm {l1:.6g}, sup norm {sup:.6g} on {grid_size} grid points")
    click.echo(
        f"compression norm at N={sweep[-1].dim}: {sweep[-1].norm:.6g} (gap {sweep[-1].gap:.6g})"
    )
    click.echo(f"wrote report.json, isometry.csv, asymmetry.csv to {out}")
    return EXIT_OK


def cmd_invert(f: WienerElement, side: str, tol: float, eps: float, out: Path) -> int:
    """Certified truncated inverse on the causal or anticausal side."""
    classification = invertibility.classify_roots(f, tol)
    if classification.on_circle > 0:
        click.echo(
            "borderline symbol: a root lies on the unit circle within "
            f"tol {classification.tol:.6g}; no summable inverse on either side",
            err=True,
        )
        return EXIT_BORDERLINE
    side = classification.side if side == "auto" else InversionSide(side)
    if side is None:
        click.echo(
            "error: roots on both sides of the circle "
            f"({classification.inside} inside, {classification.outside} outside); "
            "no one-sided inverse exists",
            err=True,
        )
        return EXIT_INPUT_ERROR
    try:
        result = _invert(f, side, eps)
    except TailNotCertifiedError as exc:
        click.echo(
            f"tail not certified: bound {exc.achieved_bound:.6g} after "
            f"{exc.max_len} coefficients still exceeds eps {eps:.6g}",
            err=True,
        )
        return EXIT_TAIL_NOT_CERTIFIED
    document = {
        "offset": result.inverse.offset,
        "coeffs": result.inverse.to_array(),
        "side": result.side.value,
        "truncation_len": result.truncation_len,
        "tail_bound": result.tail_bound,
        "eps": eps,
        "source": wiener.to_json_dict(f),
    }
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "inverse.json", _json_text(document))
    click.echo(
        f"{result.side.value} inverse, {result.truncation_len} coefficients, "
        f"tail bound {result.tail_bound:.6g}"
    )
    click.echo(f"wrote inverse.json to {out}")
    return EXIT_OK


def _ergodic_ladder(t_len: int) -> list[int]:
    return sorted({max(1, t_len // 64), max(1, t_len // 16), max(1, t_len // 4), t_len})


def cmd_simulate(
    f: WienerElement, t_len: int, seed: int, sigma: float, max_lag: int, tol: float, out: Path
) -> int:
    """Sample a path and report reconstruction (or divergence) and ergodicity."""
    # short paths cannot support the full requested ladder
    max_lag = min(int(max_lag), t_len - 1)
    # the check's paths are dropped before the exported sample is drawn, so
    # no two long paths are held at once; every draw starts a fresh
    # generator from its own seed, so the order moves no output byte
    ergodic_rows = process.ergodic_mean_check(f, sigma, _ergodic_ladder(t_len), seed)
    sample = process.simulate(f, sigma, t_len, seed)
    classification = invertibility.classify_roots(f, tol)
    verdict = classification.verdict
    table_name = None
    if verdict is not Verdict.BORDERLINE and max_lag >= 1:
        report = process.formal_reconstruction(sample, max_lag)
        # a diverging ladder ends at its last finite MSE
        max_lag = report.lag_cutoff
        invertible = verdict is Verdict.INVERTIBLE
        table_name = "reconstruction.csv" if invertible else "divergence.csv"
    files = ["sample.csv", "ergodicity.csv", "metadata.json"]
    if table_name is not None:
        files.insert(1, table_name)
    # seed and generator provenance: enough to replay the sample
    metadata = {
        "seed": sample.seed,
        "generator": process.GENERATOR_NAME,
        "numpy_version": np.__version__,
        "sigma": sample.sigma,
        "t_len": sample.t_len,
        "warmup": sample.warmup,
        "transfer": wiener.to_json_dict(sample.transfer),
        "verdict": verdict.value,
        "max_lag": max_lag,
        "files": files,
    }
    out.mkdir(parents=True, exist_ok=True)
    with _replacing(out / "sample.csv") as handle:
        process.sample_to_csv(sample, handle)
    _write_text(
        out / "ergodicity.csv",
        _csv_text(
            "T,abs_mean,predicted_std",
            [(r.t_len, r.abs_mean, r.predicted_std) for r in ergodic_rows],
        ),
    )
    if table_name is not None:
        _write_text(out / table_name, _csv_text("M,mse", report.mse_per_cutoff))
    _write_text(out / "metadata.json", _json_text(metadata))
    click.echo(
        f"simulated {t_len} steps (seed {seed}, sigma {sigma:.6g}), verdict {verdict.value}"
    )
    if verdict is Verdict.BORDERLINE:
        click.echo("no reconstruction table: symbol sits on the invertibility boundary")
    elif table_name is None:
        click.echo(
            f"no reconstruction table: max lag {max_lag} (at most T - 1 = {t_len - 1}) "
            "leaves no cutoff M >= 1"
        )
    else:
        m, mse = report.mse_per_cutoff[-1]
        what = "reconstruction" if invertible else "divergent reconstruction:"
        click.echo(f"{what} MSE at M={m}: {mse:.6g}")
    click.echo(f"wrote {', '.join(files)} to {out}")
    return EXIT_OK


# -- click wiring -----------------------------------------------------------


def _exits(command):
    """Exit with the code ``command`` returns, or with the code of its failure.

    The one map from failures to exit codes: a ``ValueError`` is invalid
    input and exits 2.  numpy's ``LinAlgError`` subclasses ``ValueError`` but
    means a numerical routine failed on valid input, so it exits 5; so does a
    ``FloatingPointError``, a scaling that overflows or underflows on valid
    input.  A ``MemoryError``, an input too large to allocate, exits 2.
    """

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            code = command(*args, **kwargs)
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            code = EXIT_NUMERICAL_FAILURE
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            code = EXIT_INPUT_ERROR
        except MemoryError as exc:
            click.echo(f"error: not enough memory for this input: {exc}", err=True)
            code = EXIT_INPUT_ERROR
        sys.exit(code)

    return run


def _symbol_options(fn):
    fn = click.option("--coeffs", default=None, help="Inline real coefficients, e.g. '1,-0.5'.")(fn)
    fn = click.option(
        "--coeffs-file",
        default=None,
        type=click.Path(),
        help="JSON coefficient file {offset, coeffs: [[re, im], ...]}.",
    )(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="shiftop")
def main():
    """Shift-operator truncations of transfer symbols on the unit circle."""


@main.command("analyze")
@_symbol_options
@click.option("--dims", default="4,16,64,256", show_default=True, help="Truncation dimensions.")
@click.option("--grid", default=1 << 16, show_default=True, help="Circle grid size for sup norm.")
@click.option("--tol", default=invertibility.DEFAULT_ROOT_TOL, show_default=True, help="Root classification tolerance.")
@click.option("--eps", default=invertibility.DEFAULT_EPS, show_default=True, callback=_eps_option, help="Inverse tail certification target.")
@click.option("--out", default="shiftop-out", show_default=True, type=click.Path(), help="Output directory.")
@_exits
def analyze_command(coeffs, coeffs_file, dims, grid, tol, eps, out):
    """Classify roots, measure norms, and tabulate truncation behavior."""
    return cmd_analyze(
        _resolve_symbol(coeffs, coeffs_file), _parse_dims(dims), grid, tol, eps, Path(out)
    )


@main.command("invert")
@_symbol_options
@click.option(
    "--side",
    default="auto",
    show_default=True,
    type=click.Choice(["auto", "causal", "anticausal"]),
    help="Which one-sided inverse to compute.",
)
@click.option("--tol", default=invertibility.DEFAULT_ROOT_TOL, show_default=True, help="Root classification tolerance.")
@click.option("--eps", default=invertibility.DEFAULT_EPS, show_default=True, callback=_eps_option, help="Tail certification target.")
@click.option("--out", default="shiftop-out", show_default=True, type=click.Path(), help="Output directory.")
@_exits
def invert_command(coeffs, coeffs_file, side, tol, eps, out):
    """Write a certified truncated inverse as a JSON coefficient file."""
    return cmd_invert(_resolve_symbol(coeffs, coeffs_file), side, tol, eps, Path(out))


@main.command("simulate")
@_symbol_options
@click.option(
    "--T", "t_len", default=10_000, show_default=True, type=click.IntRange(min=1), help="Path length."
)
@click.option(
    "--seed",
    default=0,
    show_default=True,
    type=click.IntRange(min=0),
    help="PRNG seed.",
)
@click.option("--sigma", default=1.0, show_default=True, help="Innovation standard deviation.")
@click.option(
    "--max-lag",
    default=20,
    show_default=True,
    type=click.IntRange(min=0),
    help="Largest reconstruction cutoff.",
)
@click.option("--tol", default=invertibility.DEFAULT_ROOT_TOL, show_default=True, help="Root classification tolerance.")
@click.option("--out", default="shiftop-out", show_default=True, type=click.Path(), help="Output directory.")
@_exits
def simulate_command(coeffs, coeffs_file, t_len, seed, sigma, max_lag, tol, out):
    """Simulate a moving-average path and its reconstruction diagnostics."""
    f = _resolve_symbol(coeffs, coeffs_file)
    return cmd_simulate(f, t_len, seed, sigma, max_lag, tol, Path(out))


if __name__ == "__main__":
    main()
