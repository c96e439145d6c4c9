"""Command line front end: analyze, invert, and simulate subcommands.

Every command reads a symbol either from ``--coeffs`` (inline, real,
comma-separated, ascending powers from z^0) or from ``--coeffs-file`` (the
JSON coefficient format, which also carries offsets and imaginary parts),
writes machine-readable reports under ``--out``, and echoes a short human
summary.  Reruns with identical configuration produce byte-identical files:
floats are pinned to 17 significant digits in CSV cells, JSON numbers use
exact round-trip repr, and all randomness is keyed by the seed.  JSON is
strict (RFC 8259): a value with no finite float is ``null``, and a norm past
float max is a decimal literal with 17 significant digits.

Exit codes: 0 success, 2 invalid input, 3 borderline symbol (root on the
circle), 4 truncation tail not certified.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import click

from . import __version__, invertibility, operators, process, wiener
from .invertibility import (
    InversionSide,
    NotInvertibleError,
    TailNotCertifiedError,
    Verdict,
    WideFloat,
)
from .wiener import WienerElement

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_BORDERLINE = 3
EXIT_TAIL_NOT_CERTIFIED = 4

# Truncation cap for CLI inversions; certification failures exit with code 4.
INVERT_MAX_LEN = 65536

SEED_ENV_VAR = "SHIFTOP_SEED"


class InputError(ValueError):
    """Invalid command input; maps to exit code 2."""


@dataclass(frozen=True)
class AnalysisConfig:
    """Resolved inputs shared by the subcommands."""

    coeffs: WienerElement
    dims: tuple[int, ...] = (4, 16, 64, 256)
    grid_size: int = 1 << 16
    tol: float = invertibility.DEFAULT_ROOT_TOL
    eps: float = 1e-10
    seed: int = 0
    sigma: float = 1.0
    t_len: int = 10_000
    out_dir: Path = Path("shiftop-out")


def _parse_inline_coeffs(text: str) -> WienerElement:
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(p == "" for p in parts):
        raise InputError("--coeffs: expected comma-separated numbers")
    values = []
    for i, p in enumerate(parts):
        try:
            values.append(float(p))
        except ValueError:
            raise InputError(f"--coeffs: field {i} ({p!r}) is not a number") from None
    return WienerElement(tuple(complex(v) for v in values))


def _load_coeffs_file(path: str) -> WienerElement:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"--coeffs-file: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"--coeffs-file {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    try:
        return wiener.from_json_dict(data)
    except ValueError as exc:
        raise InputError(f"--coeffs-file {path}: {exc}") from None


def _resolve_symbol(coeffs: str | None, coeffs_file: str | None) -> WienerElement:
    if (coeffs is None) == (coeffs_file is None):
        raise InputError("provide exactly one of --coeffs or --coeffs-file")
    if coeffs is not None:
        return _parse_inline_coeffs(coeffs)
    return _load_coeffs_file(coeffs_file)


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise InputError(f"--dims: expected comma-separated integers, got {text!r}") from None
    if not dims:
        raise InputError("--dims: at least one dimension required")
    return dims


def _resolve_seed(seed: int) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is None or env == "":
        return seed
    try:
        return int(env)
    except ValueError:
        raise InputError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _write_text(path: Path, text: str | bytes | bytearray) -> None:
    """Write ``text`` through a temporary file; bytes-like content goes out as is."""
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(text, str):
        tmp.write_text(text)
    else:
        tmp.write_bytes(text)
    os.replace(tmp, path)


# a WideFloat past float max goes through json.dumps as this prefix plus its
# decimal literal, and the quoted string is then replaced by the bare literal
_LITERAL_MARK = "\0"
_LITERAL_STRING = re.compile(r'"\\u0000([^"]*)"')


def _literal_placeholder(value):
    if isinstance(value, WideFloat):
        return _LITERAL_MARK + value.text()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json_text(document) -> str:
    """Strict JSON (RFC 8259): NaN or infinity raises ``ValueError``.

    A :class:`WideFloat` in ``document`` is written as its decimal literal,
    a JSON number even past float max.
    """
    text = json.dumps(document, indent=2, allow_nan=False, default=_literal_placeholder)
    return _LITERAL_STRING.sub(r"\1", text) + "\n"


def _json_number(wide: WideFloat | None):
    """``null`` for no value, the float within float range, else the literal."""
    if wide is None or math.isinf(float(wide)):
        return wide
    return float(wide)


def _complex_pairs(values) -> list[list[float]]:
    return [[complex(v).real, complex(v).imag] for v in values]


def _inversion_block(f: WienerElement, classification, eps: float):
    """Inverse coefficients for the analyze report, when one side applies."""
    verdict = classification.verdict
    if verdict is Verdict.INVERTIBLE:
        side = InversionSide.CAUSAL
    elif (
        classification.on_circle == 0
        and classification.outside == 0
        and f.degree >= 1
    ):
        side = InversionSide.ANTICAUSAL
    else:
        return {"available": False, "reason": f"verdict {verdict.value}"}
    try:
        if side is InversionSide.CAUSAL:
            result = invertibility.invert_causal(f, INVERT_MAX_LEN, eps)
        else:
            result = invertibility.invert_anticausal(f, INVERT_MAX_LEN, eps)
    except TailNotCertifiedError as exc:
        bound = exc.achieved_bound
        return {
            "available": False,
            "reason": f"tail not certified within {INVERT_MAX_LEN} coefficients",
            # the bound itself overflows for a high degree near the circle
            "achieved_bound": bound if math.isfinite(bound) else None,
        }
    except ValueError as exc:  # inverse coefficients past float max
        return {"available": False, "reason": str(exc)}
    return {
        "available": True,
        "side": result.side.value,
        "offset": result.inverse.offset,
        "coeffs": _complex_pairs(result.inverse.coeffs),
        "truncation_len": result.truncation_len,
        "tail_bound": result.tail_bound,
    }


def cmd_analyze(config: AnalysisConfig) -> int:
    """Root classification, norms, isometry sweep, and asymmetry report."""
    f = config.coeffs
    try:
        dims = operators.isometry_dims(config.dims)
        classification = invertibility.classify_roots(f, config.tol)
        l1 = wiener.l1_norm(f)
        if math.isinf(l1):
            raise ValueError("coefficients too large: their l1 norm overflows")
        sup = wiener.sup_norm(f, config.grid_size)
        asym = invertibility.asymmetry_report(f, dims)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_INPUT_ERROR
    # the isometry sweep's norms are the asymmetry rows' ||T_N(f)||
    sweep = operators.isometry_rows(dims, [r.norm_triangular for r in asym], sup)
    report = {
        "symbol": wiener.to_json_dict(f),
        "l1_norm": l1,
        "sup_norm": sup,
        "grid_size": config.grid_size,
        "sup_norm_grid_error_bound": wiener.sup_norm_grid_error(f, config.grid_size),
        "roots": {
            "values": _complex_pairs(classification.roots),
            "inside": classification.inside,
            "on_circle": classification.on_circle,
            "outside": classification.outside,
            "tol": classification.tol,
            "verdict": classification.verdict.value,
        },
        "inversion": _inversion_block(f, classification, config.eps),
        "isometry": [
            {"N": r.dim, "norm": r.norm, "gap": r.gap} for r in sweep
        ],
        "asymmetry": [
            {
                "N": r.dim,
                # a singular circulant has no inverse norm: null, and the flag
                "norm_circulant_inverse": _json_number(r.wide_norm_circulant_inverse),
                "norm_triangular_inverse": _json_number(r.wide_norm_triangular_inverse),
                "cond_circulant": None if r.circulant_singular else r.cond_circulant,
                "cond_triangular": _json_number(r.wide_cond_triangular),
                "circulant_singular": r.circulant_singular,
            }
            for r in asym
        ],
    }
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "report.json", _json_text(report))
    _write_text(out / "isometry.csv", operators.isometry_csv(sweep))
    _write_text(out / "asymmetry.csv", invertibility.asymmetry_csv(asym))
    click.echo(
        f"verdict {classification.verdict.value}: "
        f"{classification.inside} inside / {classification.on_circle} on / "
        f"{classification.outside} outside the circle"
    )
    click.echo(f"l1 norm {l1:.6g}, sup norm {sup:.6g} on {config.grid_size} grid points")
    click.echo(
        f"compression norm at N={sweep[-1].dim}: {sweep[-1].norm:.6g} (gap {sweep[-1].gap:.6g})"
    )
    click.echo(f"wrote report.json, isometry.csv, asymmetry.csv to {out}")
    return EXIT_OK


def cmd_invert(config: AnalysisConfig, side: str = "auto") -> int:
    """Certified truncated inverse on the causal or anticausal side."""
    f = config.coeffs
    try:
        classification = invertibility.classify_roots(f, config.tol)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_INPUT_ERROR
    if side == "auto":
        if classification.verdict is Verdict.INVERTIBLE:
            side = "causal"
        elif classification.on_circle > 0:
            click.echo(
                "borderline symbol: a root lies on the unit circle within "
                f"tol {classification.tol:.6g}; no summable inverse on either side",
                err=True,
            )
            return EXIT_BORDERLINE
        elif classification.outside == 0:
            side = "anticausal"
        else:
            click.echo(
                "error: roots on both sides of the circle "
                f"({classification.inside} inside, {classification.outside} outside); "
                "no one-sided inverse exists",
                err=True,
            )
            return EXIT_INPUT_ERROR
    try:
        if side == "causal":
            result = invertibility.invert_causal(f, INVERT_MAX_LEN, config.eps)
        else:
            result = invertibility.invert_anticausal(f, INVERT_MAX_LEN, config.eps)
    except TailNotCertifiedError as exc:
        click.echo(
            f"tail not certified: bound {exc.achieved_bound:.6g} after "
            f"{exc.max_len} coefficients still exceeds eps {config.eps:.6g}",
            err=True,
        )
        return EXIT_TAIL_NOT_CERTIFIED
    except NotInvertibleError as exc:
        if exc.classification.on_circle > 0:
            click.echo(f"borderline symbol: {exc}", err=True)
            return EXIT_BORDERLINE
        click.echo(f"error: {exc}", err=True)
        return EXIT_INPUT_ERROR
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_INPUT_ERROR
    document = {
        "offset": result.inverse.offset,
        "coeffs": _complex_pairs(result.inverse.coeffs),
        "side": result.side.value,
        "truncation_len": result.truncation_len,
        "tail_bound": result.tail_bound,
        "eps": config.eps,
        "source": wiener.to_json_dict(f),
    }
    out = config.out_dir
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


def cmd_simulate(config: AnalysisConfig, max_lag: int = 20) -> int:
    """Sample a path and report reconstruction (or divergence) and ergodicity."""
    f = config.coeffs
    # short paths cannot support the full requested ladder
    max_lag = min(int(max_lag), config.t_len - 1)
    try:
        sample = process.simulate(f, config.sigma, config.t_len, config.seed)
        classification = invertibility.classify_roots(f, config.tol)
        ergodic_rows = process.ergodic_mean_check(
            f, config.sigma, _ergodic_ladder(config.t_len), config.seed
        )
        table_name = None
        table_text = None
        if classification.verdict is Verdict.INVERTIBLE and max_lag >= 1:
            report = process.reconstruct_innovations(sample, max_lag)
            table_name = "reconstruction.csv"
            table_text = process.reconstruction_csv(report)
        elif classification.inside > 0 and classification.on_circle == 0 and max_lag >= 1:
            rows = process._divergence_ladder(sample, max_lag)
            table_name = "divergence.csv"
            table_text = process.divergence_csv(rows)
    except (ValueError, TailNotCertifiedError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_INPUT_ERROR
    metadata = process.metadata_sidecar(sample)
    metadata["verdict"] = classification.verdict.value
    metadata["max_lag"] = max_lag
    files = ["sample.csv", "ergodicity.csv", "metadata.json"]
    if table_name is not None:
        files.insert(1, table_name)
    metadata["files"] = files
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "sample.csv", process.sample_to_csv(sample))
    _write_text(out / "ergodicity.csv", process.ergodic_csv(ergodic_rows))
    if table_name is not None:
        _write_text(out / table_name, table_text)
    _write_text(out / "metadata.json", _json_text(metadata))
    click.echo(
        f"simulated {config.t_len} steps (seed {config.seed}, sigma {config.sigma:.6g}), "
        f"verdict {classification.verdict.value}"
    )
    if table_name == "reconstruction.csv":
        last = report.mse_per_cutoff[-1]
        click.echo(f"reconstruction MSE at M={last[0]}: {last[1]:.6g}")
    elif table_name == "divergence.csv":
        click.echo(f"divergent reconstruction: MSE at M={rows[-1][0]}: {rows[-1][1]:.6g}")
    else:
        click.echo("no reconstruction table: symbol sits on the invertibility boundary")
    click.echo(f"wrote {', '.join(files)} to {out}")
    return EXIT_OK


# -- click wiring -----------------------------------------------------------


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
@click.option("--eps", default=1e-10, show_default=True, help="Inverse tail certification target.")
@click.option("--out", default="shiftop-out", show_default=True, type=click.Path(), help="Output directory.")
def analyze_command(coeffs, coeffs_file, dims, grid, tol, eps, out):
    """Classify roots, measure norms, and tabulate truncation behavior."""
    try:
        config = AnalysisConfig(
            coeffs=_resolve_symbol(coeffs, coeffs_file),
            dims=_parse_dims(dims),
            grid_size=grid,
            tol=tol,
            eps=eps,
            out_dir=Path(out),
        )
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    sys.exit(cmd_analyze(config))


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
@click.option("--eps", default=1e-10, show_default=True, help="Tail certification target.")
@click.option("--out", default="shiftop-out", show_default=True, type=click.Path(), help="Output directory.")
def invert_command(coeffs, coeffs_file, side, tol, eps, out):
    """Write a certified truncated inverse as a JSON coefficient file."""
    try:
        config = AnalysisConfig(
            coeffs=_resolve_symbol(coeffs, coeffs_file),
            tol=tol,
            eps=eps,
            out_dir=Path(out),
        )
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    sys.exit(cmd_invert(config, side))


@main.command("simulate")
@_symbol_options
@click.option("--T", "t_len", default=10_000, show_default=True, help="Path length.")
@click.option("--seed", default=0, show_default=True, help=f"PRNG seed ({SEED_ENV_VAR} overrides).")
@click.option("--sigma", default=1.0, show_default=True, help="Innovation standard deviation.")
@click.option("--max-lag", default=20, show_default=True, help="Largest reconstruction cutoff.")
@click.option("--tol", default=invertibility.DEFAULT_ROOT_TOL, show_default=True, help="Root classification tolerance.")
@click.option("--out", default="shiftop-out", show_default=True, type=click.Path(), help="Output directory.")
def simulate_command(coeffs, coeffs_file, t_len, seed, sigma, max_lag, tol, out):
    """Simulate a moving-average path and its reconstruction diagnostics."""
    try:
        config = AnalysisConfig(
            coeffs=_resolve_symbol(coeffs, coeffs_file),
            tol=tol,
            seed=_resolve_seed(seed),
            sigma=sigma,
            t_len=t_len,
            out_dir=Path(out),
        )
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    sys.exit(cmd_simulate(config, max_lag))


if __name__ == "__main__":
    main()
