"""Command-line front end: evaluation, tabulation, verification,
zero-finding, and plot-data emission.

Exit codes: 0 success (all checks pass), 1 a verification check failed,
2 configuration/usage error, 3 numerical error.  All numbers print with
17 significant digits so they round-trip through text.

The environment variable QDH_TOL overrides the default series
truncation tolerance.
"""

from __future__ import annotations

import cmath
import functools
import json
import os
import sys

import click
import numpy as np

from . import family as closed_forms
from . import limits, recurrence
from .cdqhahn import CDQHParams
from .errors import BranchAmbiguous, QdhError, UnknownFamily, UnsupportedFamily
from .qseries import DEFAULT_POLICY, TruncationPolicy, truncation

CONFIG_ERROR = 2
NUMERIC_ERROR = 3


def _cell(value) -> str:
    """A value's output text: a float (numpy float64 too) to 17
    significant digits, anything else by ``str``."""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _parse_complex(text: str, source: str) -> complex:
    literal = text.replace(" ", "")  # a final i is the imaginary unit ("inf" keeps its i)
    return _parse_number(literal[:-1] + "j" if literal.endswith("i") else literal, source, complex)


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError("grid must be lo:hi:count")
    lo, hi = _parse_number(parts[0], "--grid"), _parse_number(parts[1], "--grid")
    count = _parse_number(parts[2], "--grid", int)
    if count < 1:
        raise click.UsageError("grid count must be >= 1")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    if not cmath.isfinite(step):
        raise click.UsageError("grid step leaves the double range")
    return [lo + i * step for i in range(count)]


def _parse_number(text: str, source: str, kind=float):
    try:
        value = kind(text)
    except ValueError:
        raise click.UsageError(f"{source}: cannot parse {text!r} as {kind.__name__}")
    if kind in (float, complex) and not cmath.isfinite(value):
        raise click.UsageError(f"{source}: {text!r} is not a finite number")
    return value


def _policy(tol):
    env = os.environ.get("QDH_TOL")
    if tol is None and not env:
        return DEFAULT_POLICY
    rel_tol = tol if tol is not None else _parse_number(env, "QDH_TOL")
    try:
        return TruncationPolicy(rel_tol=rel_tol)
    except ValueError as exc:
        raise click.UsageError(f"series tolerance (--tol or QDH_TOL): {exc}")


def _build_family(family, q, params):
    """Construct the requested coefficient family from q and the dict of
    its parameters, reporting missing ones as `missing: <name>`;
    parameters it does not take are ignored."""
    if q is None:
        raise click.UsageError("missing: q")
    try:
        return limits.family_from_id(family, q, **params)
    except TypeError as exc:
        raise click.UsageError(str(exc))


# (separator, *cell types) -> that row's format string; the commands
# print a few type sequences (table rows are floats but for complex P_n)
_ROW_FORMATS = {}


def _format_rows(rows, sep):
    """Each row as its cells' ``_cell`` texts joined by ``sep``, by one
    ``%`` call: %.17g prints a float's ``format(v, ".17g")`` bytes."""
    lines = []
    for row in rows:
        key = (sep, *map(type, row))
        row_format = _ROW_FORMATS.get(key)
        if row_format is None:
            row_format = _ROW_FORMATS[key] = sep.join(
                "%.17g" if issubclass(kind, float) else "%s" for kind in key[1:])
        lines.append(row_format % tuple(row))
    return lines


def _emit_rows(rows, header, fmt, params_comment=None):
    if fmt == "json":
        cells = [list(map(_cell, row)) for row in rows]
        click.echo(json.dumps({"header": list(header), "rows": cells}, sort_keys=True))
        return
    comment = [f"# {params_comment}"] if params_comment else []
    if fmt == "csv":
        lines = [*comment, ",".join(header), *_format_rows(rows, ",")]
        click.echo("\r\n".join(lines) + "\r\n", nl=False)
    elif comment or rows:  # an empty zero scan prints nothing
        click.echo("\n".join([*comment, *_format_rows(rows, " ")]))


def _family_comment(family_obj):
    parts = [f"family={family_obj.family_id}", f"q={_cell(family_obj.q)}"]
    # every CLI parameter is a finite float, stored as a complex with imaginary part 0
    parts += [f"{name}={_cell(getattr(family_obj, name).real)}"
              for name in family_obj.param_names]
    return " ".join(parts)


# q, then each family parameter by its name, the flagship's first
_FAMILY_OPTIONS = tuple(dict.fromkeys(
    ["q", *(name for cls in (CDQHParams, *limits.FAMILIES.values()) for name in cls.param_names)]))


def _family_options(command):
    """The family parameters, declared once for every command that builds a family."""
    for name in reversed(_FAMILY_OPTIONS):
        # the explicit destination keeps --A and --a apart
        command = click.option(f"--{name}", name, type=float, default=None)(command)
    return command


@click.group()
def main():
    """Associated continuous dual q-Hahn polynomials and their limit
    families: solutions, continued fractions, weights, and checks."""


@main.command("eval")
@click.option("--family", required=True, help="cdqh or a limit-family id")
@click.option("--what", required=True,
              type=click.Choice(["poly", "poly-alt", "solution", "cf", "cf-trunc", "weight"]))
@click.option("--which", default=None,
              help="solution label (cdqh) or index (limit families)")
@click.option("--n", "n_index", type=int, default=0, help="degree / sequence index")
@click.option("--z", "z_text", default=None, help="spectral argument (re or re+imi)")
@click.option("--x", "x_text", default=None,
              help="rescaled argument x = alpha z of a cut family, or the weight's x")
@click.option("--grid", default=None, help="lo:hi:count grid over z (or x for weight)")
@click.option("--depth", type=int, default=400, help="truncation depth for cf-trunc")
@_family_options
@click.option("--cf-form", default=None, help="closed form variant for --what cf")
@click.option("--side", type=click.Choice(["off-cut", "above", "below"]),
              default=None, help="boundary side when the point lies on the cut")
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "text"]), default="csv")
@click.option("--tol", type=float, default=None, help="series truncation tolerance")
def cmd_eval(family, what, which, n_index, z_text, x_text, grid, depth, q, cf_form, side,
             fmt, tol, **params):
    """Evaluate a polynomial, solution, continued fraction, or weight at
    a point or over a grid; one CSV row per point (n_or_x, re, im)."""
    fam = _build_family(family, q, params)
    if what in ("poly", "poly-alt") and n_index < 0:
        raise click.UsageError("--n must be >= 0: degrees are not negative")
    policy = _policy(tol)
    for option, value, applies in (("--which", which, "solution"), ("--cf-form", cf_form, "cf")):
        if value is not None and what != applies:
            raise click.UsageError(f"{option} applies only to --what {applies}, not {what}")
    # the family's solution labels (names or indices, --which is read as
    # the default's type) and forms of 1/CF, the default first
    label, forms = next(iter(fam._solutions)), tuple(fam._cf_forms)
    if which:
        label = _parse_number(which, "--which", type(label))
    if what == "cf" and cf_form not in (None, *forms):
        raise click.UsageError(
            f"unknown --cf-form {cf_form!r} for {family}; accepted: {', '.join(forms)}")

    if grid is not None:
        points = _parse_grid(grid)
    elif what == "weight" and x_text is not None:
        points = [_parse_number(x_text, "--x")]
    elif z_text is not None:
        points = [_parse_complex(z_text, "--z")]
    elif x_text is not None and fam.z_at is not None:
        points = [fam.z_at(_parse_complex(x_text, "--x"))]
    else:
        raise click.UsageError("missing: z (or x / --grid)")

    def evaluate(z):  # one point, or the whole grid as an array (poly, weight)
        if what == "weight":
            return closed_forms.weight(fam, z.real)
        if what == "cf-trunc":
            # the J-fraction has its poles on the cut, so no boundary values
            try:
                fam.point_at(z)
            except BranchAmbiguous:
                raise BranchAmbiguous(
                    "the truncated J-fraction has no value on the cut, from either side"
                ) from None
            return 1.0 / closed_forms.cf_denominator(recurrence.cf_truncated(fam, z, depth))
        if what == "poly":
            return closed_forms.poly(fam, z, n_index)
        point = fam.point_at(z, side, single_valued=what == "poly-alt")
        if what == "poly-alt":
            return closed_forms.poly_alt(fam, point, n_index)
        if what == "solution":
            return closed_forms.solution_value(fam, point, label, n_index)
        return closed_forms.cf(fam, point, cf_form)

    if side is not None and what != "weight":
        for z in points:  # a side given at a point off the cut is a usage error
            fam.point_at(z, side)
    with truncation(policy):
        if what in ("poly", "weight") and grid is not None:
            # one grid call: the recurrence or the series kernels take every point at once
            values = evaluate(np.array(points))
        else:
            values = [evaluate(pt) for pt in points]
    rows = []
    for pt, value in zip(points, map(complex, values)):
        coord = pt.real if isinstance(pt, complex) and pt.imag == 0 else pt
        rows.append([coord, value.real, value.imag])
    _emit_rows(rows, ("n_or_x", "re", "im"), fmt, _family_comment(fam))


def _verify():
    """The check suite, imported by the one command that runs it."""
    from . import verify

    return verify


class _CheckChoice(click.Choice):
    """``click.Choice`` over the check ids and "all", read when first needed."""

    def __init__(self):  # Choice's own would read the choices now
        self.case_sensitive = True

    @functools.cached_property
    def choices(self):
        return _verify().CHECK_IDS + ("all",)


@main.command("verify")
@click.option("--check", "check_id", type=_CheckChoice(), default="all")
@click.option("--seed", type=int, default=lambda: _verify().DEFAULT_SEED)
@click.option("--fast", is_flag=True, help="smaller sample counts")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_verify(check_id, seed, fast, fmt):
    """Run identity/property checks; exit 0 iff every check passes."""
    reports = _verify().run_checks(check_id, seed=seed, fast=fast)
    if fmt == "json":
        click.echo(json.dumps([r.to_dict() for r in reports], sort_keys=True))
    else:
        for report in reports:
            click.echo(report.to_text())
    if not all(r.passed for r in reports):
        raise SystemExit(1)


@main.command("zeros")
@click.option("--f", "f_name", default="fourth-limit",
              help="series handle: fourth-limit (index n) or a cf part like "
                   "al-salam-carlitz1:num (families with an A parameter pin "
                   "A = q, the explicit-pole regime)")
@click.option("--n", "n_index", type=int, default=0)
@click.option("--q", type=float, required=True)
@click.option("--delta", type=float, default=None)
@click.option("--a", type=float, default=None)
@click.option("--scan-lo", type=float, default=None)
@click.option("--scan-hi", type=float, default=None)
@click.option("--max-zeros", type=int, default=8)
@click.option("--interlace", is_flag=True,
              help="also scan order n+1 and report interlacing")
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "text"]), default="csv")
def cmd_zeros(f_name, n_index, q, delta, a, scan_lo, scan_hi, max_zeros, interlace, fmt):
    """Bracket and bisect real zeros of a family's series handle; CSV
    columns: zero, bracket_lo, bracket_hi."""
    if max_zeros < 1:
        raise click.UsageError("--max-zeros must be >= 1")
    if f_name == "fourth-limit":
        fam = _build_family(f_name, q, {})
        handle = limits.fourth_limit_series(fam, n_index)
        lo, hi = limits.fourth_limit_zero_window(q, n_index, max_zeros)
    elif ":" in f_name:
        family_id, part = f_name.split(":", 1)
        if part not in ("num", "den"):
            raise click.UsageError("cf part must be num or den")
        # a family with an A parameter takes A = q, the explicit-pole regime
        fam = _build_family(family_id, q, {"A": q, "delta": delta, "a": a})
        index = 0 if part == "num" else 1

        def handle(x):
            return limits.limit_cf_parts(fam, x)[index].real

        if scan_lo is None or scan_hi is None:
            raise click.UsageError("missing: scan-lo/scan-hi for cf parts")
    else:
        raise click.UsageError(f"unknown series handle {f_name!r}")
    if interlace and f_name != "fourth-limit":
        raise click.UsageError("interlacing report needs --f fourth-limit")
    # the default window holds max_zeros zeros: a shorter list is ScanTooCoarse
    expect = max_zeros if scan_lo is None and scan_hi is None else None
    if scan_lo is not None:
        lo = scan_lo
    if scan_hi is not None:
        hi = scan_hi
    zl = limits.find_zeros(handle, lo, hi, max_zeros=max_zeros, expect=expect)
    if interlace:  # both scans run before anything prints
        next_handle = limits.fourth_limit_series(fam, n_index + 1)
        next_lo, next_hi = limits.fourth_limit_zero_window(q, n_index + 1, max_zeros)
        zl2 = limits.find_zeros(next_handle, next_lo, next_hi, max_zeros=max_zeros,
                                expect=expect)
    rows = [[z, b[0], b[1]] for z, b in zip(zl.zeros, zl.brackets)]
    _emit_rows(rows, ("zero", "bracket_lo", "bracket_hi"), fmt)
    if interlace:
        ok = limits.interlaces(zl, zl2)
        click.echo(f"interlace n={n_index} vs n={n_index + 1}: {'pass' if ok else 'fail'}")
        if not ok:
            raise SystemExit(1)


@main.command("table")
@click.option("--family", required=True)
@click.option("--n-lo", type=int, default=0)
@click.option("--n-hi", type=int, required=True)
@click.option("--grid", required=True, help="lo:hi:count grid over z")
@_family_options
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "text"]), default="csv")
def cmd_table(family, n_lo, n_hi, grid, q, fmt, **params):
    """Matrix of monic polynomial values P_n(z) over an n range and a z
    grid, one grid point per row."""
    fam = _build_family(family, q, params)
    if n_lo < 0:
        raise click.UsageError("--n-lo must be >= 0: degrees are not negative")
    rows = []
    header = ["z"]
    if n_hi >= n_lo:
        points = _parse_grid(grid)
        header += [f"n{n}" for n in range(n_lo, n_hi + 1)]
        # one recurrence pass over the whole grid
        table = closed_forms.poly_rows(fam, np.array(points, dtype=complex), n_lo, n_hi).T
        # one array pass: a value whose imaginary part is below 1e-300
        # prints as its real part (a Python float), any other as complex
        cells = table.astype(object)
        real = np.abs(table.imag) < 1e-300
        cells[real] = table.real[real]
        rows = [[z, *values] for z, values in zip(points, cells.tolist())]
    _emit_rows(rows, header, fmt, _family_comment(fam))


def run():
    """Console entry point with the documented exit-code contract."""
    try:
        # outside standalone mode click returns an Exit's code (--help's 0)
        code = main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(CONFIG_ERROR)
    except click.ClickException as exc:
        exc.show()
        sys.exit(CONFIG_ERROR)
    except click.exceptions.Abort:
        sys.exit(CONFIG_ERROR)
    except (ValueError, UnknownFamily, UnsupportedFamily) as exc:
        # the library's checks of its input, and a family, label or form it lacks
        click.echo(f"error: {exc}", err=True)
        sys.exit(CONFIG_ERROR)
    except QdhError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(NUMERIC_ERROR)
    if isinstance(code, int) and code:
        sys.exit(code)


if __name__ == "__main__":
    run()
