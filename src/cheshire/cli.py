"""Command line interface.

Subcommands: run, sweep, weakvalues, reproduce, analyze.  Scenario options
can come from flags, from a flat ``key = value`` config file (``--config``),
or both, with flags taking precedence.  Exit codes: 0 on success (and on
benchmark agreement), 1 on usage or validation errors, 2 when ``reproduce``
finds a theory/measurement disagreement, 141 when the reader of standard
output closes the pipe early (nothing is printed then).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import math
import os
import re
import stat
import sys
from collections.abc import Iterable, Iterator
from dataclasses import astuple
from pathlib import Path as FilePath

import numpy as np

from .analysis import cheshire_witness, reproduce_benchmark_table, truncation_scan
from .elements import Truncation
from .experiment import (
    DEFAULT_SCALE_REF_CPS,
    I_REF_NORM,
    Absorber,
    Detector,
    Magnet,
    Scenario,
    count_rate,
    run,
    run_batch,
)
from .qcore import Path, _require_member, _require_real
from .weak import exact_weak_values, projective_spin_expectation

__all__ = ["parse_scenario_config", "format_scenario_config", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

# Upper bound on the --points of sweep and analyze: the grid and its
# readings are built in memory, so an absurd count would fail inside numpy.
MAX_POINTS = 100_000

# Grid points per CSV chunk of a sweep: the chunks in memory stay small at any --points.
_BLOCK = 1024

# sweep --vary -> the (start, stop, points) of its grid when not given.
_SWEEP_GRID = {"chi": (0.0, 2.0 * math.pi, 361), "alpha": (0.01, 0.3, 50)}


# Insertion -> the class it builds.  The class's fields are the optional
# scenario fields the insertion uses, required unless they have a default;
# a field that the chosen insertion does not use must stay unset.
_INSERTIONS = {"none": None, "absorber": Absorber, "magnet": Magnet}
_INSERTION_FIELDS = {
    name: {f.name: f.default is dataclasses.MISSING for f in dataclasses.fields(cls)} if cls else {}
    for name, cls in _INSERTIONS.items()
}


def _scenario(fields: dict[str, object]) -> tuple[Scenario, float]:
    """The scenario and count-rate scale that parsed fields (radian form) describe.

    A missing field is unset.  Only which fields the insertion requires and
    allows is checked here; the value rules (the input domain, T in [0, 1])
    are those of :class:`Scenario` and of the count rate.
    """
    insertion = fields.get("insertion", "none")
    uses = _INSERTION_FIELDS[insertion]
    for field in dict.fromkeys(f for names in _INSERTION_FIELDS.values() for f in names):
        name = field.removesuffix("_rad")
        if field not in fields and uses.get(field):
            raise ValueError(f"insertion = {insertion} requires {name}")
        if field in fields and field not in uses:
            users = [ins for ins, names in _INSERTION_FIELDS.items() if field in names]
            raise ValueError(f"{name} requires insertion = {' or '.join(users)}")
    cls = _INSERTIONS[insertion]
    ins = cls and cls(**{f: fields[f] for f in uses if f in fields})
    scale = fields.get("scale_ref_cps", DEFAULT_SCALE_REF_CPS)
    return Scenario(ins, fields.get("chi_rad", 0.0)), _require_real("scale_ref_cps", scale, "lie in [1e-12, 1e12]")


# Config key -> (scenario field, how its text converts).  The conversion
# is a dict of the allowed spellings, or a function applied to the number
# the text spells.  The degree keys land on the radian fields;
# each key is also a run/sweep flag (alpha_deg <-> --alpha-deg).  The order
# is the order format_scenario_config writes.
_KEYS = {
    "insertion": ("insertion", {name: name for name in _INSERTIONS}),
    "path": ("path", {path.name: path for path in Path}),
    "alpha_deg": ("alpha_rad", math.radians),
    "alpha_rad": ("alpha_rad", float),
    "transmissivity": ("transmissivity", float),
    "truncation": ("truncation", {t.value: t for t in Truncation}),
    "chi_deg": ("chi_rad", math.radians),
    "chi_rad": ("chi_rad", float),
    "scale_ref_cps": ("scale_ref_cps", float),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _parse_value(key: str, text: str) -> object:
    convert = _KEYS[key][1]
    if isinstance(convert, dict):
        if text not in convert:
            *head, last = convert
            raise ValueError(f"{key} must be {', '.join(head)} or {last}, got {text!r}")
        return convert[text]
    try:
        number = float(text)
    except ValueError:
        raise ValueError(f"{key}: expected a number, got {text!r}") from None
    return convert(number)


def _fields(pairs: dict[str, str], spell=str) -> dict[str, object]:
    """Scenario fields (see :func:`_scenario`) from one source's key -> text pairs.

    Two keys of the same field (an angle in degrees and in radians) are an
    error; ``spell`` names a key in that message.
    """
    fields: dict[str, object] = {}
    given: dict[str, str] = {}
    for key, (field, _) in _KEYS.items():
        if key not in pairs:
            continue
        if field in given:
            raise ValueError(f"give at most one of {spell(given[field])} and {spell(key)}")
        given[field] = key
        fields[field] = _parse_value(key, pairs[key])
    return fields


def _file_fields(text: str) -> dict[str, object]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        if key not in _KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return _fields(pairs)


def parse_scenario_config(text: str) -> tuple[Scenario, float]:
    """Parse a flat ``key = value`` config (one pair per line, ``#`` comments).

    Returns the scenario and its ``scale_ref_cps``.  Unknown and duplicate
    keys are errors, as is giving both the degree and radian spelling of the
    same angle.
    """
    return _scenario(_file_fields(text))


def format_scenario_config(scenario: Scenario, scale_ref_cps: float = DEFAULT_SCALE_REF_CPS) -> str:
    """Serialize a scenario and scale (checked as parsed) in radian form; re-parsing gives both back."""
    ins = _require_member("scenario", scenario, Scenario).insertion
    scale = _require_real("scale_ref_cps", scale_ref_cps, "lie in [1e-12, 1e12]")
    name = next(name for name, cls in _INSERTIONS.items() if isinstance(ins, cls or type(None)))
    values = {f: getattr(ins, f) for f in _INSERTION_FIELDS[name]}
    values.update(insertion=name, chi_rad=scenario.chi_rad, scale_ref_cps=scale)
    lines = []
    for key, (field, convert) in _KEYS.items():
        if key != field or field not in values:
            continue
        value = values[field]
        if isinstance(convert, dict):
            text = next(spelling for spelling, v in convert.items() if v == value)
        else:
            text = repr(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


# A negative number, exponent form included, is a value and not an option;
# argparse's own pattern misses "-1e-3".
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ValueError(message)


def _add_scenario_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value scenario file")
    for key, (_, convert) in _KEYS.items():
        metavar = "{" + ",".join(convert) + "}" if isinstance(convert, dict) else None
        sub.add_argument(_flag(key), metavar=metavar)


def _csv_path(text: str) -> tuple[str, str]:
    """The --csv value and the file it names (a symlink's target): new or regular, in a directory that exists."""
    if not FilePath(text).name:
        raise argparse.ArgumentTypeError(f"{text!r} names no file")
    target = text
    try:
        mode = os.lstat(text).st_mode
        if stat.S_ISLNK(mode):
            target = os.path.realpath(text)
            mode = os.stat(text).st_mode
    except (FileNotFoundError, NotADirectoryError):  # a new file, if its directory exists
        mode = stat.S_IFREG
    if text.endswith(("/", os.sep)) or stat.S_ISDIR(mode):
        raise argparse.ArgumentTypeError(f"{text!r} names a directory")
    if not stat.S_ISREG(mode):  # a FIFO or a device would be replaced, not written
        raise argparse.ArgumentTypeError(f"{text!r} names no regular file")
    parent = os.path.dirname(target) or os.curdir
    if not os.path.isdir(parent):
        # The error the write would raise, raised before any work; main prints it.
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        raise OSError(code, os.strerror(code), text)
    return text, target


def _merged_config(args: argparse.Namespace, fill: dict | None = None) -> tuple[Scenario, float]:
    """The scenario and scale of the config file's fields, overlaid by the flags' fields.

    ``fill`` gives values for fields that the chosen insertion uses and
    that neither source sets.
    """
    fields: dict[str, object] = {}
    if args.config is not None:
        try:
            text = FilePath(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read config file: {exc}") from None
        fields = _file_fields(text)
    flags = {key: getattr(args, key) for key in _KEYS if getattr(args, key) is not None}
    fields.update(_fields(flags, spell=_flag))
    uses = _INSERTION_FIELDS[fields.get("insertion", "none")]
    fields = {**{k: v for k, v in (fill or {}).items() if k in uses}, **fields}
    return _scenario(fields)


def _num(value: float) -> str:
    return format(float(value), ".12e")


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _scenario_id(scenario: Scenario) -> str:
    ins = scenario.insertion
    if ins is None:
        return "none"
    if isinstance(ins, Absorber):
        return f"absorber:{ins.path.name}:T={ins.transmissivity:.12g}"
    return f"magnet:{ins.path.name}:{ins.truncation.value}"


def _sweep_csv(
    template: Scenario, vary: str, grid: np.ndarray, readings: np.ndarray, scale: float
) -> Iterator[str]:
    """CSV of a chi or alpha sweep: a header line, then one chunk per block of ``_BLOCK`` grid points.

    Strings constant over the sweep go into one ``%`` template of a point's
    three rows, repeated over a block and filled from one flat tuple; the
    varied value is formatted once per point.
    """
    rates = count_rate(readings, scale)
    ins = template.insertion
    magnet = isinstance(ins, Magnet)
    chi = _num(template.chi_rad)
    alpha = _num(ins.alpha_rad) if magnet else ""
    trunc = ins.truncation.value if magnet else ""
    sid = _scenario_id(template).replace("%", "%%")
    point = "%s," + alpha + "," if vary == "chi" else chi + ",%s,"
    rows = "".join(f"{sid},{det.value},{point}{trunc},%.12e,%.12e\n" for det in Detector)
    yield "scenario_id,detector,chi_rad,alpha_rad,truncation,intensity_norm,intensity_cps\n"
    for lo in range(0, len(grid), _BLOCK):
        cells = []
        block = (a[lo : lo + _BLOCK].tolist() for a in (grid, readings, rates))
        for value, (n0, n1, n2), (c0, c1, c2) in zip(*block):
            v = _num(value)
            cells += (v, n0, c0, v, n1, c1, v, n2, c2)
        yield rows * (len(cells) // 9) % tuple(cells)


def _write_csv(csv: tuple[str, str] | None, chunks: Iterable[str]) -> None:
    """Write CSV chunks of whole lines, a header line first, to stdout or to a :func:`_csv_path` file."""
    if csv is None:
        sys.stdout.writelines(chunks)
        return
    path_text, target = csv
    # Stream into a sibling file renamed over the target: a failed write keeps the old CSV.
    partial = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
    rows = -1  # the header is no row
    try:
        with open(partial, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk.encode("utf-8"))
                rows += chunk.count("\n")
        os.replace(partial, target)
    except BaseException as exc:
        if os.path.lexists(partial):
            os.unlink(partial)
        if isinstance(exc, OSError) and exc.filename == partial:  # name the path given
            raise OSError(exc.errno, exc.strerror, path_text) from None
        raise
    print(f"wrote {rows} rows to {path_text}")


def cmd_run(args: argparse.Namespace) -> int:
    scenario, scale = _merged_config(args)
    result = run(scenario, scale)
    print(f"scenario: {_scenario_id(scenario)}  chi_rad={scenario.chi_rad:.12g}")
    rows = [
        [det.value, f"{result[det].intensity_norm:.12g}", f"{result[det].intensity_cps:.12g}"]
        for det in Detector
    ]
    print(_table(["detector", "intensity_norm", "intensity_cps"], rows))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    # An alpha grid replaces the magnet's angle, so none need be given; any fills it.
    template, scale = _merged_config(args, {"alpha_rad": 0.0} if args.vary == "alpha" else None)

    given = (args.start, args.stop, args.points)
    start, stop, points = (d if v is None else v for v, d in zip(given, _SWEEP_GRID[args.vary]))

    if not 2 <= points <= MAX_POINTS:
        raise ValueError(f"--points must be between 2 and {MAX_POINTS}")
    if not (start < stop and math.isfinite(stop - start)):
        raise ValueError("need --start < --stop, a finite distance apart")

    if args.vary == "chi":
        grid = np.linspace(start, stop, points)
        readings = run_batch(template, chi_rad=grid)
    else:
        if start <= 0.0:
            raise ValueError("alpha sweeps need --start > 0 (log-spaced grid)")
        _require_real("--stop", stop, "lie in [-1e6, 1e6]")
        grid = np.geomspace(start, stop, points)
        readings = run_batch(template, alpha_rad=grid)

    _write_csv(args.csv, _sweep_csv(template, args.vary, grid, readings, scale))
    return EXIT_OK


def cmd_weakvalues(args: argparse.Namespace) -> int:
    names = ("pi_I", "pi_II", "sigma_pi_I", "sigma_pi_II")
    values = astuple(exact_weak_values())
    rows = [[name, f"{v.real:.12g}", f"{v.imag:.12g}"] for name, v in zip(names, values)]
    print(_table(["weak_value", "re", "im"], rows))
    print("note: the sign of sigma_pi_I depends on the transverse-basis phase")
    print("convention; only its magnitude is fixed by intensities.")
    for path in (Path.I, Path.II):
        print(f"projective_sigma_z_{path.name} = {projective_spin_expectation(path):.12g}")
    return EXIT_OK


def cmd_reproduce(args: argparse.Namespace) -> int:
    table = reproduce_benchmark_table(args.scale_ref_cps)
    rows = [
        [
            row.quantity,
            f"{row.theory_norm:.12g}",
            f"{row.theory_cps:.12g}",
            f"{row.theory_sigma_cps:.3g}",
            f"{row.measured_cps:.12g}",
            f"{row.measured_sigma_cps:.3g}",
            "yes" if row.agrees else "NO",
        ]
        for row in table
    ]
    headers = ["quantity", "theory_norm", "theory_cps", "theory_sigma",
               "measured_cps", "measured_sigma", "agrees"]
    print(_table(headers, rows))
    agreeing = sum(row.agrees for row in table)
    print(f"agreement: {agreeing}/{len(table)} rows within 2 sigma")
    return EXIT_OK if agreeing == len(table) else EXIT_DISAGREE


def cmd_analyze(args: argparse.Namespace) -> int:
    path = Path[args.path]
    if not 10 <= args.points <= MAX_POINTS:
        raise ValueError(f"--points must be between 10 and {MAX_POINTS}")
    if not (0.0 < args.alpha_min < args.alpha_max < math.inf):
        raise ValueError("need 0 < --alpha-min < --alpha-max")
    _require_real("--alpha-max", args.alpha_max, "lie in (0, 1e6]")
    grid = np.geomspace(args.alpha_min, args.alpha_max, args.points)
    report = truncation_scan(path, grid)

    header = ["alpha_rad", "i_exact_norm", "i_linear_norm", "i_quadratic_norm",
              "deficit_exact_norm", "deficit_linear_norm", "deficit_quadratic_norm"]
    intensities = (report.i_exact, report.i_linear, report.i_quadratic)
    table_rows = []
    csv_lines = [",".join(header) + "\n"]
    for cells in zip(report.alpha_grid, *intensities, *(I_REF_NORM - i for i in intensities)):
        table_rows.append([f"{c:.6g}" for c in cells])
        csv_lines.append(",".join(_num(c) for c in cells) + "\n")

    print(f"truncation scan: magnet on path {path.name}, chi = 0, {len(grid)} angles")
    print(_table(header, table_rows))
    print(f"fitted |I_linear - I_exact| exponent:    {report.error_exponent_linear:.4f}")
    print(f"fitted |I_quadratic - I_exact| exponent: {report.error_exponent_quadratic:.4f}")
    witness = cheshire_witness(float(grid[-1]))
    print(
        f"witness at alpha = {witness.alpha_rad:.6g} rad: "
        f"deficit exact = {witness.deficit_exact:.6g}, "
        f"linear = {witness.deficit_linear:.6g}, "
        f"quadratic = {witness.deficit_quadratic:.6g}"
    )
    if args.csv is not None:
        _write_csv(args.csv, ["".join(csv_lines)])
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(
        prog="cheshire",
        description=(
            "Two-path spin interferometer simulator: exact intensities, "
            "weak values and truncation-order analysis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its own parser, for main

    p_run = sub.add_parser("run", help="simulate one scenario and print detector intensities")
    _add_scenario_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep chi or alpha and emit CSV")
    _add_scenario_args(p_sweep)
    p_sweep.add_argument("--vary", choices=["chi", "alpha"], required=True)
    p_sweep.add_argument("--start", type=float)
    p_sweep.add_argument("--stop", type=float)
    p_sweep.add_argument("--points", type=int)
    p_sweep.add_argument("--csv", type=_csv_path, help="output CSV path (stdout when omitted)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_weak = sub.add_parser("weakvalues", help="print the four canonical weak values")
    p_weak.set_defaults(func=cmd_weakvalues)

    p_repr = sub.add_parser("reproduce", help="compare predictions with published benchmarks")
    p_repr.add_argument("--scale-ref-cps", type=float, default=DEFAULT_SCALE_REF_CPS)
    p_repr.set_defaults(func=cmd_reproduce)

    p_ana = sub.add_parser("analyze", help="truncation-order scan and witness deficits")
    p_ana.add_argument("--path", choices=["I", "II"], required=True)
    for flag, default in zip(("--alpha-min", "--alpha-max", "--points"), _SWEEP_GRID["alpha"]):
        p_ana.add_argument(flag, type=type(default), default=default)
    p_ana.add_argument("--csv", type=_csv_path, help="also write the scan as CSV")
    p_ana.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser = build_parser()
        if argv and argv[0] in parser.commands:  # one parse pass, by the subcommand's own parser
            parser, argv = parser.commands[argv[0]], argv[1:]
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout is gone: stop quietly, and point stdout at
        # devnull so that the flush at interpreter exit does not raise too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
