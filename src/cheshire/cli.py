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
import functools
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import astuple, dataclass
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
    _require_scale,
    count_rate,
    run,
    run_batch,
)
from .qcore import Path
from .weak import exact_weak_values, projective_spin_expectation

__all__ = [
    "CliError",
    "ScenarioConfig",
    "parse_scenario_config",
    "format_scenario_config",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

# Upper bound on the --points of sweep and analyze: the grid and its
# readings are built in memory, so an absurd count would fail inside numpy.
MAX_POINTS = 100_000

# sweep --vary -> the (start, stop, points) of its grid when not given.
_SWEEP_GRID = {"chi": (0.0, 2.0 * math.pi, 361), "alpha": (0.01, 0.3, 50)}


class CliError(Exception):
    """Usage or configuration error; mapped to exit code 1."""


# Insertion -> the optional fields it uses, each marked required or not.
# A field that no entry lists for the chosen insertion must stay unset.
_INSERTION_FIELDS = {
    "none": {},
    "absorber": {"path": True, "transmissivity": True},
    "magnet": {"path": True, "alpha_rad": True, "truncation": False},
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario settings in canonical (radian) form.

    ``None`` means "not set".  Construction checks only which fields the
    insertion requires and allows.  The value rules (finite angles, T in
    [0, 1], a positive scale) are those of :class:`Scenario` and of the
    count rate, applied by building :meth:`to_scenario` and checking the
    scale, so a config is either rejected with a message or convertible to
    a :class:`Scenario`.
    """

    insertion: str = "none"
    path: Path | None = None
    alpha_rad: float | None = None
    transmissivity: float | None = None
    chi_rad: float = 0.0
    truncation: Truncation | None = None
    scale_ref_cps: float = DEFAULT_SCALE_REF_CPS

    def __post_init__(self) -> None:
        uses = _INSERTION_FIELDS[_parse_value("insertion", self.insertion)]
        optional = dict.fromkeys(f for fields in _INSERTION_FIELDS.values() for f in fields)
        for field in optional:
            name = field.removesuffix("_rad")
            if getattr(self, field) is None:
                if uses.get(field):
                    raise ValueError(f"insertion = {self.insertion} requires {name}")
            elif field not in uses:
                users = [ins for ins, fields in _INSERTION_FIELDS.items() if field in fields]
                raise ValueError(f"{name} requires insertion = {' or '.join(users)}")
        self.to_scenario()
        _require_scale(self.scale_ref_cps)

    def to_scenario(self) -> Scenario:
        if self.insertion == "absorber":
            ins: Absorber | Magnet | None = Absorber(
                path=self.path, transmissivity=self.transmissivity
            )
        elif self.insertion == "magnet":
            ins = Magnet(
                path=self.path,
                alpha_rad=self.alpha_rad,
                truncation=self.truncation or Truncation.EXACT,
            )
        else:
            ins = None
        return Scenario(insertion=ins, chi_rad=self.chi_rad)


# Config key -> (ScenarioConfig field, how its text converts).  The
# conversion is a dict of the allowed spellings, or a function applied to
# the number the text spells.  The degree keys land on the radian fields;
# each key is also a run/sweep flag (alpha_deg <-> --alpha-deg).  The order
# is the order format_scenario_config writes.
_KEYS = {
    "insertion": ("insertion", {name: name for name in _INSERTION_FIELDS}),
    "path": ("path", {path.name: path for path in Path}),
    "alpha_deg": ("alpha_rad", math.radians),
    "alpha_rad": ("alpha_rad", float),
    "transmissivity": ("transmissivity", float),
    "truncation": ("truncation", {t.value: t for t in Truncation}),
    "chi_deg": ("chi_rad", math.radians),
    "chi_rad": ("chi_rad", float),
    "scale_ref_cps": ("scale_ref_cps", float),
}

CONFIG_KEYS = tuple(_KEYS)


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
    """ScenarioConfig fields from one source's key -> text pairs.

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


def parse_scenario_config(text: str) -> ScenarioConfig:
    """Parse a flat ``key = value`` config (one pair per line, ``#`` comments).

    Unknown and duplicate keys are errors, as is giving both the degree and
    radian spelling of the same angle.
    """
    return ScenarioConfig(**_file_fields(text))


def format_scenario_config(config: ScenarioConfig) -> str:
    """Serialize a config in canonical radian form; re-parsing reproduces it exactly."""
    lines = []
    for key, (field, convert) in _KEYS.items():
        value = getattr(config, field)
        if key != field or value is None:
            continue
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
        raise CliError(message)


def _add_scenario_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value scenario file")
    for key, (_, convert) in _KEYS.items():
        metavar = "{" + ",".join(convert) + "}" if isinstance(convert, dict) else None
        sub.add_argument(_flag(key), metavar=metavar)


def _csv_path(text: str) -> str:
    """The --csv value, which must end in a file name (not '', '.', a root or a directory)."""
    if not FilePath(text).name:
        raise argparse.ArgumentTypeError(f"{text!r} names no file")
    if text.endswith(("/", os.sep)) or os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} names a directory")
    return text


def _merged_config(args: argparse.Namespace, fill: dict[str, object] | None = None) -> ScenarioConfig:
    """The config file's fields, overlaid by the fields of the flags given.

    ``fill`` gives values for fields that the chosen insertion uses and
    that neither source sets.
    """
    fields: dict[str, object] = {}
    if args.config is not None:
        try:
            text = FilePath(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot read config file: {exc}") from None
        fields = _file_fields(text)
    flags = {key: getattr(args, key) for key in _KEYS if getattr(args, key) is not None}
    fields.update(_fields(flags, spell=_flag))
    uses = _INSERTION_FIELDS[fields.get("insertion", "none")]
    fields = {**{k: v for k, v in (fill or {}).items() if k in uses}, **fields}
    return ScenarioConfig(**fields)


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
    """CSV lines of a chi or alpha sweep: a header, then one row per point and detector.

    Strings that are constant over the sweep are formatted once, and the
    varied value once per point.
    """
    rates = count_rate(readings, scale).tolist()
    ins = template.insertion
    magnet = isinstance(ins, Magnet)
    chi = _num(template.chi_rad)
    alpha = _num(ins.alpha_rad) if magnet else ""
    trunc = ins.truncation.value if magnet else ""
    sid = _scenario_id(template)
    heads = [f"{sid},{det.value}," for det in Detector]
    yield "scenario_id,detector,chi_rad,alpha_rad,truncation,intensity_norm,intensity_cps"
    for value, norms, cps in zip(grid.tolist(), readings.tolist(), rates):
        if vary == "chi":
            chi = _num(value)
        else:
            alpha = _num(value)
        point = f"{chi},{alpha},{trunc},"
        yield from (f"{head}{point}{n:.12e},{c:.12e}" for head, n, c in zip(heads, norms, cps))


def _write_csv(path_text: str | None, lines: Iterable[str]) -> None:
    if path_text is None:
        sys.stdout.writelines(f"{line}\n" for line in lines)
        return
    # Stream into a sibling file renamed over the target: a failed write keeps the old CSV.
    target = FilePath(path_text)
    partial = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", encoding="utf-8", newline="") as handle:
            for rows, line in enumerate(lines):  # the header is line 0
                handle.write(f"{line}\n")
        os.replace(partial, target)
    except OSError as exc:
        if exc.filename == str(partial):  # name the path given, not the sibling
            raise OSError(exc.errno, exc.strerror, path_text) from None
        raise
    finally:
        partial.unlink(missing_ok=True)
    print(f"wrote {rows} rows to {path_text}")


def cmd_run(args: argparse.Namespace) -> int:
    config = _merged_config(args)
    scenario = config.to_scenario()
    result = run(scenario, config.scale_ref_cps)
    print(f"scenario: {_scenario_id(scenario)}  chi_rad={scenario.chi_rad:.12g}")
    rows = [
        [det.value, f"{result[det].intensity_norm:.12g}", f"{result[det].intensity_cps:.12g}"]
        for det in Detector
    ]
    print(_table(["detector", "intensity_norm", "intensity_cps"], rows))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    # An alpha grid replaces the magnet's angle, so none need be given; any fills it.
    config = _merged_config(args, {"alpha_rad": 0.0} if args.vary == "alpha" else None)
    template = config.to_scenario()

    given = (args.start, args.stop, args.points)
    start, stop, points = (d if v is None else v for v, d in zip(given, _SWEEP_GRID[args.vary]))

    if not 2 <= points <= MAX_POINTS:
        raise CliError(f"--points must be between 2 and {MAX_POINTS}")
    if not (math.isfinite(start) and math.isfinite(stop) and start < stop):
        raise CliError("--start must be less than --stop")

    if args.vary == "chi":
        grid = np.linspace(start, stop, points)
        readings = run_batch(template, chi_rad=grid)
    else:
        if start <= 0.0:
            raise CliError("alpha sweeps need --start > 0 (log-spaced grid)")
        grid = np.geomspace(start, stop, points)
        readings = run_batch(template, alpha_rad=grid)

    _write_csv(args.csv, _sweep_csv(template, args.vary, grid, readings, config.scale_ref_cps))
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
    scale = DEFAULT_SCALE_REF_CPS if args.scale_ref_cps is None else args.scale_ref_cps
    table = reproduce_benchmark_table(scale)
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
        raise CliError(f"--points must be between 10 and {MAX_POINTS}")
    if not (0.0 < args.alpha_min < args.alpha_max < math.inf):
        raise CliError("need 0 < --alpha-min < --alpha-max")
    grid = np.geomspace(args.alpha_min, args.alpha_max, args.points)
    report = truncation_scan(path, grid)

    header = ["alpha_rad", "i_exact_norm", "i_linear_norm", "i_quadratic_norm",
              "deficit_exact_norm", "deficit_linear_norm", "deficit_quadratic_norm"]
    table_rows = []
    csv_lines = [",".join(header)]
    for i, alpha in enumerate(report.alpha_grid):
        cells = [
            alpha,
            report.i_exact[i],
            report.i_linear[i],
            report.i_quadratic[i],
            I_REF_NORM - report.i_exact[i],
            I_REF_NORM - report.i_linear[i],
            I_REF_NORM - report.i_quadratic[i],
        ]
        table_rows.append([f"{c:.6g}" for c in cells])
        csv_lines.append(",".join(_num(c) for c in cells))

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
        _write_csv(args.csv, csv_lines)
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
    p_repr.add_argument("--scale-ref-cps", dest="scale_ref_cps", type=float)
    p_repr.set_defaults(func=cmd_reproduce)

    p_ana = sub.add_parser("analyze", help="truncation-order scan and witness deficits")
    p_ana.add_argument("--path", choices=["I", "II"], required=True)
    p_ana.add_argument("--alpha-min", dest="alpha_min", type=float, default=0.01)
    p_ana.add_argument("--alpha-max", dest="alpha_max", type=float, default=0.3)
    p_ana.add_argument("--points", type=int, default=50)
    p_ana.add_argument("--csv", type=_csv_path, help="also write the scan as CSV")
    p_ana.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout is gone: stop quietly, and point stdout at
        # devnull so that the flush at interpreter exit does not raise too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
