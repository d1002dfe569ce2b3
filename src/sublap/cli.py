"""Command-line front end.

Every subcommand reads JSON description files, prints either a text or a
JSON report (one document, always with a "verdict" key), and exits with
0 for a positive verdict, 1 for a negative one, 2 for malformed input or
an unwritable --out.  The text lines are read off the JSON document's strings.
``main(argv)`` returns that exit code and can be called repeatedly in one
process: the argument parser is built on the first call and reused.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from . import specfiles
from .algebra import InvalidAlgebra, NotStratifiable, stratify, subriemannian_group
from .calculus import NotNilpotent, require_step
from .conformal import ProbeBudgetExceeded, analyze_commutation, commutation_residuals, \
    frames_equivalent
from .heisenberg import NoIsometry, build_isometry, symplectic_spectrum
from .operators import sublaplacian
from .rational import rat_str

@dataclass(frozen=True)
class RunConfig:
    command: str
    paths: tuple
    tolerance: float = 1e-9
    probe_degree: int = 4
    format: str = "text"
    out: Optional[str] = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError("unknown command %r" % (self.command,))
        # nan <= 0 is False, so finiteness needs its own test
        if not math.isfinite(self.tolerance) or self.tolerance <= 0:
            raise ValueError("tolerance must be finite and positive")
        if self.probe_degree < 2:
            raise ValueError("probe degree must be at least 2")
        if self.format not in ("text", "json"):
            raise ValueError("format must be 'text' or 'json'")


def _expect_paths(config, count):
    if len(config.paths) != count:
        raise specfiles.SpecFileError(
            "command %r takes %d file argument(s), got %d"
            % (config.command, count, len(config.paths)))


def _run_validate(config):
    # malformed files raise SpecFileError (exit 2); a well-formed file that
    # describes a bad algebra or an unusable polarization is a negative
    # verdict (exit 1)
    alg, pol, gram = specfiles.load_group_parts(config.paths[0])
    doc = {"verdict": "invalid", "dim": alg.dim, "rank": len(pol),
           "antisymmetry_violations": [], "jacobi_violations": []}
    try:
        group = subriemannian_group(alg, pol, gram)
    except InvalidAlgebra as exc:
        anti = doc["antisymmetry_violations"] = [[i + 1 for i in v]
                                                 for v in exc.report.antisymmetry_violations]
        jacobi = doc["jacobi_violations"] = [[i + 1 for i in v]
                                             for v in exc.report.jacobi_violations]
        lines = ["verdict: invalid"]
        lines += ["antisymmetry violated at %s" % (tuple(v),) for v in anti]
        lines += ["jacobi violated on %s" % (tuple(v),) for v in jacobi]
        return 1, doc, lines
    except ValueError as exc:
        doc["reason"] = str(exc)
        return 1, doc, ["verdict: invalid", "reason: %s" % exc]
    doc["verdict"], doc["step"] = "valid", group.step
    return 0, doc, ["verdict: valid", "dim %d, polarization rank %d, step %s"
                    % (group.dim, group.rank, group.step)]


def _run_stratify(config):
    group = specfiles.load_group(config.paths[0])
    # the group constructor stratifies nilpotent groups already; stratify
    # again only for the reason a group without strata has none
    layers = group.strata
    if layers is None:
        try:
            layers = stratify(group.algebra, group.polarization.basis)
        except NotStratifiable as exc:
            doc = {"verdict": "not-stratifiable", "reason": str(exc)}
            return 1, doc, ["verdict: not-stratifiable", "reason: %s" % exc]
    doc = {
        "verdict": "stratified",
        "layer_dims": [len(layer) for layer in layers],
        "layers": [[[rat_str(v) for v in vec] for vec in layer] for layer in layers],
    }
    lines = ["verdict: stratified", "layer dims: %s" % (doc["layer_dims"],)]
    lines += ["V%d: (%s)" % (k, ", ".join(vec))
              for k, layer in enumerate(doc["layers"], start=1) for vec in layer]
    return 0, doc, lines


def _run_sublaplacian(config):
    group = specfiles.load_group(config.paths[0])
    try:
        op = sublaplacian(group)
    except NotNilpotent as exc:
        raise specfiles.SpecFileError(str(exc), filename=config.paths[0])
    table = specfiles.operator_to_dict(op)
    # the upper triangle of the symmetric second-order table, zeros skipped
    lines = ["verdict: ok"] + ["d%d d%d: %s" % (i + 1, j + 1, row[j])
                               for i, row in enumerate(table["second_order"])
                               for j in range(i, len(row)) if row[j] != "0"]
    lines += ["d%d: %s" % (i + 1, x) for i, x in enumerate(table["first_order"]) if x != "0"]
    return 0, {"verdict": "ok", "operator": table}, lines


def _run_equiv_frames(config):
    fx, fy = specfiles.load_frames(config.paths[0])
    try:
        decision = frames_equivalent(fx, fy)
    except ValueError as exc:
        raise specfiles.SpecFileError(str(exc), filename=config.paths[0])
    doc = {"verdict": "equivalent" if decision.equivalent else "not-equivalent"}
    lines = ["verdict: %s" % doc["verdict"]]
    if decision.witness is not None:
        doc["witness"] = [[rat_str(v) for v in row] for row in decision.witness]
        lines += ["witness row: (%s)" % ", ".join(row) for row in doc["witness"]]
    return (0 if decision.equivalent else 1), doc, lines


def _spectrum(path, omega, gram, tolerance):
    try:
        return symplectic_spectrum(omega, gram, tolerance)
    except ValueError as exc:
        raise specfiles.SpecFileError(str(exc), filename=path)


def _run_heis_spectrum(config):
    spec = _spectrum(config.paths[0], *specfiles.load_pair(config.paths[0]), config.tolerance)
    doc = {
        "verdict": "ok",
        "spectrum": ["%.12g" % v for v in spec.r],
        "tolerance": spec.tolerance,
    }
    lines = ["verdict: ok",
             "spectrum: %s" % ", ".join(doc["spectrum"]),
             "tolerance: %g" % spec.tolerance]
    return 0, doc, lines


def _run_heis_isometry(config):
    pairs = [specfiles.load_pair(path) for path in config.paths]
    try:
        psi, rho = build_isometry(*pairs[0], *pairs[1], config.tolerance)
    except NoIsometry:
        doc = {"verdict": "no-isometry", "tolerance": config.tolerance}
        return 1, doc, ["verdict: no-isometry"]
    except ValueError as exc:
        # a pair whose own spectrum fails is named as heis-spectrum names it;
        # a ratio outside the float range belongs to neither file
        for path, pair in zip(config.paths, pairs):
            _spectrum(path, *pair, config.tolerance)
        raise specfiles.SpecFileError(str(exc))
    doc = {
        "verdict": "isometric",
        "ratio": "%.12g" % rho,
        "matrix": [["%.12g" % v for v in row] for row in psi],
        "tolerance": config.tolerance,
    }
    lines = ["verdict: isometric", "ratio: %s" % doc["ratio"]]
    lines += ["psi row: (%s)" % ", ".join(row) for row in doc["matrix"]]
    return 0, doc, lines


def _load_map(config):
    """The source group, target group and map of analyze-map and verify,
    with each group checked nilpotent, source first, and the map's declared
    shape checked against them before any component is parsed."""
    source = specfiles.load_group(config.paths[0])
    target = specfiles.load_group(config.paths[1])
    for path, group in zip(config.paths, (source, target)):
        try:
            require_step(group)
        except NotNilpotent as exc:
            raise specfiles.SpecFileError(str(exc), filename=path)
    return source, target, specfiles.load_polymap(config.paths[2], (source.dim, target.dim))


def _run_analyze_map(config):
    source, target, f = _load_map(config)
    report = analyze_commutation(f, source, target, config.probe_degree)
    doc = {"verdict": "conformal" if report.conformal else "not-conformal"}
    doc.update(specfiles.report_to_dict(report))
    lines = ["verdict: %s" % doc["verdict"],
             "contact: %s" % json.dumps(doc["contact"])]
    if report.conformal:
        lines += ["lambda_sq: %s" % doc["lambda_sq"], "b: (%s)" % ", ".join(doc["b"])]
    else:
        lines.append("reason: %s" % doc["reason"])
        lines += ["residual: %s" % r for r in doc["residuals"][:5]]
    return (0 if report.conformal else 1), doc, lines


def _run_verify(config):
    source, target, f = _load_map(config)
    lam, b = specfiles.load_identity(config.paths[3], source.dim, target.dim)
    over = None
    try:
        bad = commutation_residuals(f, lam, b, source, target, config.probe_degree)
    except ProbeBudgetExceeded as exc:  # the identity fails; the listing is cut
        over, bad = exc, exc.witnesses
    except ValueError as exc:
        raise specfiles.SpecFileError(str(exc), filename=config.paths[3])
    holds = not bad and over is None
    doc = {
        "verdict": "holds" if holds else "fails",
        "probe_degree": config.probe_degree,
        "failures": [{"probe": str(u), "residual": str(r)} for u, r in bad],
    }
    lines = ["verdict: %s" % doc["verdict"],
             "probe degree: %d" % config.probe_degree]
    lines += ["probe %(probe)s: residual %(residual)s" % w for w in doc["failures"][:5]]
    if over is not None:
        doc["unlisted_probes"] = over.unlisted
        lines.append("unlisted probes: %d of %d, over the budget of %d"
                     % (over.unlisted, over.probes, over.budget))
    return (0 if holds else 1), doc, lines


# each subcommand once: name -> (runner, help text, file arguments in order)
_SUBCOMMANDS = {
    "validate": (_run_validate, "check the algebra axioms of a group file", ("group",)),
    "stratify": (_run_stratify, "stratify an algebra starting from its polarization",
                 ("group",)),
    "sublaplacian": (_run_sublaplacian, "print the coordinate sub-Laplacian", ("group",)),
    "equiv-frames": (_run_equiv_frames, "decide frame equivalence", ("frames",)),
    "heis-spectrum": (_run_heis_spectrum, "symplectic spectrum of an (omega, gram) pair",
                      ("pair",)),
    "heis-isometry": (_run_heis_isometry, "construct a conformal symplectic isometry",
                      ("pair1", "pair2")),
    "analyze-map": (_run_analyze_map, "analyze sub-Laplacian commutation along a map",
                    ("source_group", "target_group", "map")),
    "verify": (_run_verify, "verify a given (lambda_sq, b) commutation identity",
               ("source_group", "target_group", "map", "identity")),
}
COMMANDS = tuple(_SUBCOMMANDS)


def run(config: RunConfig):
    """Execute a command; returns (exit_code, report_dict, text_lines)."""
    runner, _, files = _SUBCOMMANDS[config.command]
    _expect_paths(config, len(files))
    return runner(config)


def _emit(config, code, doc, lines) -> int:
    """Write the report to stdout or --out; the exit code, 2 if --out fails."""
    if config.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    if not config.out:
        sys.stdout.write(text)
        return code
    try:
        with open(config.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write("error: cannot write %s: %s\n" % (config.out, exc.strerror or exc))
        return 2
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``sublap`` parser, built once per process and shared by every
    caller: ``parse_args`` makes a fresh Namespace per call and leaves the
    parser unchanged, so callers must not add to it either."""
    parser = argparse.ArgumentParser(
        prog="sublap",
        description="sub-Riemannian group calculus: validation, sub-Laplacians, "
                    "frame equivalence, Heisenberg spectra, map analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, files) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for f in files:
            p.add_argument(f, help="JSON description file")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="numeric tolerance (default 1e-9)")
        p.add_argument("--probe-degree", type=int, default=4,
                       help="max degree of the probe monomials a failing verify "
                            "lists as witnesses (default 4)")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format")
        p.add_argument("--out", default=None, help="write the report to a file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            command=args.command,
            paths=tuple(getattr(args, k) for k in _SUBCOMMANDS[args.command][2]),
            tolerance=args.tol,
            probe_degree=args.probe_degree,
            format=args.format,
            out=args.out,
        )
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    try:
        code, doc, lines = run(config)
    except specfiles.SpecFileError as exc:
        code, doc = 2, {"verdict": "error", "error": str(exc)}
        lines = ["verdict: error", "error: %s" % doc["error"]]
    return _emit(config, code, doc, lines)


if __name__ == "__main__":
    sys.exit(main())
