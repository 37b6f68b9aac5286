"""Command-line surface: amc, grad, oracle, bench, validate.

Real-valued outputs print with shortest round-trip precision so identical
computations diff as identical text; log-domain semirings print with a
``log:`` prefix to avoid silent exponentiation.

Exit codes: 0 ok, 2 usage, 3 parse error or unreadable input, 4 structural
gate / validation failure, 5 unsupported operation, 6 oracle scale guard, 1
anything else.
"""

from __future__ import annotations

import argparse
import sys

from . import bench as bench_mod
from .backprop import VARIANTS, grad_amc, forward, variable_gradient
from .circuits import (DEFAULT_DETERMINISM_BUDGET, default_labels,
                       determinism_budget, parse_d4, parse_weights, smooth,
                       validate)
from .errors import (AmckitError, ConfigError, ParseError, ScaleError,
                     StructureError, UnsupportedOperationError)
from .formulas import oracle_amc, oracle_grad, oracle_hessian, read_dimacs
from .literals import literal_order
from .semirings import SEMIRING_NAMES, make_semiring

EXIT_ERROR = 1
EXIT_PARSE = 3
EXIT_STRUCTURE = 4
EXIT_UNSUPPORTED = 5
EXIT_SCALE = 6


def _load_circuit(args, semiring):
    circuit = parse_d4(args.circuit)
    if getattr(args, "smooth", False):
        circuit = smooth(circuit)
    if args.weights:
        labels = parse_weights(args.weights, semiring)
    else:
        labels = default_labels(semiring, circuit.num_vars)
    return circuit, labels


def _print_grad_lines(grads, semiring, out):
    for lit in literal_order(grads.num_vars):
        print(f"{lit} {semiring.format_value(grads.get(lit))}", file=out)


def _cmd_amc(args, out):
    semiring = make_semiring(args.semiring)
    circuit, labels = _load_circuit(args, semiring)
    tape = forward(circuit, labels, semiring)
    print(semiring.format_value(tape.root_value), file=out)
    return 0


def _cmd_grad(args, out):
    semiring = make_semiring(args.semiring)
    circuit, labels = _load_circuit(args, semiring)
    _, grads = grad_amc(circuit, labels, semiring, algo=args.algo)
    if args.per_variable:
        values = variable_gradient(grads, semiring)
        for v, value in enumerate(values, 1):
            print(f"{v} {semiring.format_value(value)}", file=out)
    else:
        _print_grad_lines(grads, semiring, out)
    return 0


def _cmd_oracle(args, out):
    semiring = make_semiring(args.semiring)
    if args.cnf:
        formula, _ = read_dimacs(args.cnf)
    else:
        from .circuits import circuit_to_formula
        formula = circuit_to_formula(parse_d4(args.circuit))
    if args.weights:
        labels = parse_weights(args.weights, semiring)
    else:
        from .formulas import formula_variables
        labels = default_labels(semiring, max(formula_variables(formula),
                                              default=0))
    if args.mode == "amc":
        print(semiring.format_value(oracle_amc(formula, labels, semiring)),
              file=out)
    elif args.mode == "grad":
        _print_grad_lines(oracle_grad(formula, labels, semiring), out=out,
                          semiring=semiring)
    else:
        rows = oracle_hessian(formula, labels, semiring, positive_only=True)
        for row in rows:
            print(" ".join(semiring.format_value(v) for v in row), file=out)
    return 0


def _cmd_bench(args, out):
    # every circuit is smoothed (a smooth one is kept as is), so d4 output
    # runs; one that does not parse or smooth is an error row of a suite
    semiring = make_semiring(args.semiring)
    variants = [v.strip() for v in args.algos.split(",") if v.strip()]
    named = []
    if args.circuit:
        named.append((args.circuit, smooth(parse_d4(args.circuit))))
    else:
        import glob
        import os
        paths = sorted(glob.glob(os.path.join(args.suite, "*.nnf")))
        if not paths:
            raise ConfigError(f"no .nnf files under {args.suite!r}")
        for path in paths:
            try:
                named.append((os.path.basename(path), smooth(parse_d4(path))))
            except AmckitError as exc:
                named.append((os.path.basename(path), exc))
    records = bench_mod.run_suite(
        named, semiring, variants, repeat=args.repeat, warmup=args.warmup,
        seed=args.seed)
    out.write(bench_mod.records_to_csv(records))
    return 0


def _cmd_validate(args, out):
    circuit = parse_d4(args.circuit)
    report = validate(circuit, args.determinism_budget)
    print(f"smooth: {'true' if report.smooth else 'false'}", file=out)
    print(f"decomposable: {'true' if report.decomposable else 'false'}",
          file=out)
    print(f"deterministic: {report.deterministic}", file=out)
    print(f"nodes: {circuit.node_count} edges: {circuit.edge_count} "
          f"vars: {circuit.num_vars}", file=out)
    return 0 if (report.smooth and report.decomposable) else EXIT_STRUCTURE


def _budget(text):
    try:
        return determinism_budget(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _at_least(low):
    """An argparse type for integers of at least ``low``."""
    def count(text):
        if not text.removeprefix("-").isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer of at least {low}, got {text!r}")
        return int(text)
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amckit",
        description="Semiring model counts and gradients on NNF circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, weights_required=False):
        p.add_argument("--circuit", required=True, help="d4-style NNF file")
        p.add_argument("--weights", required=weights_required,
                       help="weight file (v/l lines)")
        p.add_argument("--semiring", required=True, choices=SEMIRING_NAMES)
        p.add_argument("--smooth", action="store_true",
                       help="apply the smoothing transform before evaluating")

    p_amc = sub.add_parser("amc", help="model count of a circuit")
    add_common(p_amc)

    p_grad = sub.add_parser("grad", help="per-literal conditioned counts")
    add_common(p_grad)
    p_grad.add_argument("--algo", default="opt", choices=tuple(VARIANTS))
    p_grad.add_argument("--per-variable", action="store_true",
                        dest="per_variable",
                        help="combine polarities (ring semirings only)")

    p_oracle = sub.add_parser("oracle",
                              help="brute-force reference on a CNF or circuit")
    src = p_oracle.add_mutually_exclusive_group(required=True)
    src.add_argument("--cnf", help="DIMACS CNF file")
    src.add_argument("--circuit", help="d4-style NNF file")
    p_oracle.add_argument("--weights")
    p_oracle.add_argument("--semiring", required=True, choices=SEMIRING_NAMES)
    p_oracle.add_argument("--mode", default="amc",
                          choices=("amc", "grad", "hessian"))

    p_bench = sub.add_parser("bench", help="variant timing comparison as CSV")
    src = p_bench.add_mutually_exclusive_group(required=True)
    src.add_argument("--circuit", help="single NNF file")
    src.add_argument("--suite", help="directory of .nnf files")
    p_bench.add_argument("--semiring", default="prob", choices=SEMIRING_NAMES)
    p_bench.add_argument("--algos", default=",".join(VARIANTS))
    p_bench.add_argument("--repeat", type=_at_least(1), default=10)
    p_bench.add_argument("--warmup", type=_at_least(0), default=1)
    p_bench.add_argument("--seed", type=int, default=1234)

    p_val = sub.add_parser("validate", help="structural property report")
    p_val.add_argument("--circuit", required=True)
    p_val.add_argument("--determinism-budget", type=_budget,
                       default=None, dest="determinism_budget",
                       help="variable budget for the exhaustive determinism "
                            "check (default: $AMCKIT_DETERMINISM_BUDGET, "
                            f"else {DEFAULT_DETERMINISM_BUDGET})")
    return parser


_HANDLERS = {
    "amc": _cmd_amc,
    "grad": _cmd_grad,
    "oracle": _cmd_oracle,
    "bench": _cmd_bench,
    "validate": _cmd_validate,
}


# the exit code of each error class, most specific class first
_EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    (OSError, EXIT_PARSE),
    (StructureError, EXIT_STRUCTURE),
    (UnsupportedOperationError, EXIT_UNSUPPORTED),
    (ScaleError, EXIT_SCALE),
    (AmckitError, EXIT_ERROR),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args, sys.stdout)
    except (AmckitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
