"""Command-line front end.

Verbs: skeleton, check, uniformity, generate, verify-theorem, compose.
Exit codes: 0 success or positive verdict, 1 negative verdict, 2 input
error, 3 internal inconsistency (the two conservativity checkers disagree).
All output is deterministic for identical inputs and seeds.  Each verb
imports the package modules it runs, so none loads code it does not use,
and judges its flags by the numpy-free errors before it loads numpy.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DEFAULT_TOL, MAX_DIMENSION, CompositionError, NGroupoidError, check_tolerance

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_INPUT


def tolerance(text: str) -> float:
    """argparse type of every --tol flag: a finite number > 0."""
    value = float(text)  # text that is no number gets argparse's own message
    try:
        return check_tolerance(value)
    except ValueError as exc:  # argparse prints only an ArgumentTypeError's words
        raise argparse.ArgumentTypeError(str(exc)) from None


def seed(text: str) -> int:
    """argparse type of every --seed flag: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _write_json(doc: dict, path: str) -> None:
    import json
    _emit(json.dumps(doc, indent=2) + "\n", path)


def _emit(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout; a failed write is an input error."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise NGroupoidError(f"cannot write {out}: {exc}") from exc


def cmd_skeleton(args) -> int:
    n = args.n
    if not 1 <= n <= MAX_DIMENSION:
        return _fail(f"--n must lie in 1..{MAX_DIMENSION}, got {n}")
    if args.h is not None and not 0 <= args.h < n:
        return _fail(f"--h must lie in 0..{n - 1}, got {args.h}")
    from .hypercube import HypercubeSkeleton, count_faces
    if args.h is not None:
        print(count_faces(n, args.h))
        return EXIT_OK
    skel = HypercubeSkeleton(n)
    # count_faces excludes the whole cube, but the 2-cube is its own one square
    print(f"vertices: {skel.num_vertices}, edges: {skel.num_edges}"
          + (f", 2-faces: {count_faces(n, 2) if n > 2 else 1}" if n >= 2 else ""))
    print(
        "h-face counts: "
        + ", ".join(f"h={h}: {count_faces(n, h)}" for h in range(n))
    )
    if n <= 6:
        for axis in range(1, n + 1):
            f0, f1 = (",".join(map(str, skel.facet_vertices(axis, bit))) for bit in (0, 1))
            print(f"facet pair axis {axis}: {{{f0}}} / {{{f1}}}")
    else:
        print(f"facet pairs: {2 * n} facets, 2 per axis")
    if args.edges:
        for (tail, axis), head in zip(skel.edges(), skel.edge_heads.tolist()):
            print(f"{tail} -{axis}-> {head}")
    return EXIT_OK


def cmd_check(args) -> int:
    from .lean import read_in_child
    path = args.skeleton_file
    with read_in_child(path) as read:  # a large file is read in a child while numpy loads
        from .analysis import conservative_oracle, is_conservative
        from .skeleton import skeleton_from_parts
        T = skeleton_from_parts(*read())
    tol = args.tol
    if args.mixture:
        from .mixture import load_mixture
        mix = load_mixture(args.mixture)
        try:
            T.validate_against(mix)
        except ValueError as exc:
            return _fail(f"{args.skeleton_file}: {exc}")
        if tol is None:
            tol = mix.tolerance
    if tol is None:
        tol = DEFAULT_TOL
    report = is_conservative(T, tol)
    oracle = conservative_oracle(T, tol)
    if report.verdict:
        print("face check: conservative")
    else:
        print(f"face check: not conservative ({len(report.witnesses)} witness faces)")
        for w in report.witnesses:
            print(
                f"witness face corner={w.corner} "
                f"axes=({w.axes[0]},{w.axes[1]}) deviation={w.deviation:.3e}"
            )
    print(f"potential check: {'conservative' if oracle else 'not conservative'}")
    if args.out:
        doc = report.to_dict()
        doc["potential_check"] = oracle
        _write_json(doc, args.out)
    if report.verdict != oracle:
        print("checkers disagree: internal inconsistency")
        return EXIT_INTERNAL
    print(f"checkers agree: {'conservative' if report.verdict else 'not conservative'}")
    return EXIT_OK if report.verdict else EXIT_NEGATIVE


def cmd_uniformity(args) -> int:
    from .analysis import is_uniform
    from .mixture import load_mixture
    mix = load_mixture(args.mixture_file)
    rep = is_uniform(mix)
    for name, ok in rep.constituent_transitivity.items():
        print(f"constituent {name}: {'transitive' if ok else 'not transitive'}")
    print(f"core: {'transitive' if rep.verdict else 'not transitive'}")
    if rep.defect_pairs:
        print(
            "defect pairs: "
            + " ".join(f"{s}->{t}" for s, t in rep.defect_pairs)
        )
    else:
        print("defect pairs: none")
    if not rep.verdict and all(rep.constituent_transitivity.values()):
        print("note: all constituents individually uniform")
    print(f"verdict: {'uniform' if rep.verdict else 'not uniform'}")
    if args.out:
        _write_json(rep.to_dict(), args.out)
    return EXIT_OK if rep.verdict else EXIT_NEGATIVE


def cmd_generate(args) -> int:
    if not 1 <= args.n <= MAX_DIMENSION:
        return _fail(f"--n must lie in 1..{MAX_DIMENSION}, got {args.n}")
    import numpy as np
    from .analysis import perturb_edge, random_conservative
    from .skeleton import dump_skeleton
    rng = np.random.default_rng(args.seed)
    T = random_conservative(args.n, rng)
    if args.mode == "perturbed":
        T, _edge = perturb_edge(T, rng)
    _emit(dump_skeleton(T), args.out)
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    if not 2 <= args.n <= MAX_DIMENSION:
        return _fail(f"--n must lie in 2..{MAX_DIMENSION}, got {args.n}")
    if args.trials < 1:
        return _fail(f"--trials must be >= 1, got {args.trials}")
    from .analysis import theorem_sweep
    tol = DEFAULT_TOL if args.tol is None else args.tol
    res = theorem_sweep(args.n, args.trials, args.seed, tol)
    t = res["trials"]
    total = res["agree_conservative"] + res["agree_perturbed"]
    print(f"conservative: {res['agree_conservative']}/{t} agreements")
    print(f"perturbed: {res['agree_perturbed']}/{t} agreements")
    print(f"total: {total}/{2 * t} agreements")
    print(
        "max holonomy deviation on conservative instances: "
        f"{res['max_deviation_conservative']:.3e}"
    )
    if total != 2 * t:
        print("checkers disagree: internal inconsistency")
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_compose(args) -> int:
    from .lean import read_in_child
    # large files are read in children while numpy loads; the first file's error comes first
    with read_in_child(args.first) as read_first, read_in_child(args.second) as read_second:
        from .skeleton import compose, dump_skeleton, skeleton_from_parts
        first = skeleton_from_parts(*read_first())
        second = skeleton_from_parts(*read_second())
    if not 1 <= args.axis <= max(first.n, second.n):
        return _fail(f"--axis must lie in 1..{max(first.n, second.n)}, got {args.axis}")
    tol = DEFAULT_TOL if args.tol is None else args.tol
    try:
        result = compose(second, first, args.axis, tol)
    except CompositionError as exc:
        print(f"not composable: {exc}")
        return EXIT_NEGATIVE
    except ValueError as exc:  # a glued weight overflowed or is singular
        return _fail(f"composed skeleton: {exc}")
    _emit(dump_skeleton(result), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ngroupoid",
        description=(
            "Weighted hypercube skeletons: construction, composition, "
            "conservativity and uniformity analysis."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("skeleton", help="counts and structure of the n-cube skeleton")
    s.add_argument("--n", type=int, required=True, help="dimension")
    s.add_argument("--h", type=int, default=None,
                   help="print only the number of h-faces")
    s.add_argument("--edges", action="store_true",
                   help="also list oriented edges with their classes")
    s.set_defaults(func=cmd_skeleton)

    c = sub.add_parser("check", help="decide conservativity of a skeleton file")
    c.add_argument("skeleton_file")
    c.add_argument("--mixture", default=None,
                   help="validate edge arrows against this mixture file")
    c.add_argument("--tol", type=tolerance, default=None)
    c.add_argument("--out", default=None, help="write the JSON report here")
    c.set_defaults(func=cmd_check)

    u = sub.add_parser("uniformity", help="core transitivity verdict for a mixture")
    u.add_argument("mixture_file")
    u.add_argument("--out", default=None, help="write the JSON report here")
    u.set_defaults(func=cmd_uniformity)

    g = sub.add_parser("generate", help="write a random skeleton file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--mode", choices=("conservative", "perturbed"),
                   default="conservative")
    g.add_argument("--seed", type=seed, default=0)
    g.add_argument("--out", default=None, help="output path (default stdout)")
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("verify-theorem",
                       help="sweep both conservativity checkers for agreement")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--seed", type=seed, default=0)
    v.add_argument("--tol", type=tolerance, default=None)
    v.set_defaults(func=cmd_verify_theorem)

    co = sub.add_parser("compose",
                        help="compose two skeleton files along an axis "
                             "(first argument is traversed first)")
    co.add_argument("first")
    co.add_argument("second")
    co.add_argument("--axis", type=int, required=True)
    co.add_argument("--tol", type=tolerance, default=None)
    co.add_argument("--out", default=None, help="output path (default stdout)")
    co.set_defaults(func=cmd_compose)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except NGroupoidError as exc:
        return _fail(str(exc))
