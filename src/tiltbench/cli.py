"""Command-line workbench.

Exit codes: 0 = computed, positive verdict where applicable; 1 = computed
but the verdict is negative (not tilting, criterion fails, image not
concentrated); 2 = error (parse failure, bad preconditions, validation).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import serialize
from .errors import NotConcentrated, TiltbenchError
from .reps import projective, radical_layers
from .tilting import TiltingContext, construct_tpq, maximal_nu_stable, verify_tilting


def _emit(args, payload: dict, text_lines=None):
    if args.format == "text" and text_lines is not None:
        out = "\n".join(text_lines) + "\n"
    else:
        out = serialize.dumps(payload)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _layers_as_labels(m):
    return [sorted(k for k, v in layer.items() for _ in range(v)) for layer in radical_layers(m)]


def cmd_alg_check(args):
    a = serialize.load_algebra(args.algebra, args.max_path_len)
    projs = {}
    for v in a.quiver.vertices:
        p = projective(a, v)
        projs[v] = {
            "dims": {w: p.dims[w] for w in a.quiver.vertices if p.dims[w]},
            "loewy": _layers_as_labels(p),
        }
    cartan = [[int(x) for x in row] for row in a.cartan_matrix().data]
    payload = {
        "format": serialize.FORMAT,
        "kind": "alg_check",
        "dim": a.dim,
        "vertices": list(a.quiver.vertices),
        "cartan": cartan,
        "radical_dim": len(a.radical_basis()),
        "projectives": projs,
    }
    lines = [f"dimension {a.dim}, radical dimension {payload['radical_dim']}"]
    for v in a.quiver.vertices:
        loewy = " / ".join(
            lab[0] if len(lab) == 1 else "{" + ",".join(lab) + "}" for lab in projs[v]["loewy"]
        )
        lines.append(f"P({v}): {loewy}")
    _emit(args, payload, lines)
    return 0


def cmd_nust(args):
    a = serialize.load_algebra(args.algebra, args.max_path_len)
    rep = maximal_nu_stable(a)
    payload = {"format": serialize.FORMAT}
    payload.update(rep.to_dict())
    lines = ["E = " + (" + ".join(f"P({v})" for v in rep.e_labels) if rep.e_labels else "0")]
    _emit(args, payload, lines)
    return 0


def cmd_tilting_construct(args):
    a = serialize.load_algebra(args.algebra, args.max_path_len)
    p_labels = [x for x in args.p.split(",") if x] if args.p else []
    q_labels = [x for x in args.q.split(",") if x] if args.q else []
    built = construct_tpq(a, p_labels, q_labels, args.r, args.s)
    payload = serialize.complex_to_dict(built.complex)
    payload["provenance"] = {
        "construction": "tpq",
        "p": built.p_labels,
        "q": built.q_labels,
        "r": built.r,
        "s": built.s,
    }
    _emit(args, payload)
    return 0


def cmd_tilting_verify(args):
    a = serialize.load_algebra(args.algebra, args.max_path_len)
    t = serialize.load_complex(args.cpx, algebra=a)
    report = verify_tilting(t)
    payload = {"format": serialize.FORMAT}
    payload.update(report.to_dict())
    lines = [
        f"self-orthogonal: {report.self_orthogonal_ok}",
        f"class matrix unimodular: {report.k0_unimodular}",
        f"basic: {report.basic}",
        f"verdict: {report.is_tilting_verdict}",
    ]
    _emit(args, payload, lines)
    return 0 if report.is_tilting_verdict else 1


def cmd_endalg(args):
    a = serialize.load_algebra(args.algebra, args.max_path_len)
    t = serialize.load_complex(args.cpx, algebra=a)
    ctx = TiltingContext(a, t)
    end = ctx.end_data()
    payload = serialize.algebra_to_dict(end.presentation.algebra)
    payload["endomorphism_dimension"] = end.abstract.dim
    _emit(args, payload)
    return 0


def cmd_nustable_check(args):
    a = serialize.load_algebra(args.algebra, args.max_path_len)
    t = serialize.load_complex(args.cpx, algebra=a)
    ctx = TiltingContext(a, t)
    report = ctx.check_iterated_nu_stable()
    simple_images = ctx.check_simple_images()
    payload = {
        "format": serialize.FORMAT,
        "criterion": report,
        "simple_images": simple_images,
        "verdict": report["verdict"],
    }
    lines = [
        "E = " + " + ".join(f"P({v})" for v in report["E"]),
        f"term criterion: {report['verdict']}",
        f"simple images: {simple_images['verdict']}",
    ]
    _emit(args, payload, lines)
    return 0 if report["verdict"] else 1


def cmd_stable_image(args):
    a = serialize.load_algebra(args.algebra, args.max_path_len)
    t = serialize.load_complex(args.cpx, algebra=a)
    x = serialize.load_module(args.module, algebra=a)
    ctx = TiltingContext(a, t)
    try:
        cert = ctx.stable_image(x)
    except NotConcentrated as exc:
        payload = {
            "format": serialize.FORMAT,
            "kind": "stable_image",
            "concentrated": False,
            "profile": {str(k): v for k, v in sorted(exc.profile.items())},
        }
        _emit(args, payload)
        return 1
    payload = {"format": serialize.FORMAT, "concentrated": True}
    payload.update(cert.to_dict())
    _emit(args, payload)
    return 0


def cmd_recheck(args):
    """Recompute a previously emitted report from its inputs and compare."""
    import io
    from contextlib import redirect_stdout

    report = serialize._file_object(serialize.load_json(args.report), "report")
    kind = report.get("kind")

    def flag(option, value):
        if value is None:
            raise TiltbenchError(f"recheck of {args.report} needs {option}")
        return value

    def recompute(fn, **kw):
        ns = argparse.Namespace(format="json", output=None, max_path_len=args.max_path_len, **kw)
        buf = io.StringIO()
        with redirect_stdout(buf):
            fn(ns)
        return serialize.load_json_str(buf.getvalue())

    if "endomorphism_dimension" in report:
        fresh = recompute(cmd_endalg, algebra=args.alg, cpx=flag("--cpx", args.cpx))
    elif kind == "alg_check":
        fresh = recompute(cmd_alg_check, algebra=args.alg)
    elif kind == "nu_stable":
        fresh = recompute(cmd_nust, algebra=args.alg)
    elif kind == "tilting_report":
        fresh = recompute(cmd_tilting_verify, algebra=args.alg, cpx=flag("--cpx", args.cpx))
    elif kind == "stable_image" or "concentrated" in report:
        fresh = recompute(
            cmd_stable_image, algebra=args.alg, cpx=flag("--cpx", args.cpx), module=flag("--mod", args.mod)
        )
    elif "criterion" in report:
        fresh = recompute(cmd_nustable_check, algebra=args.alg, cpx=flag("--cpx", args.cpx))
    elif "terms" in report and "diffs" in report:
        # a constructed complex: re-run the construction recorded in it
        prov = serialize._field(report, "provenance", "provenance", dict, {})
        if prov.get("construction") != "tpq":
            raise TiltbenchError("complex file carries no recheckable provenance")
        r, s = prov.get("r", 1), prov.get("s", 1)
        if type(r) is not int or type(s) is not int:
            raise TiltbenchError(f"provenance: r and s must be integers, got {r!r} and {s!r}")
        fresh = recompute(
            cmd_tilting_construct,
            algebra=args.alg,
            p=",".join(map(str, serialize._field(prov, "p", "provenance.p", list, []))),
            q=",".join(map(str, serialize._field(prov, "q", "provenance.q", list, []))),
            r=r,
            s=s,
        )
    else:
        raise TiltbenchError(f"cannot recheck report of kind {kind!r}")
    ok = fresh == report
    out = {"format": serialize.FORMAT, "kind": "recheck", "target": kind, "matches": ok}
    _emit(args, out, [f"recheck: {'ok' if ok else 'MISMATCH'}"])
    return 0 if ok else 1


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared afterwards:
    parsing leaves it unchanged and gives each argv a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="tiltbench",
        description="workbench for quiver algebras, tilting complexes, and stable images",
    )
    parser.add_argument("--max-path-len", type=int, default=30, help="fail when normal forms survive at this length")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("-o", "--output", default=None, help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    alg = sub.add_parser("alg", help="algebra inspection")
    alg_sub = alg.add_subparsers(dest="subcommand", required=True)
    ac = alg_sub.add_parser("check", help="dimensions, Cartan matrix, Loewy layers")
    ac.add_argument("algebra")
    ac.set_defaults(func=cmd_alg_check)

    nust = sub.add_parser("nust", help="maximal stable projective module")
    nust.add_argument("algebra")
    nust.set_defaults(func=cmd_nust)

    tilting = sub.add_parser("tilting", help="construct or verify tilting complexes")
    t_sub = tilting.add_subparsers(dest="subcommand", required=True)
    tc = t_sub.add_parser("construct", help="approximation construction")
    tc.add_argument("algebra")
    tc.add_argument("--p", default="", help="comma-separated vertex labels for P")
    tc.add_argument("--q", default="", help="comma-separated vertex labels for Q")
    tc.add_argument("-r", type=int, default=1)
    tc.add_argument("-s", type=int, default=1)
    tc.set_defaults(func=cmd_tilting_construct)
    tv = t_sub.add_parser("verify", help="self-orthogonality, class matrix, basicness")
    tv.add_argument("algebra")
    tv.add_argument("cpx")
    tv.set_defaults(func=cmd_tilting_verify)

    endalg = sub.add_parser("endalg", help="endomorphism algebra as quiver with relations")
    endalg.add_argument("algebra")
    endalg.add_argument("cpx")
    endalg.set_defaults(func=cmd_endalg)

    nsc = sub.add_parser("nustable", help="stability criterion for a tilting complex")
    n_sub = nsc.add_subparsers(dest="subcommand", required=True)
    nc = n_sub.add_parser("check")
    nc.add_argument("algebra")
    nc.add_argument("cpx")
    nc.set_defaults(func=cmd_nustable_check)

    si = sub.add_parser("stable-image", help="image module of the induced stable equivalence")
    si.add_argument("algebra")
    si.add_argument("cpx")
    si.add_argument("module")
    si.set_defaults(func=cmd_stable_image)

    rc = sub.add_parser("recheck", help="re-verify an emitted report against its inputs")
    rc.add_argument("report")
    rc.add_argument("--alg", required=True)
    rc.add_argument("--cpx", default=None)
    rc.add_argument("--mod", default=None)
    rc.set_defaults(func=cmd_recheck)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    main may be called repeatedly in one process: the parser is built on the
    first call and reused, and each call parses argv into a fresh Namespace,
    so no option carries over from one call to the next.  A usage error
    raises SystemExit(2), as argparse does."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TiltbenchError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
