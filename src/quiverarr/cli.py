"""Command-line surface.

Every subcommand reads the text formats (.arr arrangements, .exp
exponents, .qvr quivers, .grp groups), runs one operation family, and
writes a deterministic JSON report (sorted keys, exact rationals as
strings) to stdout or --output.

Exit codes: 0 success, 2 malformed input, 3 violated hypothesis or
unsupported input, 4 internal inconsistency.  A .qvr quiver breaking its
relations exits 3 when read, naming up to five violations (check-quiver
reports them instead); an --exp quiver has scalar loops, so it is valid.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .arrangement import (build_graph, format_vertex_key, parse_arrangement,
                          parse_vertex_key, verify_graph_properties)
from .cohomology import (aomoto_report, flag_report, intersection_cohomology,
                         local_system_cohomology, perverse_cohomology,
                         scalar_from_exponents)
from .equivariant import EquivariantLevelZero, equivariant_cohomology, parse_group
from .errors import (HypothesisError, InternalInconsistencyError,
                     InvalidQuiverError, MissingLoopError, NotFiniteError,
                     ParseError, ShapeError, SymmetryError, UnsupportedError)
from .functors import (_push, fourier_dual, macpherson, push_shriek_step,
                       push_star_step, restrict, s0, specialize)
from .liecheck import KZInstance, kz_check
from .linalg import betti, parse_rational
from .oscomplex import (ExponentAssignment, aomoto_complex, flag_space,
                        os_space, parse_exponents, shapovalov_scalar)
from .quiver import LevelQuiver, _matrix_json, dual, parse_quiver, quiver_to_json

USAGE_ERRORS = (ParseError, ShapeError, MissingLoopError)
HYPOTHESIS_ERRORS = (UnsupportedError, HypothesisError, InvalidQuiverError,
                     SymmetryError, NotFiniteError)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(str(exc), path)


def _graph(args):
    arr = parse_arrangement(_read(args.arr), args.arr)
    return build_graph(arr)


def _exponents(args):
    if args.exp is None:
        raise ParseError("need --exp")
    a = parse_exponents(_read(args.exp), args.exp)
    if args.kappa is not None:
        a = ExponentAssignment(a.values, parse_rational(args.kappa, "--kappa"))
    return a


def _read_quiver(args, graph):
    """The quiver of --qvr or --exp, its relations unchecked."""
    if args.qvr:
        return parse_quiver(_read(args.qvr), graph, args.qvr)
    if args.exp:
        return scalar_from_exponents(graph, _exponents(args), dim=args.dim)
    raise ParseError("need --qvr or --exp")


def _quiver(args, graph):
    """The input quiver; a --qvr one must satisfy its relations."""
    v = _read_quiver(args, graph)
    bad = v.violated_relations if args.qvr else []
    if bad:
        raise InvalidQuiverError(f"input quiver relations fail: {bad[:5]}")
    return v


def _level_zero(args, graph):
    v = _quiver(args, graph)
    if not isinstance(v, LevelQuiver) or v.level != 0:
        raise ParseError("this command needs a level-zero quiver")
    return v


def cmd_lattice(args):
    g = _graph(args)
    verify_graph_properties(g)
    vertices = []
    for k in g.vertices:
        vertices.append({
            "id": format_vertex_key(k),
            "codim": g.level[k],
        })
    return {
        "ambient_dim": g.arrangement.ambient_dim,
        "hyperplanes": g.arrangement.size,
        "central": g.is_central(),
        "vertices": vertices,
        "vertex_count": len(g.vertices),
        "edges": sorted(sorted(format_vertex_key(v) for v in e) for e in g.edges),
        "edge_count": len(g.edges),
    }


def cmd_os(args):
    g = _graph(args)
    out = {"dims": {}, "bases": {}}
    for p in range(g.max_level + 1):
        osd = os_space(g, p)
        out["dims"][str(p)] = osd.dim
        out["bases"][str(p)] = [list(t) for t in osd.basis]
    return out


def cmd_flags(args):
    g = _graph(args)
    out = {"dims": {}, "bases": {}}
    for k in g.vertices:
        fb = flag_space(g, k)
        out["dims"][format_vertex_key(k)] = fb.dim
        out["bases"][format_vertex_key(k)] = [
            [format_vertex_key(v) for v in f] for f in fb.basis]
    return out


def cmd_aomoto(args):
    g = _graph(args)
    c = aomoto_complex(g, _exponents(args))
    return {
        "dims": list(c.dims),
        "differentials": [_matrix_json(d) for d in c.differentials],
        "betti": list(betti(c)),
    }


def cmd_check_quiver(args):
    g = _graph(args)
    v = _read_quiver(args, g)
    violations = v.violated_relations
    return {
        "level": v.level,
        "valid": not violations,
        "violations": [{"relation": name,
                        "vertices": [format_vertex_key(k) for k in keys]}
                       for name, keys in violations],
    }


def cmd_dual(args):
    g = _graph(args)
    return quiver_to_json(dual(_quiver(args, g)))


def cmd_restrict(args):
    g = _graph(args)
    v = _quiver(args, g)
    return quiver_to_json(restrict(v, args.level))


def cmd_push(args, star):
    g = _graph(args)
    v = _quiver(args, g)
    if not isinstance(v, LevelQuiver):
        raise ParseError("push needs a level quiver (set \"level\" in the .qvr)")
    target = args.level if args.level is not None else g.max_level
    if args.level is not None and not v.level < target <= g.max_level:
        allowed = (f"{v.level + 1}..{g.max_level}" if v.level < g.max_level
                   else "none (the input is at the top level)")
        raise ParseError(f"--level {target} is out of range for a level-{v.level} "
                         f"input: allowed {allowed}")
    if v.level == target:  # the default target of an input at the top level
        return quiver_to_json(v)
    v, witness = _push(v, target, push_star_step if star else push_shriek_step)
    return quiver_to_json(v, witness=witness.to_json())


def cmd_ic_quiver(args):
    g = _graph(args)
    w = _level_zero(args, g)
    mac = macpherson(g, w)
    return quiver_to_json(mac.quiver, witness=mac.witness.to_json())


def cmd_shapovalov(args):
    g = _graph(args)
    if args.qvr:
        w = _level_zero(args, g)
        s = s0(g, w)
        return {
            "kind": "quiver",
            "components": {format_vertex_key(k): _matrix_json(s.component(k))
                           for k in g.vertices},
        }
    s = shapovalov_scalar(g, _exponents(args))
    return {
        "kind": "scalar",
        "components": [_matrix_json(m) for m in s.components],
    }


def cmd_specialize(args):
    g = _graph(args)
    v = _quiver(args, g)
    spq, sp = specialize(v, parse_vertex_key(args.vertex))
    out = quiver_to_json(spq)
    out["classes"] = {"|".join(names): names for names in
                      ([format_vertex_key(m) for m in ck] for ck in sp.classes)}
    return out


def cmd_fourier(args):
    g = _graph(args)
    return quiver_to_json(fourier_dual(_quiver(args, g)))


def cmd_cohomology(args):
    g = _graph(args)
    if args.model == "perverse":
        return perverse_cohomology(_quiver(args, g)).to_json()
    if args.model == "local":
        return local_system_cohomology(g, _level_zero(args, g)).to_json()
    if args.model == "ih":
        return intersection_cohomology(g, _level_zero(args, g)).to_json()
    if args.model == "aomoto":
        return aomoto_report(g, _exponents(args)).to_json()
    if args.model == "flag":
        return flag_report(g).to_json()
    raise ParseError(f"unknown model {args.model!r}")


def cmd_equivariant(args):
    g = _graph(args)
    w = _level_zero(args, g)
    act = parse_group(_read(args.grp), g.arrangement, args.grp)
    eq = EquivariantLevelZero.trivial(g, w, act)
    rep = equivariant_cohomology(act, eq, args.functor,
                                 twist_by_det=args.twist_det)
    out = rep.to_json()
    out["group_order"] = act.order
    return out


def cmd_kz_check(args):
    kappa = parse_rational(args.kappa, "--kappa") if args.kappa else None
    inst = KZInstance(args.type, args.highest, args.weights, kappa)
    return kz_check(inst, grid_bound=args.bound)


def cmd_selftest(args):
    from .selftest import run_selftest
    report = run_selftest(seed=args.seed)
    return report


def _rank(text):
    """The value of --dim: an integer rank of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"the rank must be at least 1, got {n}")
    return n


def build_parser():
    p = argparse.ArgumentParser(prog="quiverarr",
                                description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--output", help="write the JSON report to this path")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_arr=True, quiver_input=False, **extra):
        sp = sub.add_parser(name)
        if needs_arr:
            sp.add_argument("arr", help="arrangement file (.arr)")
        if quiver_input:
            sp.add_argument("--qvr", help="quiver file (.qvr)")
            sp.add_argument("--exp", help="exponents file (.exp), scalar quiver")
            sp.add_argument("--dim", type=_rank, default=1,
                            help="rank (at least 1) of the scalar quiver built from --exp")
            sp.add_argument("--kappa", help="override the divisor of the .exp file")
        sp.set_defaults(fn=fn)
        return sp

    add("lattice", cmd_lattice)
    add("os", cmd_os)
    add("flags", cmd_flags)
    sp = add("aomoto", cmd_aomoto)
    sp.add_argument("--exp", required=True)
    sp.add_argument("--kappa", help="override the divisor of the .exp file")
    add("check-quiver", cmd_check_quiver, quiver_input=True)
    add("dual", cmd_dual, quiver_input=True)
    sp = add("restrict", cmd_restrict, quiver_input=True)
    sp.add_argument("--level", type=int, required=True)
    sp = add("push-star", lambda a: cmd_push(a, True), quiver_input=True)
    sp.add_argument("--level", type=int, help="target level (default: top)")
    sp = add("push-shriek", lambda a: cmd_push(a, False), quiver_input=True)
    sp.add_argument("--level", type=int, help="target level (default: top)")
    add("ic-quiver", cmd_ic_quiver, quiver_input=True)
    add("shapovalov", cmd_shapovalov, quiver_input=True)
    sp = add("specialize", cmd_specialize, quiver_input=True)
    sp.add_argument("--vertex", required=True, help="base vertex, e.g. (1)")
    add("fourier", cmd_fourier, quiver_input=True)
    sp = add("cohomology", cmd_cohomology, quiver_input=True)
    sp.add_argument("--model", required=True,
                    choices=["perverse", "local", "ih", "aomoto", "flag"])
    sp = add("equivariant", cmd_equivariant, quiver_input=True)
    sp.add_argument("--grp", required=True, help="group file (.grp)")
    sp.add_argument("--functor", required=True,
                    choices=["star", "shriek", "macpherson"])
    sp.add_argument("--twist-det", action="store_true")
    sp = add("kz-check", cmd_kz_check, needs_arr=False)
    sp.add_argument("--type", required=True, choices=["A1", "A2", "A3", "B2"])
    sp.add_argument("--highest", type=int, nargs="+", required=True)
    sp.add_argument("--weights", type=int, nargs="+", required=True)
    sp.add_argument("--kappa", help="deformation parameter (rational)")
    sp.add_argument("--bound", type=int, default=5)
    sp = add("selftest", cmd_selftest, needs_arr=False)
    sp.add_argument("--seed", type=int, default=0)
    return p


@functools.cache
def _parser():
    """The parser of `main`, built on the first call only: building the
    whole subcommand tree costs more than a small run.  Parsing leaves it
    unchanged (no option has a mutable default)."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        report = args.fn(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HYPOTHESIS_ERRORS as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4
    blob = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob)
    if args.command == "selftest" and not report.get("ok", False):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
