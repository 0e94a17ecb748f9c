"""Cohomological endpoints, reported as Betti numbers of C+ complexes.

Each endpoint states its hypotheses in the report.  "Close to zero" is
unquantified in the underlying theory; the verified sufficient condition
used here is that the input is a spectrum quiver whose per-stratum sums
satisfy |lambda_alpha| < 1.  Anything else computes the same numbers with
the hypothesis marked undetermined, and a non-central arrangement is
refused outright.
"""

from __future__ import annotations

from .arrangement import ArrangementGraph
from .errors import ShapeError, UnsupportedError
from .functors import j0_star, macpherson
from .linalg import ChainComplex, Matrix, Q0, betti, char_poly_roots
from .oscomplex import ExponentAssignment, aomoto_complex, flag_complex
from .quiver import (LevelQuiver, Quiver, c_plus, level_zero_quiver,
                     local_ops, spectrum_lambda, Spectrum)


class CohomologyReport:
    """Betti table of one endpoint plus the hypothesis bookkeeping."""

    def __init__(self, model, betti_map, hypotheses, grading_note):
        self.model = model
        self.betti = {int(k): int(v) for k, v in betti_map.items()}
        self.euler = sum(-v if k % 2 else v for k, v in self.betti.items())
        self.hypotheses = list(hypotheses)
        self.grading_note = grading_note

    def to_json(self):
        return {
            "model": self.model,
            "betti": {str(k): v for k, v in sorted(self.betti.items())},
            "euler": self.euler,
            "hypotheses": [{"name": n, "status": s} for n, s in self.hypotheses],
            "grading_note": self.grading_note,
        }


def scalar_from_exponents(graph: ArrangementGraph, a: ExponentAssignment,
                          dim=1) -> LevelQuiver:
    """The level-zero quiver of the trivial rank-`dim` bundle with
    connection exponents a: loop operators a(H_j) times the identity."""
    a.for_arrangement(graph.arrangement)
    ident = Matrix.identity(dim)
    return level_zero_quiver(
        graph, dim,
        {j: ident.scale(a.of(j)) for j in range(1, graph.arrangement.size + 1)})


def spectrum_of_level_zero(graph, w: LevelQuiver):
    """The per-hyperplane single eigenvalues, when every loop operator has
    one; None otherwise."""
    values = {}
    top = graph.top()
    dim = w.dim(top)
    for j in range(1, graph.arrangement.size + 1):
        op = w.loop(top, (j,))
        _, roots, split = char_poly_roots(op)
        if not split or len(set(roots)) > (1 if dim else 0):
            return None
        values[j] = roots[0] if roots else Q0
    return Spectrum(values)


def smallness_status(graph, w: LevelQuiver):
    """'verified' when the input is a spectrum quiver with every
    |lambda_alpha| < 1, else 'undetermined'."""
    s = spectrum_of_level_zero(graph, w)
    if s is None:
        return "undetermined"
    for k in graph.vertices:
        if abs(spectrum_lambda(graph, s, k)) >= 1:
            return "undetermined"
    return "verified"


def _quiver_smallness_status(v: Quiver):
    """Spectrum-quiver signature for a full quiver: every S_alpha scalar
    lambda_alpha, every composite loop scalar lambda_beta - lambda_alpha,
    all |lambda_alpha| < 1."""
    g = v.graph
    lam = {}
    for k in g.vertices:
        s = local_ops(v, k).S
        val = _scalar_value(s)
        if val is None:
            return "undetermined"
        lam[k] = val
    for k in g.vertices:
        for b in g.down(k):
            comp = v.map(k, b) * v.map(b, k)
            expect = Matrix.identity(v.dim(k)).scale(lam[b] - lam[k])
            if comp != expect:
                return "undetermined"
    if any(abs(x) >= 1 for k, x in lam.items() if v.dim(k) > 0):
        return "undetermined"
    return "verified"


def _scalar_value(m: Matrix):
    if m.rows == 0:
        return Q0
    val = m[0, 0]
    if m == Matrix.identity(m.rows).scale(val):
        return val
    return None


def _require_central(graph):
    if not isinstance(graph, ArrangementGraph) or not graph.is_central():
        raise UnsupportedError("endpoint requires a central arrangement")


def _betti_map(complex_: ChainComplex, lo, hi, shift=0):
    b = betti(complex_)
    out = {}
    for k in range(lo, hi + 1):
        idx = k + shift - complex_.min_degree
        out[k] = b[idx] if 0 <= idx < len(b) else 0
    return out


def perverse_cohomology(v: Quiver) -> CohomologyReport:
    """Betti numbers of the ambient space with coefficients in the sheaf
    modeled by the quiver: degree k reports H^{k+N}(C+(V)) for
    k = -N .. 0.  A level quiver (such as the scalar one of an exponent
    assignment) is refused: the model takes a full quiver."""
    if isinstance(v, LevelQuiver):
        raise ShapeError("the perverse model takes a full quiver, not a level quiver")
    g = v.graph
    _require_central(g)
    n = g.arrangement.ambient_dim
    c = c_plus(v)
    hyps = [("central arrangement", "verified"),
            ("maps close to zero", _quiver_smallness_status(v))]
    return CohomologyReport(
        "perverse", _betti_map(c, -n, 0, shift=n), hyps,
        f"degree k holds H^(k+{n}) of C+; ambient dimension {n}")


def local_system_cohomology(graph: ArrangementGraph,
                            w: LevelQuiver) -> CohomologyReport:
    """Betti numbers of the complement with coefficients in the local
    system of the level-zero quiver: H^k(C+(J_{0,*} w)), k = 0..N."""
    _require_central(graph)
    n = graph.arrangement.ambient_dim
    c = c_plus(j0_star(graph, w))
    hyps = [("central arrangement", "verified"),
            ("maps close to zero", smallness_status(graph, w))]
    return CohomologyReport("local_system", _betti_map(c, 0, n), hyps,
                            "degree k holds H^k of C+ of the * direct image")


def intersection_cohomology(graph: ArrangementGraph,
                            w: LevelQuiver) -> CohomologyReport:
    """Intersection cohomology Betti numbers: H^k(C+) of the MacPherson
    extension, k = 0..N."""
    _require_central(graph)
    n = graph.arrangement.ambient_dim
    c = c_plus(macpherson(graph, w).quiver)
    hyps = [("central arrangement", "verified"),
            ("maps close to zero", smallness_status(graph, w))]
    return CohomologyReport("intersection", _betti_map(c, 0, n), hyps,
                            "degree k holds H^k of C+ of the MacPherson extension")


def aomoto_report(graph: ArrangementGraph, a: ExponentAssignment) -> CohomologyReport:
    c = aomoto_complex(graph, a)
    return CohomologyReport(
        "aomoto", _betti_map(c, 0, graph.arrangement.ambient_dim), [],
        "degree k holds H^k of the Aomoto complex")


def flag_report(graph: ArrangementGraph) -> CohomologyReport:
    c = flag_complex(graph)
    return CohomologyReport(
        "flag", _betti_map(c, 0, graph.arrangement.ambient_dim), [],
        "degree k holds H^k of the flag complex")
