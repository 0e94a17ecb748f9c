"""quiverarr: exact-arithmetic quivers over the strata of hyperplane
arrangements, and the cohomology tables they compute.

The building blocks, bottom to top:

- linalg: matrices over Q stored as sparse canonical integer rows, one
  echelon kernel for kernels and solves, characteristic polynomials,
  finite chain complexes and their Betti numbers;
- arrangement: the graph of strata of an affine arrangement, each
  stratum keyed by the tuple of hyperplanes containing it, its
  truncations (with loops), specialization graphs, and the discriminantal
  family;
- oscomplex: Orlik-Solomon and flag spaces, the duality pairing, the
  Aomoto complex, and the scalar Shapovalov chain map;
- quiver: quivers with relation checking, duality, the C+ and C-
  complexes, local and monodromy operators, non-resonance reports;
- functors: restriction, the two direct images, adjunction transport,
  the quiver Shapovalov morphism, the MacPherson extension,
  specialization, and the Fourier dual;
- cohomology: Betti tables of the endpoint complexes with hypothesis
  bookkeeping;
- equivariant: finite symmetry groups, induced chain automorphisms, and
  invariant-subcomplex tables computed from the generators;
- liecheck: the Weyl-group / Borel-Weil-Bott oracle and the end-to-end
  cross-check on discriminantal arrangements;
- cli: the `quiverarr` command.
"""

from .arrangement import (Arrangement, ArrangementGraph, Hyperplane,
                          TruncatedGraph, build_graph, discriminantal,
                          parse_arrangement, specialization_graph,
                          truncated_graph, verify_graph_properties)
from .cohomology import (CohomologyReport, intersection_cohomology,
                         local_system_cohomology, perverse_cohomology,
                         scalar_from_exponents)
from .equivariant import (AffineMap, EquivariantLevelZero, GroupAction,
                          build_action, chain_automorphisms, det_character,
                          equivariant_c_plus, equivariant_cohomology,
                          generator_kernels, parse_group)
from .functors import (adjoint_transport, fourier_dual, j0_shriek, j0_star,
                       macpherson, push_shriek, push_shriek_step, push_star,
                       push_star_step, restrict, s0, s_general,
                       shapovalov_form, spec_nonres_ops, spec_nonres_report,
                       specialize)
from .liecheck import (KZInstance, RootSystem, WeylGroup, bwb_dims, kz_check,
                       kz_exponents, weyl_group)
from .linalg import (ChainComplex, ChainMap, Matrix, Subspace, betti,
                     char_poly, image_basis, integer_roots, kernel_basis,
                     rational_roots, rref, solve)
from .oscomplex import (ExponentAssignment, FlagBasis, OSBasis,
                        aomoto_complex, duality_pairing, flag_complex,
                        flag_form_complex, flag_space, os_space,
                        parse_exponents, shapovalov_scalar)
from .quiver import (LevelQuiver, Quiver, QuiverMorphism, Spectrum, c_minus,
                     c_plus, check_nonresonance_class, check_quiver, dual,
                     global_S, hom_space, is_nonresonant_spectrum,
                     level_zero_quiver, local_ops, parse_quiver,
                     quiver_to_json, spectrum_lambda)

__version__ = "0.1.0"
