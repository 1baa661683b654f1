"""Unramified Brauer groups of SL_n/G for finite G, over exact mod-N algebra.

Public surface:

- groups: multiplication-table groups, actions, finite abelian modules
- zmod: Smith and Howell forms, span rows, and one Subquotient type for
  the kernels, cokernels and quotients over Z/m
- cohomology: H^1/H^2 on generator coordinates, Sha filters, cups, the
  Kummer classes on the Schreier atoms
- extensions: Galois-equivariant central extensions (f, c) and their classes
- engine: the unramified conditions, B_0, the full Br^0_nr pipeline
- fastpath: semidirect products of abelian groups without tabulating N
- localeval: nonabelian H^1 at local data and Brauer-Manin reports
- reference: the direct routes, one class, subgroup or point at a time,
  that the tests and selftest compare the pipeline against
- cli: job runner and selftest
"""

from .caps import Caps, DEFAULT_CAPS
from .cohomology import (
    CohomologyGroup,
    ShaResult,
    cup_h1_h1,
    h1,
    h2,
    scalar_module,
    sha,
)
from .engine import (
    BrauerReport,
    algebraic_unramified,
    b0,
    br_nr,
    galois_condition_single,
    sha2_ab,
)
from .extensions import (
    ClassModule,
    EquivariantExtension,
    GaloisDatum,
    class_module,
    kummer_kernel,
)
from .fastpath import (
    AugmentationExample,
    SemidirectDatum,
    build_example_714,
    local_witness,
    sha1_bic,
)
from .groups import (
    AbelianModule,
    FiniteGroup,
    GroupAction,
    abelian_group,
    alternating_group,
    cyclic_group,
    dihedral_group,
    group_from_permutations,
    group_from_table,
    quaternion_group,
    semidirect_product,
    symmetric_group,
)
from .localeval import (
    ClassEntry,
    FastpathClassEntry,
    LocalDatum,
    NonabelianCocycle,
    bm_report,
    nonabelian_h1,
)
from .reference import (
    bockstein,
    bogomolov_condition,
    dies_in_qz,
    evaluate,
    extension_from_q_cocycle,
    extension_group,
    galois_condition,
    is_unramified,
    solve,
    splits_equivariantly,
    splits_over,
    subgroups_abelian,
    tate_h0,
)
from .zmod import (
    Subquotient,
    cokernel,
    kernel,
)

__version__ = "0.1.0"
