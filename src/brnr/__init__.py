"""Unramified Brauer groups of SL_n/G for finite G, over exact mod-N algebra.

Public surface:

- groups: multiplication-table groups, actions, finite abelian modules
- zmod: Smith normal form, solving, and one Subquotient type for the kernels,
  cokernels and quotients over Z/m
- cohomology: H^1/H^2, Tate H^0, restriction, Sha filters, cups, Bocksteins
- extensions: Galois-equivariant central extensions (f, c) and their classes
- engine: the unramified conditions, B_0, the full Br^0_nr pipeline
- fastpath: semidirect products of abelian groups without tabulating N
- localeval: nonabelian H^1 at local data and Brauer-Manin reports
- cli: job runner and selftest
"""

from .caps import Caps, DEFAULT_CAPS
from .cohomology import (
    CohomologyGroup,
    ShaResult,
    bockstein,
    cup_h1_h1,
    dies_in_qz,
    h1,
    h2,
    scalar_module,
    sha,
    tate_h0,
)
from .engine import (
    BrauerReport,
    algebraic_unramified,
    b0,
    bogomolov_condition,
    br_nr,
    galois_condition,
    galois_condition_single,
    is_unramified,
    sha2_ab,
)
from .extensions import (
    ClassModule,
    EquivariantExtension,
    GaloisDatum,
    baer_sum,
    class_module,
    extension_group,
    kummer_kernel,
    pullback,
    splits_equivariantly,
    splits_over,
    zero_extension,
)
from .fastpath import (
    AugmentationExample,
    SemidirectDatum,
    build_example_714,
    extension_from_q_cocycle,
    local_witness,
    sha1_bic,
)
from .groups import (
    AbelianModule,
    FiniteGroup,
    GroupAction,
    abelian_group,
    alternating_group,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    group_from_permutations,
    group_from_table,
    quaternion_group,
    semidirect_product,
    subgroups_abelian,
    symmetric_group,
)
from .localeval import (
    ClassEntry,
    FastpathClassEntry,
    LocalDatum,
    NonabelianCocycle,
    bm_report,
    evaluate,
    nonabelian_h1,
)
from .zmod import (
    Subquotient,
    cokernel,
    kernel,
    solve,
)

__version__ = "0.1.0"
