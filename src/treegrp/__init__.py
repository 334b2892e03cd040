"""Exact computation in automorphism groups of finite binary rooted trees.

Elements are stored as bit-packed portraits (one parity bit per vertex of
the labeled levels); subgroups come either enumerated or, when parity
checks cut them out, as a gf2.LinearSubgroup; pattern groups carry the
machinery of finitely constrained groups: essentiality, reduction, exact
Hausdorff dimension, and the half-tree parity obstruction used to refute
topological finite generation.

Composition convention: ``h * g`` applies g first.
"""

from .errors import EnumerationCapExceeded, TreeGroupError, VerificationError
from .halftree import (
    INCONCLUSIVE,
    NOT_IN_DERIVED,
    CertificateVerdict,
    JContext,
    N,
    derived_membership_certificate,
    verify_ni_identities,
    verify_ni_identities_for,
)
from .kernel import backend_name, has_c_kernel
from .patterns import (
    EssentialityResult,
    PatternGroup,
    PsiImageIndex,
    TruncationGroup,
    TruncationLevel,
    essential_reduction,
    hausdorff_dimension,
    is_essential,
    psi_image_index,
    truncation_group,
    truncation_orbits,
)
from .portrait import (
    MAX_DEPTH,
    DistanceResult,
    FiniteAutomorphism,
    distance,
    identity,
)
from .subgroups import (
    DEFAULT_CAP,
    EnumeratedSubgroup,
    M_V,
    all_subgroups_depth2,
    close,
    derived_subgroup,
    enumerate_PJ,
    full_group,
    generating_set,
    is_transitive_on_level,
    level_stabilizer,
    maximal_subgroup,
    orbit,
    subgroup_from_json,
)
from .verify import (
    ClassificationReport,
    ClassificationRow,
    classify_maximal,
    verify_auxiliary,
    verify_new_relation,
    verify_no_adad,
    verify_not_top_fg,
)

__version__ = "0.1.0"
