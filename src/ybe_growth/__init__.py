"""Growth series of structure groups and monoids of conjugation-quandle
Yang-Baxter solutions, with independent brute-force verification oracles.

Importing the package loads no numpy: the oracle's names below are imported
from `ybe_growth.oracle` on first access.
"""

__version__ = "0.1.0"

from .series import (
    BivariateSeries,
    Polynomial,
    RationalGF,
    TruncatedSeries,
    bivariate_binomial,
    expand_rational,
)
from .algebra import (
    BudgetExceededError,
    ConjugacyDecomposition,
    FiniteGroupTable,
    Permutation,
    QuandleSolution,
    SetPartition,
    class_product_table,
    conjugation_solution,
    enumerate_set_partitions,
    generic_length_series,
    integer_partition_multiplicity,
    make_dihedral_group,
    make_symmetric_group,
    reflection_solution,
    transposition_solution,
)
from .group_growth import (
    ConjugationGrowthResult,
    DefectRecord,
    DefectSeriesResult,
    as_full_conjugation_gf,
    as_reflections_group_gf,
    as_transpositions_group_gf,
    class2_lift,
    defect_measure,
    defect_series,
    is_commutator_length_one,
    nonzero_defects,
    solomon_series,
)
from .transposition_monoid import (
    FTSImage,
    TranspositionWord,
    egf_transposition_monoids,
    fts_embed,
    fts_growth_gf,
    fts_image_membership,
    fts_normal_form,
    monoid_growth_transpositions,
    word_partition,
)
from .reflection_monoid import (
    InvariantTuple,
    NormalForm,
    ReflectionWord,
    coprime_lifts,
    density_of_product,
    elements_equal,
    essentialise,
    frs_embed,
    frs_growth_gf,
    frs_image_contains,
    gcd_witnesses,
    invariants,
    lift_to_coprime,
    monoid_growth_reflections,
    normal_form,
    push_through,
    triple_gcd_witness,
)

# resolved by __getattr__ (PEP 562) on first access
_ORACLE_NAMES = {
    "BallEnumeration",
    "OrbitEnumeration",
    "full_conjugation_spheres",
    "group_ball_enumerate",
    "monoid_orbit_enumerate",
}


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # series
    "Polynomial",
    "RationalGF",
    "TruncatedSeries",
    "BivariateSeries",
    "expand_rational",
    "bivariate_binomial",
    # algebra
    "Permutation",
    "FiniteGroupTable",
    "ConjugacyDecomposition",
    "QuandleSolution",
    "SetPartition",
    "make_symmetric_group",
    "make_dihedral_group",
    "class_product_table",
    "conjugation_solution",
    "reflection_solution",
    "transposition_solution",
    "generic_length_series",
    "enumerate_set_partitions",
    "integer_partition_multiplicity",
    # group growth
    "class2_lift",
    "solomon_series",
    "as_transpositions_group_gf",
    "as_reflections_group_gf",
    "defect_measure",
    "nonzero_defects",
    "defect_series",
    "as_full_conjugation_gf",
    "is_commutator_length_one",
    "DefectRecord",
    "DefectSeriesResult",
    "ConjugationGrowthResult",
    # transposition monoid
    "TranspositionWord",
    "FTSImage",
    "word_partition",
    "fts_embed",
    "fts_image_membership",
    "fts_normal_form",
    "fts_growth_gf",
    "monoid_growth_transpositions",
    "egf_transposition_monoids",
    # reflection monoid
    "ReflectionWord",
    "InvariantTuple",
    "NormalForm",
    "invariants",
    "essentialise",
    "push_through",
    "normal_form",
    "elements_equal",
    "density_of_product",
    "triple_gcd_witness",
    "gcd_witnesses",
    "lift_to_coprime",
    "coprime_lifts",
    "frs_embed",
    "frs_image_contains",
    "frs_growth_gf",
    "monoid_growth_reflections",
    # oracle
    "OrbitEnumeration",
    "BallEnumeration",
    "BudgetExceededError",
    "monoid_orbit_enumerate",
    "group_ball_enumerate",
    "full_conjugation_spheres",
]
