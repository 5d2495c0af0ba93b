"""Multiplier spectra of rational self-maps of the Riemann sphere.

Compute periodic points and their multipliers, stack the elementary
symmetric values into comparable spectrum records, generate the families
for which spectra provably coincide (coordinate changes, composition
flips, the duplication family on elliptic curves), classify
superattracting cycle structure from critical orbits or from the
spectrum alone, and keep a persistent fingerprint catalog for collision
hunting.
"""

from .catalog import (
    CatalogEntry,
    QueryResult,
    ScanResult,
    catalog_add,
    catalog_query,
    catalog_scan_collisions,
    entry_for_map,
    make_entry,
)
from .errors import (
    BudgetExceeded,
    CorruptEntry,
    DegenerateMap,
    DegenerateParameters,
    DegenerateTransform,
    DegreeTooLow,
    DuplicateId,
    InconsistentZeroCounts,
    IndeterminateDerivative,
    MapSyntaxError,
    MultispecError,
    NoConvergence,
    NonFiniteSpectrum,
    NotRealizable,
    ParabolicPresent,
    ShapeMismatch,
    SingularCurve,
    SingularReduction,
    SpectraDiffer,
    UnknownIdentifier,
)
from .families import (
    ElementaryPair,
    LattesParams,
    MilnorPoint,
    elementary_transform,
    invert_sigma,
    lattes_mult2,
    milnor_quadratic,
    power_map,
    random_map,
    random_mobius,
    third_multiplier,
    weierstrass_double_x,
)
from .parser import format_complex, format_expr, format_map, parse_complex, parse_map
from .pcf import (
    Classification,
    ClassificationResult,
    ConsistencyReport,
    CycleRecord,
    classify_disjoint_type,
    cross_spectrum_pcf_consistency,
    detect_superattracting_cycles,
    semiconjugacy_check,
)
from .points import ProjectivePoint, as_point
from .poly import (
    CriticalData,
    CriticalPoint,
    MobiusTransform,
    Polynomial,
    RationalMap,
    compose,
    conjugate,
    critical_data,
    derivative_at,
    is_simple,
    iterate,
    make_map,
    orbit,
    orbit_multiplier,
    rational_map_from_text,
    sylvester_resultant,
)
from .rootfind import Root, RootSet, binary_form_roots, roots
from .spectrum import (
    DisjointType,
    LengthSpectrum,
    MultiplierSpectrum,
    PeriodicPoint,
    PeriodicPointSet,
    SpectrumFingerprint,
    compare_spectra,
    disjoint_type_from_spectrum,
    elementary_symmetric,
    fingerprint,
    fixed_point_form,
    fixed_point_index_sum,
    length_spectrum,
    newton_to_elementary,
    periodic_point_levels,
    periodic_points,
    power_sums_oracle,
    quantized_levels,
    spectrum,
    spectrum_level,
    zero_multiplier_count,
)

__version__ = "0.1.0"
