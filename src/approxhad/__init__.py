"""approxhad: construct, search for, and certify approximate Hadamard matrices.

An approximate Hadamard matrix is a well-conditioned square +-1 matrix.
This package builds exact Hadamard and conference matrices, produces flat
orthogonal matrices at every order by submatrix orthogonalization, rounds
them randomly into +-1 matrices with matrix-Bernstein certificates,
searches structured classes for minimal condition numbers, and certifies
results with exact integer Gram identities and sign-clique lower bounds.
"""

__version__ = "0.1.0"

from .certify import CertifyReport, certify, detect_gram_class
from .constructions import (
    CatalogGapError,
    HadamardOrderCatalog,
    Recipe,
    build_catalog,
    gap_bound,
    gap_bound_exponent,
    paley_conference,
    paley_i,
    paley_ii,
    smallest_order_at_least,
    sylvester,
)
from .families import (
    BarbaRejection,
    FamilyMatrix,
    SdsPair,
    circulant,
    conference_plus_identity,
    sds_block_matrix,
    sds_family,
    sds_search,
    verify_barba,
)
from .flatten import (
    FlatCertificate,
    OrthMatrix,
    SingularSplitError,
    flat_orthogonal,
    submatrix_orthogonalize,
)
from .linalg import (
    IntPolynomial,
    SignMatrix,
    SpectralReport,
    condition_number,
    kronecker,
)
from .lower_bound import (
    CliqueCertificate,
    best_clique_certificate,
    kappa_floor,
    orthogonal_triple_exists,
)
from .matrixio import parse_sign_matrix, write_sign_matrix
from .rounding import (
    BernsteinCertificate,
    RoundingPlan,
    round_best,
    round_once,
)
from .search import (
    Registry,
    SearchRecord,
    StructureClass,
    anneal,
    exhaustive_min,
    format_kappa,
)
from .table import TARGETS, reproduce_table, table_csv
