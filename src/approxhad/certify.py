"""The certification pipeline: everything we can prove about one matrix.

A certificate bundles the spectral report (kappa to 10 digits plus an
exact hex-float), the detected exact Gram identity if any, the best
sign-clique lower bound and an optional minimal-polynomial residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .families import detect_gram_class
from .linalg import IntPolynomial, SignMatrix, SpectralReport, condition_number
from .lower_bound import CliqueCertificate, best_clique_certificate
from .search import format_kappa

__all__ = ["CertifyReport", "certify", "detect_gram_class", "float_field", "SCHEMA"]

SCHEMA = "approxhad.certify/1"


def float_field(x: float) -> dict:
    """A float as both a 10-significant-digit decimal and an exact hex."""
    return {"dec": format_kappa(x), "hex": float(x).hex()}


@dataclass(frozen=True)
class CertifyReport:
    # the evidence; the report, the Gram class and the verified clique follow from it
    matrix: SignMatrix
    minpoly: IntPolynomial | None = None

    @cached_property
    def report(self) -> SpectralReport:
        return condition_number(self.matrix)

    @cached_property
    def gram_class(self) -> str:
        return detect_gram_class(self.matrix)

    @cached_property
    def clique(self) -> CliqueCertificate:
        kappa = self.report.kappa
        clique = best_clique_certificate(self.matrix)
        if clique.bound > kappa + 1e-9:
            raise AssertionError(f"clique bound {clique.bound} exceeds kappa {kappa}: "
                                 "lower-bound certificate is unsound")
        return clique

    def to_dict(self) -> dict:
        rep, clique = self.report, self.clique
        return {
            "schema": SCHEMA,
            "n": self.matrix.n,
            "kappa": float_field(rep.kappa),
            "sigma_min": float_field(rep.sigma_min),
            "sigma_max": float_field(rep.sigma_max),
            "gram_class": self.gram_class,
            # verified: best_clique_certificate has run verify_certificate on it
            "clique_certificate": {
                "n": clique.n, "k": clique.k, "sign": clique.sign,
                "indices": list(clique.indices), "bound": float_field(clique.bound),
                "verified": True,
            },
            "minpoly": None if self.minpoly is None else {
                "coefficients": list(self.minpoly.coefficients),
                "residual": float_field(self.minpoly(rep.kappa)),
            },
            # nothing fills it; kept so approxhad.certify/1 output is unchanged
            "bernstein": None,
        }


def certify(A: SignMatrix, minpoly: IntPolynomial | None = None) -> CertifyReport:
    report = CertifyReport(A, minpoly)
    report.clique  # raises here, not when printed, if the bound exceeds kappa
    return report
