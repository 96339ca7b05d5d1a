"""Workbench for congruence-lattice structure and CBS machinery on finite algebras."""

from .algebra import (
    FiniteAlgebra,
    Homomorphism,
    Operation,
    Sentence,
    Term,
    compile_term,
    direct_product,
    iso_search,
    parse_algebra,
    parse_sentence,
    parse_term,
    power_algebra,
    quotient_algebra,
    relabel,
    render_algebra,
    satisfies,
)
from .cbs import (
    OperatorKind,
    boolean_sublattice_check,
    cbs_complete_check,
    cbs_property_check,
    cbs_sequence,
    f_hat,
    f_hat_inverse,
    operator_eval,
    presheaf_check,
)
from .congruence import (
    Congruence,
    CongruenceLattice,
    all_congruences,
    compose,
    congruence_join,
    congruence_meet,
    generated_congruence,
    principal_congruence,
    quotient_lift,
    relative_congruences,
    transport,
)
from .errors import BudgetError, CbswbError, FormatError, ValidationError
from .lattice import FiniteLattice
from .omega import (
    AffineFamily,
    OmegaCongruence,
    OmegaRun,
    QuasiCyclic,
    ShiftIso,
    countable_infimum,
    omega_cbs_run,
    omega_validate,
    quasicyclic_suite,
    truncate_validate,
)
from .pset import PeriodicSet
from .report import Report, lattice_dot, parse_report, render_report
from .structure import (
    bfc_check,
    center_of_lattice,
    check_factor_pair,
    church_centers,
    decomposition_witness,
    factor_congruences,
    z_con_report,
)

__version__ = "0.1.0"
