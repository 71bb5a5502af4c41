"""Exact genus-zero Gromov-Witten invariants of Grassmannians via
abelianization, cross-checked against products of projective spaces."""

from .partitions import BoxSpec, Partition, box_partitions, complement, epsilon, lifts, rim_hook_reduce
from .cohomology import PClass, ProductSpace, cup, integrate, lift, martin_integral, schubert_cup
from .abelian_gw import MemoStore, check_wdvv, gw_invariant, small_quantum_product, three_point, two_point
from .grassmannian import ZSeries, j_function, quantum_cup
from .correspondence import (
    FormulaTree,
    assemble_and_check_wdvv,
    check_omega_triviality,
    check_two_point,
    evaluate_formula,
    generate_formula,
    i_bracket,
    mirror_map,
    naive_vs_corrected,
    specialize_novikov,
)
from .jfunctions import ISeries, i_function, j_function_P, solve_c_coefficients

__version__ = "0.21.0"
