"""Exact computations with latticed F-isocrystals over finite fields.

Truncated Witt rings W_n(F_{p^q}) realized as (Z/p^n)[t]/(f) with a
Teichmuller-compatible modulus; crystals with denominator shifts; Hodge
and Newton polygons; deviation combinatorics and lattice rescaling;
effective torsion bounds; semilinear Hom modules and isomorphism
searches; the stairs conjugation method; D-truncations and i-number
probes.  Everything is exact at the stated precision.
"""

from .bounds import d_plus_bound, d_plus_bound0, n_fam_bound, \
    truncation_level_bound
from .crystal import (
    FCrystal,
    PolarizedCrystal,
    Polygon,
    builtin_crystal,
    cyclic_from_exponents,
    direct_sum_crystal,
    dual_crystal,
    end_crystal,
    hodge_data,
    new_crystal,
    newton_polygon,
    tensor_crystal,
)
from .deviation import deviations, df_reduce, torsion_upper_from_tuple
from .plinalg import (
    Matrix,
    exp_trunc,
    inverse_with_shift,
    smith_normal_form,
    solve_linear_module,
)
from .semilinear import (
    CircularSystem,
    HomModule,
    cokernel_length,
    fixed_lattice,
    hom_module,
    isom_search,
    sigma_conjugacy_trivialize,
    solve_circular,
)
from .stairs import (
    StairsDatum,
    build_stairs_datum,
    lang_run,
    stairs_algebra_run,
    stairs_run,
)
from .truncation import (
    DTruncation,
    congruence_upgrade,
    d_trunc_isom_search,
    i_number_probe,
    polarized_isom_search,
    verschiebung,
)
from .witt import INFINITY, WittElem, WittRing, make_witt_ring

__version__ = "0.1.0"
