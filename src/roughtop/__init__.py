"""Verification and exploration toolkit for finite rough
algebraic-topological structures.

The package decides, with witnesses and counterexamples, whether given
finite data (a universe, an equivalence partition, a Cayley table,
subsets, topologies, maps) forms a rough group, a topological rough
group, a rough action, or a structure-preserving map between such
objects, and enumerates all structures of a kind at desk scale.
"""

from .approx import (
    ApproxSpace,
    CayleyTable,
    Partition,
    Universe,
    lower_approx,
    pair_name,
    product_mask,
    product_space,
    product_universe,
    upper_approx,
)
from .errors import (
    CapExceededError,
    InputError,
    ParseError,
)
from .groups import (
    RoughGroupCert,
    RoughHom,
    enumerate_rough_subgroups,
    is_rough_normal,
    product_rough_group,
    rough_kernel,
    verify_rough_group,
    verify_rough_homomorphism,
    verify_rough_subgroup,
)
from .report import (
    Clause,
    VerificationReport,
    exit_code,
    serialize_report,
)
from .topology import (
    FiniteMap,
    FiniteTopology,
    base_at,
    closure,
    enumerate_topologies,
    generate_topology,
    is_continuous,
    product_topology,
    subspace_topology,
    verify_base,
    verify_topology,
)
from .trg import (
    TRGCert,
    check_G_equals_G_inverse,
    check_base_translation,
    check_closure_subgroup,
    check_closure_symmetric,
    check_open_iff_inverse_open,
    check_topological_group,
    check_translations,
    decide_trg,
    find_symmetric_square_nbhd,
    inverse_of_set,
    is_rough_symmetric,
    product_trg,
    trg_topologies,
    verify_trg,
)
from .actions import (
    RoughAction,
    RoughSpace,
    check_AU_open,
    check_subgroup_open,
    is_effective,
    is_rough_homogeneous,
    is_transitive,
    verify_rough_action,
)
from .homs import TRGHom, verify_trg_homeomorphism, verify_trg_homomorphism
from .parser import Workspace, parse_spec

__version__ = "0.1.0"
