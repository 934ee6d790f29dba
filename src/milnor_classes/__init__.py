"""Exact Milnor-class calculator for singular hypersurfaces.

Chow-ring arithmetic is exact over the integers; every class of a singular
hypersurface or transversal intersection is computed by several
independent routes that are cross-validated for exact equality.
"""

from .chow import (
    AmbientMismatchError,
    AmbientSpace,
    CycleClass,
    MultiProj,
    ProjBundle,
    ProjSpace,
    parse_class,
)
from .bundles import (
    BundleClass,
    direct_sum,
    dual,
    line_bundle,
    tangent_bundle,
    tensor_line,
    top_chern,
    trivial_bundle,
)
from .strata import (
    StratificationError,
    StratifiedHypersurface,
    Stratum,
    gamma_weights,
    linear_closure,
    mu_weight,
    point_closure,
    stratified_chi,
)
from .charclass import (
    ClassBundle3,
    aluffi_milnor,
    aluffi_tensor,
    csm_from_milnor,
    hypersurface_classes,
    milnor_pp,
    mu_class,
    segre_builtin,
    virtual_class,
)
from .lecycles import le_to_milnor, milnor_to_le
from .intersect import (
    IntersectionScenario,
    cross_validate,
    milnor_cor11,
    milnor_cor12,
    milnor_pp_ais,
    milnor_pp_full,
    milnor_thm41,
)
from .projbundle import (
    GeneralCaseInput,
    make_bundle_ring,
    milnor_general,
    taut_sub_chern,
    verify_tangent_identities,
)
from .scenario import ScenarioError, ScenarioReport, load_scenario_file, run_compute
from .examples import list_examples, load_fixture, run_example

__version__ = "0.1.0"
