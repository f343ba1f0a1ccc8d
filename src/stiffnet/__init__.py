"""Gap networks of stiff spherical inclusions.

Generate random ball configurations, build their gap multigraph, minimize
the discrete gap energy, test homogenization criteria over growing boxes,
and compute a network effective-conductivity tensor.
"""

__version__ = "0.1.0"

from .geometry import (            # noqa: F401
    ComponentSet,
    SphereConfig,
    cluster_moment_statistic,
    components,
    generate_chain_forest,
    generate_hardcore,
    generate_lattice_jitter,
    restrict_box,
)
from .multigraph import (          # noqa: F401
    InclusionGraph,
    build_graph,
    clusters,
    short_at,
    short_kappa,
)
from .energy import (              # noqa: F401
    BoundaryFamily,
    EnergyBreakdown,
    KellerParams,
    LaplacianAssembly,
    SolverError,
    affine_boundary_family,
    energy,
    keller_energy,
    midpoint_boundary_family,
    minimize_energy,
)
from .criteria import (            # noqa: F401
    CriterionSeries,
    H2Estimate,
    H2Options,
    derive_cell_seed,
    h2_exact_s2,
    h2_statistic,
    log_moment_statistic,
    scan_limsup,
)
from .effective import (           # noqa: F401
    boundary_nodes,
    effective_scan,
    network_effective_tensor,
)
