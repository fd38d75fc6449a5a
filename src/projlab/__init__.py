"""projlab: discretized restricted-projection, incidence and decoupling lab."""

from .curve import (
    Curve,
    DirectionNet,
    direction_net,
    great_circle,
    helix_curve,
    model_curve,
    named_curve,
    nondegeneracy_margin,
)
from .fractal import (
    PointSet,
    cantor_1d,
    extract_delta_s_set,
    full_grid,
    product_set,
    validate_delta_s_set,
)
from .covering import dyadic_content, greedy_cover, validate_covering
from .projection import (
    box_dimension,
    exceptional_sweep,
    project_line,
    theorem_bound,
)
from .incidence import (
    IncidenceSpec,
    heavy_subset,
    incidence_count,
    random_admissible_config,
    verify_incidence_bound,
)
from .fourier import (
    GridFunction,
    build_geometry,
    cap_restrict,
    choose_K,
    decoupling_ratio,
    high_low_split,
    l4_norm,
    synth_tube_function,
    tspacing_subsample,
    wave_envelope_rhs,
)

__version__ = "0.1.0"
