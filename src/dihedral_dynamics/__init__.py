"""Exact castles, invariant windows and homology for dihedral Cantor systems.

The package realizes three families of minimal actions of the infinite
dihedral group on the Cantor set (cut-circle rotations with a flip,
odometers along divisibility chains, and doubled circle systems) in
exact arithmetic, builds and verifies the clopen castles behind their
almost finiteness, and computes the group homology of the actions with
independent cross-checks.
"""

from .exact_circle import (
    Arc,
    ClopenSet,
    CutPoint,
    GOLDEN,
    QuadExt,
    Theta,
    frac,
    qe_cmp,
)
from .systems import (
    DenjoyFlipSystem,
    DoubledClopen,
    DoubledSystem,
    FLIP,
    GroupElement,
    IDENTITY,
    LevelSet,
    OdometerSystem,
    TRANSLATION,
)
from .amenability import FolnerSet, folner, folner_ratio, is_transversal
from .towers import (
    Castle,
    Tower,
    almost_finite_certificate,
    first_return_castle,
    verify_castle,
)
from .abgroups import (
    AbHom,
    DirectSystem,
    FGAbGroup,
    Presentation,
    smith_normal_form,
    snf_diagonal,
)
from .homology import (
    HomologyTable,
    InvolutionModule,
    bar_homology,
    coinvariants,
    even_homology,
    free_product_homology,
    h0_translation_telescope,
    homology_levels,
    homology_table,
    odd_homology,
)

__version__ = "0.1.0"
