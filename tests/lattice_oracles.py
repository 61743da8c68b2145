"""scipy.ndimage references for the lattice morphology.

jetlab itself runs on numpy alone; scipy is a test dependency and serves
here as an independent implementation to compare against.
"""

import numpy as np
from scipy import ndimage


def erosion(member: np.ndarray) -> np.ndarray:
    """Cross-structure erosion, off-lattice points absent."""
    cross = ndimage.generate_binary_structure(member.ndim, 1)
    return ndimage.binary_erosion(member, structure=cross, border_value=0)


def box_dilation(member: np.ndarray, iterations: int = 1) -> np.ndarray:
    """The 3^dim box dilation, applied iterations times."""
    box = np.ones((3,) * member.ndim, dtype=bool)
    return ndimage.binary_dilation(member, structure=box,
                                   iterations=iterations)


def connected_component_count(mask) -> int:
    """Number of 2*dim-connected components of a GridMask."""
    cross = ndimage.generate_binary_structure(mask.grid.dim, 1)
    _, n = ndimage.label(mask.member, structure=cross)
    return int(n)
