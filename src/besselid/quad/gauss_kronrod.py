"""Gauss-Kronrod (G7/K15) nodes and weights on [-1, 1]."""

from __future__ import annotations

import numpy as np


# 15-point Kronrod nodes on [-1, 1] (positive half) and weights; the
# embedded 7-point Gauss rule sits on the odd-indexed nodes.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 ascending nodes
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WGFULL = np.zeros(15)
_WGFULL[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])
