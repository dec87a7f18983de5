"""Receive polarization policies.

A user antenna is a linearly polarized element.  Its receive vector is
a real unit 3-vector in the GCS, and the amplitude it captures from an
incident field is the magnitude of the dot product with the field's
unit direction (the channel composition squares it).  The "matched"
policy takes the incident field direction itself, signed by one rule
that :func:`matched_polarization` applies to any number of directions
at once; the fixed axis and the codebook live in the user-centered
basis of :func:`user_arrival_basis`.  Every policy takes one field
direction, user and source as 3-vectors or S of each as (S, 3) arrays,
and a row of the arrays gives the vector of the row alone, bit for
bit.  The two-component Jones-vector description of the same states
is kept only as a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np

from .geometry import SphericalBasis

# the discrete scheme's uniform angular codebook: 18 angles, a pi/9
# line spacing
_CODEBOOK = 2 * np.pi * np.arange(18) / 18

_VERTICAL = np.array([0.0, 0.0, 1.0])
_OVERHEAD_AXIS = np.array([1.0, 0.0, 0.0])


def user_arrival_basis(user_pos, source_pos) -> SphericalBasis:
    """Transverse basis at the user for the direction looking back at
    the source.

    The radial axis points at the source; vartheta is the in-plane
    direction closest to vertical (it degenerates to +x for overhead
    arrivals), which is the deterministic reference used by the
    fixed-polarization baseline and the discrete codebook.  Positions
    given as (S, 3) arrays give (S, 3) axes, one basis per row.  Dot
    products run through ``np.vecdot``, whose rows equal the dot of
    each row's vectors bit for bit.
    """
    offset = (np.asarray(source_pos, dtype=float)
              - np.asarray(user_pos, dtype=float))
    r = np.sqrt(np.vecdot(offset, offset))[..., None]
    if not r.all():
        raise ValueError("source coincides with the user")
    u = offset / r
    vartheta = _VERTICAL - np.vecdot(_VERTICAL, u)[..., None] * u
    norm = np.sqrt(np.vecdot(vartheta, vartheta))[..., None]
    overhead = norm < 1e-9
    vartheta = np.where(overhead, _OVERHEAD_AXIS,
                        vartheta / np.where(overhead, 1.0, norm))
    varphi = np.cross(u, vartheta)
    return SphericalBasis(upsilon=u, vartheta=vartheta, varphi=varphi)


def matched_polarization(field_dir) -> np.ndarray:
    """The matched receive vector: the field direction signed so that
    its largest component is positive.  A (..., 3) array of directions
    gives one vector per direction."""
    field_dir = np.asarray(field_dir, dtype=float)
    largest = np.take_along_axis(
        field_dir, np.argmax(np.abs(field_dir), axis=-1)[..., None], axis=-1)
    return np.where(largest < 0, -field_dir, field_dir)


def receive_polarization(policy: str, field_dir, user_pos,
                         source_pos) -> np.ndarray:
    """Unit receive vector in the GCS for a real unit field direction
    arriving at the user from ``source_pos``; (S, 3) arrays of the
    three give S vectors.

    "matched" returns :func:`matched_polarization` of the field
    direction.  "fixed" takes the near-vertical axis of
    :func:`user_arrival_basis`.  "codebook" takes the angle a of
    the codebook that maximizes |cos a c_theta + sin a c_phi|, with
    (c_theta, c_phi) the field's normalized components in that basis
    (ties go to the lowest angle), and returns
    cos a vartheta + sin a varphi.
    """
    field_dir = np.asarray(field_dir, dtype=float)
    if policy == "matched":
        return matched_polarization(field_dir)
    basis = user_arrival_basis(user_pos, source_pos)
    if policy == "fixed":
        return basis.vartheta
    if policy == "codebook":
        c_theta = np.vecdot(field_dir, basis.vartheta)[..., None]
        c_phi = np.vecdot(field_dir, basis.varphi)[..., None]
        norm = np.hypot(c_theta, c_phi)
        if not norm.all():
            raise ValueError("field has no component across the arrival "
                             "direction")
        match = np.abs(np.cos(_CODEBOOK) * (c_theta / norm)
                       + np.sin(_CODEBOOK) * (c_phi / norm))
        best = _CODEBOOK[np.argmax(match, axis=-1)][..., None]
        return np.cos(best) * basis.vartheta + np.sin(best) * basis.varphi
    raise ValueError(f"unknown receive policy {policy!r}")
