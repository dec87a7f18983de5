"""Jones-vector reception and polarization matching.

A user antenna is a linearly polarized element described by a unit
Jones vector in the plane transverse to the arriving wave.  The
matching efficiency against an incident field is the magnitude of the
plain transpose product of the two unit vectors (amplitude level; the
captured power scales as its square through the channel composition).

Receive vectors are real unit 3-vectors in the GCS.  The "matched"
policy takes the incident field direction itself; the fixed axis and
the codebook live in the user-centered basis of
:func:`user_arrival_basis`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SphericalBasis


@dataclass(frozen=True)
class JonesVector:
    """Unit two-component polarization state in a transverse basis."""

    c_theta: complex
    c_phi: complex
    basis: SphericalBasis | None = None

    def __post_init__(self):
        norm = np.hypot(abs(self.c_theta), abs(self.c_phi))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"Jones vector norm {norm} is not 1")

    @classmethod
    def normalized(cls, c_theta, c_phi, basis=None) -> "JonesVector":
        norm = np.hypot(abs(c_theta), abs(c_phi))
        if norm == 0.0:
            raise ValueError("cannot normalize a zero polarization state")
        return cls(complex(c_theta / norm), complex(c_phi / norm), basis)

    def to_gcs(self) -> np.ndarray:
        """3-vector of the polarization direction in global coordinates."""
        if self.basis is None:
            raise ValueError("Jones vector carries no basis")
        vec = (self.c_theta * self.basis.vartheta.astype(complex)
               + self.c_phi * self.basis.varphi.astype(complex))
        if np.allclose(vec.imag, 0.0, atol=1e-12):
            return vec.real
        return vec


def matching_efficiency(rx: JonesVector, incident: JonesVector) -> float:
    """|n_rx^T n_inc|: amplitude fraction captured by the antenna."""
    return float(abs(rx.c_theta * incident.c_theta
                     + rx.c_phi * incident.c_phi))


def codebook_angles(size: int) -> np.ndarray:
    """Uniform angular codebook 0, 2 pi/S, ..., used by the discrete
    polarization scheme (S = 18 gives a pi/9 line spacing)."""
    if size < 2:
        raise ValueError("codebook needs at least 2 entries")
    return 2 * np.pi * np.arange(size) / size


def discrete_rx_polarization(incident: JonesVector,
                             codebook_size: int = 18) -> JonesVector:
    """Best codeword (cos a, sin a) from a uniform angular codebook.

    Ties resolve to the lowest codeword index for reproducibility.
    """
    angles = codebook_angles(codebook_size)
    etas = np.abs(np.cos(angles) * incident.c_theta
                  + np.sin(angles) * incident.c_phi)
    best = int(np.argmax(etas))
    return JonesVector(float(np.cos(angles[best])),
                       float(np.sin(angles[best])), incident.basis)


def user_arrival_basis(user_pos, source_pos) -> SphericalBasis:
    """Transverse basis at the user for the direction looking back at
    the source.

    The radial axis points at the source; vartheta is the in-plane
    direction closest to vertical (it degenerates to +x for overhead
    arrivals), which is the deterministic reference used by the
    fixed-polarization baseline and the discrete codebook.
    """
    offset = (np.asarray(source_pos, dtype=float)
              - np.asarray(user_pos, dtype=float))
    r = np.linalg.norm(offset)
    if r == 0.0:
        raise ValueError("source coincides with the user")
    u = offset / r
    vertical = np.array([0.0, 0.0, 1.0])
    vartheta = vertical - (vertical @ u) * u
    norm = np.linalg.norm(vartheta)
    if norm < 1e-9:
        vartheta = np.array([1.0, 0.0, 0.0])
    else:
        vartheta = vartheta / norm
    varphi = np.cross(u, vartheta)
    return SphericalBasis(upsilon=u, vartheta=vartheta, varphi=varphi)


def receive_polarization(policy: str, field_dir, user_pos,
                         source_pos) -> tuple[np.ndarray, float]:
    """Unit receive vector in the GCS and the matching efficiency it
    achieves on the serving link, for a real unit field direction
    arriving at the user from ``source_pos``.

    "matched" returns the field direction itself, signed so that its
    largest component is positive (eta = 1).  "fixed" takes the
    near-vertical axis of :func:`user_arrival_basis`.  "codebook" takes
    the best of 18 codewords in that basis
    (:func:`discrete_rx_polarization`).
    """
    field_dir = np.asarray(field_dir, dtype=float)
    if policy == "matched":
        if field_dir[np.argmax(np.abs(field_dir))] < 0:
            field_dir = -field_dir
        return field_dir, 1.0
    basis = user_arrival_basis(user_pos, source_pos)
    if policy == "fixed":
        return basis.vartheta, float(abs(basis.vartheta @ field_dir))
    if policy == "codebook":
        incident = JonesVector.normalized(field_dir @ basis.vartheta,
                                          field_dir @ basis.varphi, basis)
        rx = discrete_rx_polarization(incident)
        return rx.to_gcs(), matching_efficiency(rx, incident)
    raise ValueError(f"unknown receive policy {policy!r}")
