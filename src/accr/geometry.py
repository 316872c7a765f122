"""Connection, curvature and structure tensors of both B-metrics.

Index conventions, fixed once for the whole package:

  gamma[k,i,j]      Gamma^k_{ij} = 1/2 g^{kl}(d_i g_{jl} + d_j g_{il} - d_l g_{ij})
  r13[l,k,i,j]      R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
                               + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik},
                    so that (R(x,y)z)^l = R^l_{kij} x^i y^j z^k
  r04[i,j,k,w]      R(x,y,z,w) = g_{lw} R^l_{kij}
  ricci[a,b]        contraction of r13 on its first index: r13[i,a,i,b]
  tau               g^{ab} ricci[a,b]
  tau_star          g^{ij} ricci[i,s] phi^s_j
  cov_phi[k,j,i]    (nabla_i phi)^k_j
  F[i,j,z]          g((nabla_i phi) d_j, d_z)
  theta_star[z]     g^{ij} F(d_i, phi d_j, d_z)
  omega[z]          F(xi, xi, d_z)

Derivative axes of jet arrays always come last (see manifold.FieldJets).
First derivatives of Gamma come from metric Hessians in closed form; the
gradient of theta_star(xi) is propagated through the same pipeline by the
product rule, so nothing here needs third-order jets.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from .errors import SingularMetric
from .expr import Expression, eval_jets
from .jets import Jet2
from .manifold import (
    METRIC_G,
    METRIC_GTILDE,
    AccRStructure,
    StructureJets,
    associated_metric_jets,
)
from .tensor import _congruence, _dot, _max_abs

__all__ = [
    "PointGeometry",
    "SampleGeometry",
    "point_geometry",
    "connection_f5_form",
    "lie_derivative_metric",
    "lie_derivative_vertical",
    "vector_field_jets",
    "metric_compatibility_residual",
    "curvature_symmetry_residuals",
    "f_property_residuals",
    "torse_forming_curvature_residuals",
    "tau_tilde_relations",
    "worst_residual",
]

_SCALARS = ("tau", "tau_star", "theta_star_xi")


@dataclass(frozen=True)
class PointGeometry:
    """Every derived quantity of one metric tag at one chart point, or at a batch.

    Computed eagerly: at dim = 2n+1 <= 7 the whole pipeline is a handful
    of einsums, and eager assembly keeps the dataclass trivially immutable.
    For a batch, `point` has shape (N, d), every array field carries a
    leading sample axis and the scalar fields are (N,) arrays; `pg[k]` and
    iteration yield the per-sample geometries.  The arrays are read-only,
    so the consumers sharing one batch cannot change what another reads.
    """

    tag: str
    point: tuple[float, ...] | np.ndarray
    n: int
    # structure fields
    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    deta: np.ndarray
    # metric jets
    g: np.ndarray
    dg: np.ndarray
    ginv: np.ndarray
    # connection and curvature
    gamma: np.ndarray
    dgamma: np.ndarray
    r13: np.ndarray
    r04: np.ndarray
    ricci: np.ndarray
    tau: float
    tau_star: float
    nabla_xi: np.ndarray        # [k,i] = (nabla_i xi)^k
    nabla_eta: np.ndarray       # [i,j] = (nabla_i eta)_j
    # fundamental tensor and Lee forms
    F: np.ndarray               # [i,j,z]
    dF: np.ndarray              # [i,j,z,m]
    theta_star: np.ndarray
    dtheta_star: np.ndarray     # [z,m] = d_m theta_star[z]
    theta_star_xi: float
    grad_theta_star_xi: np.ndarray
    omega: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    @property
    def h(self) -> float:
        """theta_star(xi) / 2n, the scalar driving all F5 formulas."""
        return self.theta_star_xi / (2 * self.n)

    @property
    def grad_h(self) -> np.ndarray:
        return self.grad_theta_star_xi / (2 * self.n)

    @property
    def batched(self) -> bool:
        return np.ndim(self.tau) == 1

    def __len__(self) -> int:
        if not self.batched:
            raise TypeError("the geometry of a single point has no sample axis")
        return len(self.tau)

    def __getitem__(self, k: int) -> "PointGeometry":
        """Geometry at sample k of a batch, as views into the batch arrays."""
        if not self.batched:
            raise TypeError("the geometry of a single point has no sample axis")
        values = {name: getattr(self, name)[k] for name in _SAMPLE_FIELDS}
        values.update({name: float(values[name]) for name in _SCALARS})
        return PointGeometry(
            tag=self.tag, point=tuple(float(x) for x in self.point[k]), n=self.n, **values
        )

    def __iter__(self):
        return (self[k] for k in range(len(self)))


# the fields that carry the sample axis of a batch
_SAMPLE_FIELDS = tuple(
    f.name for f in fields(PointGeometry) if f.name not in ("tag", "point", "n")
)


def _inverse(g: np.ndarray, tag: str) -> np.ndarray:
    svals = np.linalg.svd(g, compute_uv=False)
    singular = svals[..., -1] <= 1e-12 * svals[..., 0]
    if singular.any():
        worst = svals[np.argmax(singular)]
        raise SingularMetric(f"metric {tag} is numerically singular (singular values {worst})")
    ginv = np.linalg.inv(g)
    return (ginv + np.swapaxes(ginv, -1, -2)) / 2.0


def point_geometry(
    S: AccRStructure, tag: str, point, bindings: Mapping[str, float] | None = None
) -> PointGeometry:
    """Geometry of the tagged metric at one point (d,) or at a batch of points (N, d).

    A batch runs every step once over all samples.  One point runs as a
    batch of one and comes back as its per-sample geometry.
    """
    points = np.asarray(point, dtype=float)
    batch = np.array(np.atleast_2d(points))  # a copy: it is made read-only below
    geometry = _geometry(S.n, tag, batch, S.jets_at(batch, bindings))
    return geometry if points.ndim == 2 else geometry[0]


def _geometry(n: int, tag: str, batch: np.ndarray, sj: StructureJets) -> PointGeometry:
    """The geometry of the tagged metric over a batch (N, d), from the structure jets there."""
    if tag not in (METRIC_G, METRIC_GTILDE):
        raise ValueError(f"unknown metric tag {tag!r}")
    # Intermediates with four or more indices are deleted once consumed:
    # they, more than the results, set the peak memory of a batch.
    g, dg, d2g = sj.g if tag == METRIC_G else associated_metric_jets(sj)
    phi, dphi, d2phi = sj.phi
    xi, dxi, _ = sj.xi
    eta, deta, _ = sj.eta

    ginv = _inverse(g, tag)
    dginv = -np.einsum("...kbm,...bl->...klm", np.einsum("...ka,...abm->...kbm", ginv, dg), ginv)

    # Contractions that span five or more indices per sample take numpy's
    # optimized einsum, which contracts by batched matmul; the smaller ones
    # stay plain, where the path search costs more than it saves.
    # Koszul in coordinates: C[l,i,j] = d_i g_{jl} + d_j g_{il} - d_l g_{ij}
    C = (
        np.einsum("...jli->...lij", dg)
        + np.einsum("...ilj->...lij", dg)
        - np.einsum("...ijl->...lij", dg)
    )
    gamma = 0.5 * np.einsum("...kl,...lij->...kij", ginv, C)
    dC = (
        np.einsum("...jlim->...lijm", d2g)
        + np.einsum("...iljm->...lijm", d2g)
        - np.einsum("...ijlm->...lijm", d2g)
    )
    dgamma = 0.5 * (
        np.einsum("...klm,...lij->...kijm", dginv, C, optimize=True)
        + np.einsum("...kl,...lijm->...kijm", ginv, dC, optimize=True)
    )
    del d2g, dC

    r13 = (
        np.einsum("...ljki->...lkij", dgamma)
        - np.einsum("...likj->...lkij", dgamma)
        + np.einsum("...lim,...mjk->...lkij", gamma, gamma, optimize=True)
        - np.einsum("...ljm,...mik->...lkij", gamma, gamma, optimize=True)
    )
    r04 = np.einsum("...lw,...lkij->...ijkw", g, r13, optimize=True)
    ricci = np.einsum("...iaib->...ab", r13)
    tau = np.einsum("...ab,...ab->...", ginv, ricci)
    tau_star = np.einsum("...ij,...ij->...", ginv, ricci @ phi)

    nxi = dxi + np.einsum("...kis,...s->...ki", gamma, xi)
    neta = np.einsum("...jm->...mj", deta) - np.einsum("...sij,...s->...ij", gamma, eta)

    cov_phi = (  # [k,j,i] = (nabla_i phi)^k_j
        dphi
        + np.einsum("...kis,...sj->...kji", gamma, phi)
        - np.einsum("...sij,...ks->...kji", gamma, phi)
    )
    dcov_phi = (
        d2phi
        + np.einsum("...kism,...sj->...kjim", dgamma, phi, optimize=True)
        + np.einsum("...kis,...sjm->...kjim", gamma, dphi, optimize=True)
        - np.einsum("...sijm,...ks->...kjim", dgamma, phi, optimize=True)
        - np.einsum("...sij,...ksm->...kjim", gamma, dphi, optimize=True)
    )
    del d2phi
    F = np.einsum("...kz,...kji->...ijz", g, cov_phi)
    dF = np.einsum("...kzm,...kji->...ijzm", dg, cov_phi, optimize=True) + np.einsum(
        "...kz,...kjim->...ijzm", g, dcov_phi, optimize=True
    )

    del dcov_phi
    ginv_phi = np.einsum("...ij,...sj->...is", ginv, phi)
    theta_star = np.einsum("...is,...isz->...z", ginv_phi, F)
    dtheta_star = (
        np.einsum("...ims,...isz->...zm", np.einsum("...ijm,...sj->...ims", dginv, phi), F)
        + np.einsum("...ism,...isz->...zm", np.einsum("...ij,...sjm->...ism", ginv, dphi), F)
        + np.einsum("...is,...iszm->...zm", ginv_phi, dF)
    )
    theta_star_xi = _dot(theta_star, xi)
    grad_tsx = np.einsum("...zm,...z->...m", dtheta_star, xi) + np.einsum(
        "...z,...zm->...m", theta_star, dxi
    )
    omega = np.einsum("...j,...jz->...z", xi, np.einsum("...i,...ijz->...jz", xi, F))

    shared = dict(
        phi=phi, xi=xi, eta=eta, deta=deta, g=g, dg=dg, ginv=ginv, gamma=gamma,
        dgamma=dgamma, r13=r13, r04=r04, ricci=ricci, tau=tau, tau_star=tau_star,
        nabla_xi=nxi, nabla_eta=neta, F=F, dF=dF, theta_star=theta_star,
        dtheta_star=dtheta_star, theta_star_xi=theta_star_xi, grad_theta_star_xi=grad_tsx,
        omega=omega,
    )
    for array in (batch, *shared.values()):
        array.flags.writeable = False
    return PointGeometry(tag=tag, point=batch, n=n, **shared)


class SampleGeometry:
    """The sample set of one command and each metric's geometry over it.

    Every check of a command reads the same batch: the structure jets are
    evaluated once, on first use, and the geometry of a metric tag is
    computed from them on first use, once, over all samples; both live as
    long as this object.
    """

    def __init__(self, S: AccRStructure, points, bindings: Mapping[str, float] | None = None):
        self.structure = S
        # a copy: the geometry makes it read-only
        self.points = np.array(np.atleast_2d(np.asarray(points, dtype=float)))
        self.bindings = dict(bindings or {})
        self._jets: StructureJets | None = None
        self._geometry: dict[str, PointGeometry] = {}

    def __len__(self) -> int:
        return len(self.points)

    def of(self, tag: str) -> PointGeometry:
        if tag not in self._geometry:
            if self._jets is None:  # the structure jets, shared by both metrics
                self._jets = self.structure.jets_at(self.points, self.bindings)
            self._geometry[tag] = _geometry(self.structure.n, tag, self.points, self._jets)
        return self._geometry[tag]


# -- cross routes: gtilde quantities assembled from g quantities --------------


def f_tilde_components_from(pg: PointGeometry) -> np.ndarray:
    """F-tilde built from F of g by the transfer relation, at one point or a batch.

    2 F~(x,y,z) = F(phi y, z, x) - F(y, phi z, x) + F(phi z, y, x) - F(z, phi y, x)
      + {F(x,y,xi) + F(phi y, phi x, xi) + F(x, phi y, xi)} eta(z)
      + {F(x,z,xi) + F(phi z, phi x, xi) + F(x, phi z, xi)} eta(y)
      + {F(y,z,xi) + F(phi z, phi y, xi) + F(z,y,xi) + F(phi y, phi z, xi)} eta(x)
    """
    if pg.tag != METRIC_G:
        raise ValueError("transfer relation consumes the fundamental tensor of g")
    phi, eta, xi, F = pg.phi, pg.eta, pg.xi, pg.F
    Fxi = np.einsum("...ijs,...s->...ij", F, xi)
    pFp = _congruence(phi, Fxi)  # [i, j] = F(phi x_i, phi x_j, xi)
    pFp_t = np.swapaxes(pFp, -1, -2)

    swap = (
        np.einsum("...aj,...azi->...ijz", phi, F)
        - np.einsum("...bz,...jbi->...ijz", phi, F)
        + np.einsum("...az,...aji->...ijz", phi, F)
        - np.einsum("...bj,...zbi->...ijz", phi, F)
    )
    cz = Fxi + pFp_t + np.einsum("...aj,...ia->...ij", phi, Fxi)
    cy = Fxi + pFp_t + np.einsum("...az,...ia->...iz", phi, Fxi)
    cx = Fxi + pFp_t + np.swapaxes(Fxi, -1, -2) + pFp
    two_ft = (
        swap
        + np.einsum("...ij,...z->...ijz", cz, eta)
        + np.einsum("...iz,...j->...ijz", cy, eta)
        + np.einsum("...jz,...i->...ijz", cx, eta)
    )
    return two_ft / 2.0


def nabla_tilde_components_from(pg: PointGeometry) -> np.ndarray:
    """Christoffels of the associated metric from those of g, at one point or a batch.

    2 g(nabla~_x y, z) = 2 g(nabla_x y, z) - F(x,y,phi z) - F(y,x,phi z) + F(phi z,x,y)
      + {F(y,z,xi) + F(phi z, phi y, xi) - omega(phi y) eta(z)} eta(x)
      + {F(x,z,xi) + F(phi z, phi x, xi) - omega(phi x) eta(z)} eta(y)
      - {F(xi,x,y) - F(y,x,xi) - F(x,phi y,xi) - F(x,y,xi) - F(y,phi x,xi)} eta(z)
    """
    if pg.tag != METRIC_G:
        raise ValueError("connection relation consumes the fundamental tensor of g")
    phi, eta, xi, F, omega = pg.phi, pg.eta, pg.xi, pg.F, pg.omega
    Fxi = np.einsum("...ijs,...s->...ij", F, xi)
    pFp_t = np.swapaxes(_congruence(phi, Fxi), -1, -2)  # [i, j] = F(phi x_j, phi x_i, xi)
    omega_phi = np.einsum("...a,...aj->...j", omega, phi)

    corr = (
        -np.einsum("...bz,...ijb->...ijz", phi, F)
        - np.einsum("...bz,...jib->...ijz", phi, F)
        + np.einsum("...az,...aij->...ijz", phi, F)
    )
    ax = Fxi + pFp_t - np.einsum("...j,...z->...jz", omega_phi, eta)
    ay = Fxi + pFp_t - np.einsum("...i,...z->...iz", omega_phi, eta)
    az = (
        np.einsum("...s,...sij->...ij", xi, F)
        - np.swapaxes(Fxi, -1, -2)
        - np.einsum("...aj,...ia->...ij", phi, Fxi)
        - Fxi
        - np.einsum("...ai,...ja->...ij", phi, Fxi)
    )
    corr = (
        corr
        + np.einsum("...jz,...i->...ijz", ax, eta)
        + np.einsum("...iz,...j->...ijz", ay, eta)
        - np.einsum("...ij,...z->...ijz", az, eta)
    )
    return pg.gamma + 0.5 * np.einsum("...kz,...ijz->...kij", pg.ginv, corr)


def connection_f5_form(pg: PointGeometry) -> np.ndarray:
    """Christoffels of the associated metric by the short F5-only relation.

    nabla~_x y = nabla_x y - (theta*(xi)/2n) {g(x, phi y) + g(phi x, phi y)} xi
    """
    if pg.tag != METRIC_G:
        raise ValueError("the short connection form consumes the geometry of g")
    gphi = np.einsum("...is,...sj->...ij", pg.g, pg.phi)
    gphiphi = _congruence(pg.phi, pg.g)
    scale = np.asarray(pg.theta_star_xi / (2 * pg.n))[..., None, None, None]
    return pg.gamma - scale * np.einsum("...ij,...k->...kij", gphi + gphiphi, pg.xi)


# -- Lie and exterior derivatives ---------------------------------------------


def vector_field_jets(
    potential: Sequence[Expression], point, bindings=None
) -> tuple[np.ndarray, np.ndarray]:
    """Values [..., z] and first derivatives [..., z, m] of a vector field given by expressions.

    `point` is one point (d,) or a batch (N, d).
    """
    value, partial, _ = eval_jets(potential, point, bindings)
    return value, partial


def lie_derivative_metric(pg: PointGeometry, v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """(L_v metric)(x,y) = metric(nabla_x v, y) + metric(x, nabla_y v).

    v and dv are the potential's values and derivatives (see vector_field_jets)
    at the points of pg, which may be one point or a batch.
    """
    if v.shape[-1] != pg.dim:
        raise ValueError(f"potential needs {pg.dim} components, got {v.shape[-1]}")
    nth = dv + np.einsum("...kis,...s->...ki", pg.gamma, v)
    lg = np.einsum("...kj,...ki->...ij", pg.g, nth) + np.einsum("...ki,...kj->...ij", pg.g, nth)
    return (lg + np.swapaxes(lg, -1, -2)) / 2.0


def lie_derivative_vertical(pg: PointGeometry, k: Jet2) -> np.ndarray:
    """Expanded form of L_{k xi} metric, using metric(x, xi) = eta(x).

    (L_{k xi} m)(x,y) = dk(x) eta(y) + dk(y) eta(x) + k {m(nabla_x xi, y) + m(x, nabla_y xi)}

    k is the jet of the scalar field at the points of pg.
    """
    dk = k.grad
    rate = np.einsum("...kj,...ki->...ij", pg.g, pg.nabla_xi)
    lg = (
        np.einsum("...i,...j->...ij", dk, pg.eta)
        + np.einsum("...j,...i->...ij", dk, pg.eta)
        + k.value[..., None, None] * (rate + np.swapaxes(rate, -1, -2))
    )
    return (lg + np.swapaxes(lg, -1, -2)) / 2.0


def antisymmetrized_derivative(partial: np.ndarray) -> np.ndarray:
    """d of a 1-form given its derivative array partial[..., z, m] = d_m alpha_z.

    d[..., i, j] = d_i alpha_j - d_j alpha_i, at one point or a batch.
    """
    return np.swapaxes(partial, -1, -2) - partial


# -- residual helpers ---------------------------------------------------------
#
# Each helper takes the geometry of one point or of a batch.  A residual is
# a float at one point and an (N,) array of per-sample residuals over a batch.


def worst_residual(residuals: Mapping[str, object]):
    """The largest of several named residuals, per sample over a batch."""
    return np.max(list(residuals.values()), axis=0)


def metric_compatibility_residual(pg: PointGeometry):
    """max | d_k g_ij - Gamma^l_{ki} g_lj - Gamma^l_{kj} g_il |"""
    nabla_g = (
        np.einsum("...ijk->...kij", pg.dg)
        - np.einsum("...lki,...lj->...kij", pg.gamma, pg.g)
        - np.einsum("...lkj,...il->...kij", pg.gamma, pg.g)
    )
    return _max_abs(nabla_g, 3)


def curvature_symmetry_residuals(pg: PointGeometry) -> dict:
    r, r13 = pg.r04, pg.r13
    return {
        "R(x,y,z,w) = -R(y,x,z,w)": _max_abs(r + np.einsum("...jikw->...ijkw", r), 4),
        "R(x,y,z,w) = -R(x,y,w,z)": _max_abs(r + np.einsum("...ijwk->...ijkw", r), 4),
        "R(x,y,z,w) = R(z,w,x,y)": _max_abs(r - np.einsum("...kwij->...ijkw", r), 4),
        "R(x,y)z + R(y,z)x + R(z,x)y = 0": _max_abs(
            r13 + np.einsum("...lijk->...lkij", r13) + np.einsum("...ljki->...lkij", r13), 4
        ),
    }


def f_property_residuals(pg: PointGeometry) -> dict:
    phi, eta, xi, F = pg.phi, pg.eta, pg.xi, pg.F
    Fxiz = np.einsum("...isz,...s->...iz", F, xi)   # F(x, xi, z)
    Fxi = np.einsum("...ijs,...s->...ij", F, xi)    # F(x, y, xi)
    total = (
        F
        - np.einsum("...ijb,...bz->...ijz", np.einsum("...iab,...aj->...ijb", F, phi), phi)
        - np.einsum("...j,...iz->...ijz", eta, Fxiz)
        - np.einsum("...z,...ij->...ijz", eta, Fxi)
    )
    lhs_prop2 = Fxi @ phi
    return {
        "F(x,y,z) = F(x,z,y)": _max_abs(F - np.einsum("...izj->...ijz", F), 3),
        "F(x,y,z) = F(x,phi y,phi z) + eta(y) F(x,xi,z) + eta(z) F(x,y,xi)": _max_abs(total, 3),
        "F(x,phi y,xi) = (nabla_x eta) y": _max_abs(lhs_prop2 - pg.nabla_eta, 2),
        "(nabla_x eta) y = g(nabla_x xi, y)": _max_abs(
            pg.nabla_eta - np.einsum("...kj,...ki->...ij", pg.g, pg.nabla_xi), 2
        ),
    }


def torse_forming_curvature_residuals(pg: PointGeometry) -> dict:
    """Curvature identities driven by h = theta*(xi)/2n and its gradient."""
    h = np.asarray(pg.h)
    hv = h[..., None]
    dh = pg.grad_h
    phi2 = pg.phi @ pg.phi
    eye = np.eye(pg.dim)
    coeff = dh + hv * hv * pg.eta

    r_xi = np.einsum("...lkij,...k->...lij", pg.r13, pg.xi)
    rhs = (
        -np.einsum("...i,...lj->...lij", coeff, phi2) + np.einsum("...j,...li->...lij", coeff, phi2)
    )
    res_rtf = _max_abs(r_xi - rhs, 3)

    grad_h_up = np.einsum("...ij,...j->...i", pg.ginv, dh)
    gphiphi = _congruence(pg.phi, pg.g)
    r_from_xi = np.einsum("...lkij,...i->...lkj", pg.r13, pg.xi)  # [l, z-slot, y-slot]
    rhs_a = (
        np.einsum("...jk,...l->...lkj", gphiphi, grad_h_up)
        - np.einsum("...k,...lj->...lkj", dh, phi2)
        + (h * h)[..., None, None, None] * (
            np.einsum("...k,lj->...lkj", pg.eta, eye) - np.einsum("...jk,...l->...lkj", pg.g, pg.xi)
        )
    )
    res_a = _max_abs(r_from_xi - rhs_a, 3)

    two_n = 2 * pg.n
    dh_xi = _dot(dh, pg.xi)
    rho_y_xi = np.einsum("...ij,...j->...i", pg.ricci, pg.xi)
    rhs_b = -(two_n - 1) * dh - (dh_xi + two_n * h * h)[..., None] * pg.eta
    res_b = _max_abs(rho_y_xi - rhs_b, 1)

    rho_xx = _dot(np.einsum("...i,...ij->...j", pg.xi, pg.ricci), pg.xi)
    res_c = _max_abs(rho_xx - (-two_n * (dh_xi + h * h)), 0)

    return {
        "R(x,y)xi = -{dh(x)+h^2 eta(x)} phi^2 y + {dh(y)+h^2 eta(y)} phi^2 x": res_rtf,
        "R(xi,y)z = g(phi y,phi z) grad h - dh(z) phi^2 y + h^2 {eta(z) y - g(y,z) xi}": res_a,
        "rho(y,xi) = -(2n-1) dh(y) - {dh(xi) + 2n h^2} eta(y)": res_b,
        "rho(xi,xi) = -2n {dh(xi) + h^2}": res_c,
    }


def tau_tilde_relations(pg_g: PointGeometry, pg_gt: PointGeometry) -> dict:
    """Scalar curvature of the associated metric from quantities of g (F5 only)."""
    n = pg_g.n
    tsx = pg_g.theta_star_xi
    xi_tsx = _dot(pg_g.grad_theta_star_xi, pg_g.xi)
    h = pg_g.h
    dh_xi = _dot(pg_g.grad_h, pg_g.xi)
    rhs1 = -pg_g.tau_star - ((2 * n + 1) / (2 * n)) * tsx**2 - 2 * xi_tsx
    rhs2 = -pg_g.tau_star - 2 * n * (2 * n + 1) * h**2 - 4 * n * dh_xi
    return {
        "tau~ = -tau* - ((2n+1)/2n) theta*(xi)^2 - 2 xi(theta*(xi))": _max_abs(pg_gt.tau - rhs1, 0),
        "tau~ = -tau* - 2n(2n+1) h^2 - 4n dh(xi)": _max_abs(pg_gt.tau - rhs2, 0),
    }
