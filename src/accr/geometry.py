"""Connection, curvature and structure tensors of both B-metrics.

Index conventions, fixed once for the whole package:

  gamma[k,i,j]      Gamma^k_{ij} = 1/2 g^{kl}(d_i g_{jl} + d_j g_{il} - d_l g_{ij})
  r13[l,k,i,j]      R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
                               + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik},
                    so that (R(x,y)z)^l = R^l_{kij} x^i y^j z^k
  r04[i,j,k,w]      R(x,y,z,w) = g_{lw} R^l_{kij}   (lowered_curvature, not a kept field)
  ricci[a,b]        contraction of r13 on its first index: r13[i,a,i,b]
  tau               g^{ab} ricci[a,b]
  tau_star          g^{ij} ricci[i,s] phi^s_j
  cov_phi[k,j,i]    (nabla_i phi)^k_j
  F[i,j,z]          g((nabla_i phi) d_j, d_z)
  theta_star[z]     g^{ij} F(d_i, phi d_j, d_z)
  omega[z]          F(xi, xi, d_z)

Derivative axes of jet arrays always come last (see expr.FieldJets).
First derivatives of Gamma come from metric Hessians in closed form; the
gradient of theta_star(xi) is propagated through the same pipeline by the
product rule, so nothing here needs third-order jets.

Both metrics are matrices of component expressions, g~'s built by
AccRStructure.associated_metric on the AST nodes of g's, phi's and eta's
entries.  A command evaluates every expression it reads through one
expr.Evaluation of its points, SampleGeometry.evaluation, which keeps the
jet of each expression: g~'s products read the structure's jets from it and
evaluate none of them again.  A command keeps the structure jets, which
structure validation reads as well, and, per metric, the fields it has
read.  r04 is lowered from r13 on each call of lowered_curvature, and dgamma
lives only in the one curvature pass that builds both of its readers, r13
and dtheta_star's two dgamma terms.  The jets of a literal field (phi, xi
and eta in every shipped structure) are read-only zero views that own no
memory.
"""
from __future__ import annotations

import functools
import sys
from typing import Mapping

import numpy as np

from .errors import DomainError, SingularMetric, at_sample
from .expr import Evaluation, FieldJets, eval_field_jets
from .manifold import METRIC_G, METRIC_GTILDE, AccRStructure, StructureJets
from .tensor import _congruence, _dot, _mat, _max_abs, _regular_inverse

__all__ = [
    "PointGeometry",
    "SampleGeometry",
    "connection_f5_form",
    "lowered_curvature",
    "lie_derivative_metric",
    "lie_derivative_vertical",
    "metric_compatibility_residual",
    "curvature_symmetry_residuals",
    "f_property_residuals",
    "torse_forming_curvature_residuals",
    "tau_tilde_relations",
    "worst_residual",
]


def _field(compute):
    """A PointGeometry field: `compute` runs on first read, and its read-only result is kept."""

    @functools.wraps(compute)
    def read_only(self):
        array = compute(self)
        array.flags.writeable = False
        return array

    return functools.cached_property(read_only)


class PointGeometry:
    """Every derived quantity of one metric tag over the N sample points of a SampleGeometry.

    Each field is computed on its first read, from the fields it reads, and
    kept, so a command pays only for what it reads.  The metric's jets and
    inverse are given at construction: a singular metric raised
    SingularMetric in SampleGeometry.of, before any field is read.  Every
    field carries a leading sample axis; the scalar fields are (N,)
    arrays.  The arrays are read-only, so the consumers sharing one batch
    cannot change what another reads.
    """

    def __init__(self, n: int, tag: str, sj: StructureJets, metric: FieldJets, ginv: np.ndarray):
        g, dg, d2g = metric
        shared = dict(phi=sj.phi.value, xi=sj.xi.value, eta=sj.eta.value, deta=sj.eta.partial,
                      g=g, dg=dg, ginv=ginv)
        for array in shared.values():
            array.flags.writeable = False
        vars(self).update(shared, tag=tag, n=n, _d2g=d2g,
                          _dphi=sj.phi.partial, _d2phi=sj.phi.second, _dxi=sj.xi.partial)

    def __setattr__(self, name, value):
        raise AttributeError(f"PointGeometry field {name!r} is read-only")

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    @property
    def h(self) -> np.ndarray:
        """theta_star(xi) / 2n, the scalar driving all F5 formulas."""
        return self.theta_star_xi / (2 * self.n)

    @property
    def grad_h(self) -> np.ndarray:
        return self.grad_theta_star_xi / (2 * self.n)

    # A contraction over four or more indices per sample is a batched matmul on
    # reshaped operands, oriented to read the larger one contiguously; vector-sized
    # contractions stay einsums, which are fastest there.  A d^4 array is built
    # once, into its own buffer: its terms are added into it in place, in the order
    # of the formula, and a permuted view is read against a contiguous operand
    # where an exact symmetry of the operands allows it.

    @_field
    def _dginv(self):  # [k,l,m] = d_m g^{kl} = -g^{ka} d_m g_{ab} g^{bl}
        ginv = self.ginv
        t = (ginv @ _mat(self.dg, 1, 2)).reshape(self.dg.shape)  # [k,b,m]
        return -(ginv[:, None] @ t)  # g^{lb} t[k,b,m], g^-1 being symmetric

    @_field
    def _koszul(self):  # C[l,i,j] = d_i g_{jl} + d_j g_{il} - d_l g_{ij}
        dg = self.dg
        return (
            np.einsum("...jli->...lij", dg)
            + np.einsum("...ilj->...lij", dg)
            - np.einsum("...ijl->...lij", dg)
        )

    @_field
    def gamma(self):
        return 0.5 * (self.ginv @ _mat(self._koszul, 1, 2)).reshape(self._koszul.shape)

    @functools.cached_property
    def _curvature(self):
        """(r13, Y): the curvature and dtheta_star's two dgamma terms, in one pass.

        Y[k,0,m] = G[i,s] phi[t,s] dgamma[k,i,t,m] and Y[k,1,m] = G[i,s] dgamma[k,i,s,m],
        with G = ginv phi^T.  dgamma is read only here, and the metric's second
        derivatives only by dgamma, so neither outlives the pass.
        """
        dgamma = _christoffel_derivative(self, _koszul_derivative(vars(self).pop("_d2g")))
        gamma, G = self.gamma, self._ginv_phi
        Y = (np.stack([np.einsum("...is,...ts->...it", G, self.phi), G], axis=1).reshape(len(G), 1, 2, -1)
             @ _mat(dgamma, 2, 1))
        # both gamma.gamma terms read one product: P[l,i,j,k] = Gamma^l_{im} Gamma^m_{jk}
        P = (_mat(gamma, 2, 1) @ _mat(gamma, 1, 2)).reshape(dgamma.shape)
        r13 = np.subtract(
            np.einsum("...ljki->...lkij", dgamma), np.einsum("...likj->...lkij", dgamma),
            out=np.empty_like(dgamma),
        )
        r13 += np.einsum("...lijk->...lkij", P)
        r13 -= np.einsum("...ljik->...lkij", P)
        return r13, Y

    @_field
    def r13(self):
        return self._curvature[0]

    @_field
    def ricci(self):
        return np.einsum("...iaib->...ab", self.r13)

    @_field
    def tau(self):
        return np.einsum("...ab,...ab->...", self.ginv, self.ricci)

    @_field
    def tau_star(self):
        return np.einsum("...ij,...ij->...", self.ginv, self.ricci @ self.phi)

    @_field
    def nabla_xi(self):  # [k,i] = (nabla_i xi)^k
        return self._dxi + np.einsum("...kis,...s->...ki", self.gamma, self.xi)

    @_field
    def nabla_eta(self):  # [i,j] = (nabla_i eta)_j
        return np.einsum("...jm->...mj", self.deta) - np.einsum("...sij,...s->...ij", self.gamma, self.eta)

    @_field
    def _cov_phi(self):  # [k,j,i] = (nabla_i phi)^k_j, a view of the [k,i,j] array that F reads
        gamma, phi = self.gamma, self.phi
        gamma_phi = (_mat(gamma, 2, 1) @ phi).reshape(gamma.shape)  # [k,i,j] = Gamma^k_{is} phi^s_j
        phi_gamma = (phi @ _mat(gamma, 1, 2)).reshape(gamma.shape)  # [k,i,j] = phi^k_s Gamma^s_{ij}
        return np.swapaxes(np.swapaxes(self._dphi, -1, -2) + gamma_phi - phi_gamma, -1, -2)

    @_field
    def F(self):  # [i,j,z] = g_{kz} cov_phi[k,j,i]
        cov = np.swapaxes(self._cov_phi, -1, -2)  # [k,i,j], contiguous
        return (np.swapaxes(_mat(cov, 1, 2), -1, -2) @ self.g).reshape(cov.shape)

    @_field
    def _ginv_phi(self):
        return np.einsum("...ij,...sj->...is", self.ginv, self.phi)

    @_field
    def theta_star(self):
        return np.einsum("...is,...isz->...z", self._ginv_phi, self.F)

    @_field
    def dtheta_star(self):  # [z,m] = d_m theta_star[z]
        # theta_star[z] = G[i,s] F[i,s,z] with G = ginv phi^T, and F[i,s,z] = g[k,z] cov_phi[k,s,i].
        # G is contracted into cov_phi and its derivative before the product rule, so no
        # array of d_m F is built.
        F, phi, dphi, G, gamma = self.F, self.phi, self._dphi, self._ginv_phi, self.gamma
        Ft = np.swapaxes(_mat(F, 2, 1), -1, -2)  # [z,(i,s)]
        out = Ft @ _mat(phi[:, None] @ self._dginv, 2, 1)  # phi[s,j] d_m g^{ij}, as [i,s,m]
        dG = (self.ginv @ _mat(np.swapaxes(dphi, -3, -2), 1, 2)).reshape(dphi.shape)  # g^{ij} d_m phi[s,j]
        out += Ft @ _mat(dG, 2, 1)
        q = np.einsum("...is,...ksi->...k", G, self._cov_phi)  # [k] = G[i,s] cov_phi[k,s,i]
        # y[k,m] = G[i,s] d_m cov_phi[k,s,i], term by term of d_m cov_phi: the d2phi term, the
        # two dgamma terms, which the curvature pass reads as one product, and the two dphi
        # terms, the first gamma[k,i,t] G[i,s] d_m phi[t,s] with the product read as [t,i,m]
        both = self._curvature[1]
        y = (_mat(np.swapaxes(G, -1, -2), 0, 2)[:, None] @ _mat(self._d2phi, 2, 1))[:, :, 0]
        y += both[:, :, 0]
        y += _mat(np.swapaxes(gamma, -1, -2), 1, 2) @ _mat(G[:, None] @ dphi, 2, 1)
        y -= np.einsum("...kt,...tm->...km", phi, both[:, :, 1])
        y -= np.einsum("...ktm,...t->...km", dphi, np.einsum("...is,...tis->...t", G, gamma))
        return out + (np.einsum("...kzm,...k->...zm", self.dg, q) + np.einsum("...kz,...km->...zm", self.g, y))

    @_field
    def theta_star_xi(self):
        return _dot(self.theta_star, self.xi)

    @_field
    def grad_theta_star_xi(self):
        return (np.einsum("...zm,...z->...m", self.dtheta_star, self.xi)
                + np.einsum("...z,...zm->...m", self.theta_star, self._dxi))

    @_field
    def omega(self):
        xi = self.xi
        return np.einsum("...j,...jz->...z", xi, np.einsum("...i,...ijz->...jz", xi, self.F))


def lowered_curvature(pg: PointGeometry) -> np.ndarray:
    """r04[i,j,k,w] = g_{lw} R^l_{kij}, lowered from pg.r13 on each call and not kept.

    It is computed as [w,k,i,j] and returned as an [i,j,k,w] view of that array.
    """
    r13 = pg.r13
    r = (np.swapaxes(pg.g, -1, -2) @ _mat(r13, 1, 3)).reshape(r13.shape)
    return np.einsum("...wkij->...ijkw", r)


def _christoffel_derivative(pg: PointGeometry, dC: np.ndarray) -> np.ndarray:
    """dgamma[k,i,j,m] = d_m Gamma^k_{ij} = 1/2 (d_m g^{kl} C[l,i,j] + g^{kl} dC[l,i,j,m])."""
    Ct = np.swapaxes(_mat(pg._koszul, 1, 2), -1, -2)  # [(i,j),l]
    out = (Ct[:, None] @ pg._dginv).reshape(dC.shape)  # per k: C[l,ij] d_m g^{kl}
    out += (pg.ginv @ _mat(dC, 1, 3)).reshape(dC.shape)
    out *= 0.5
    return out


def _koszul_derivative(d2g: np.ndarray) -> np.ndarray:
    """dC[l,i,j,m] = d_m C[l,i,j] = d2g[j,l,i,m] + d2g[i,l,j,m] - d2g[i,j,l,m].

    The metric jets are exactly symmetric in their two metric slots (the
    loader requires equal ASTs for g_ij and g_ji, and g~_ij and g~_ji are one
    expression), so the first two terms are d2g[l,j,i,m] and d2g itself,
    and only the last is a permuted read.
    """
    dC = np.swapaxes(d2g, -3, -2) + d2g
    dC -= np.einsum("...ijlm->...lijm", d2g)
    return dC


def _inverse(g: np.ndarray, tag: str, coordinates, points) -> np.ndarray:
    ginv = _regular_inverse(g, lambda svals, bad: SingularMetric(
        f"metric {tag} is numerically singular at {at_sample(coordinates, points, bad)}, with singular values "
        f"{np.array2string(svals, max_line_width=sys.maxsize)}"))
    return (ginv + np.swapaxes(ginv, -1, -2)) / 2.0


class SampleGeometry:
    """The sample set of one command and each metric's geometry over it.

    `points` is a batch (N, d), and every check of a command reads it.
    `evaluation` evaluates every expression a check reads, once, after the
    points are checked to lie inside the chart.  `jets`, the jets of g, phi,
    xi and eta, are evaluated on first use; structure validation reads their
    values, and both metrics read them.  The geometry of a metric tag is
    built from them on first use, with each of its fields computed once,
    over all samples, when first read; all of it lives as long as this
    object.  `of(tag)` is the one way to the geometry, and takes the metric's
    inverse.  g~'s component expressions are evaluated where its geometry is
    built; a potential's and the frame's where a check reads them.
    """

    def __init__(self, S: AccRStructure, points, bindings: Mapping[str, float] | None = None):
        self.structure = S
        self.points = np.array(points, dtype=float)  # a copy
        self.points.flags.writeable = False
        self.bindings = dict(bindings or {})
        self._geometry: dict[str, PointGeometry] = {}

    @functools.cached_property
    def evaluation(self) -> Evaluation:
        self.structure.chart.require_inside(self.points)
        return Evaluation(self.points, self.structure.dim, self.bindings)

    @functools.cached_property
    def jets(self) -> StructureJets:
        S = self.structure
        return StructureJets(*eval_field_jets([S.g, S.phi, S.xi, S.eta], self.evaluation))

    def of(self, tag: str) -> PointGeometry:
        if tag not in self._geometry:
            if tag not in (METRIC_G, METRIC_GTILDE):
                raise ValueError(f"unknown metric tag {tag!r}")
            S, sj, g = self.structure, self.jets, tag == METRIC_G
            try:  # g's jets are structure jets
                jets = sj.g if g else eval_field_jets([S.associated_metric()], self.evaluation)[0]
            except DomainError as exc:
                raise DomainError(f"metric {tag}: {exc}", exc.bad) from None
            ginv = _inverse(jets.value, tag, S.chart.coordinates, self.points)
            self._geometry[tag] = PointGeometry(S.n, tag, sj, jets, ginv)
        return self._geometry[tag]


# -- cross routes: gtilde quantities assembled from g quantities --------------


def f_tilde_components_from(pg: PointGeometry) -> np.ndarray:
    """F-tilde built from F of g by the transfer relation, per sample.

    2 F~(x,y,z) = F(phi y, z, x) - F(y, phi z, x) + F(phi z, y, x) - F(z, phi y, x)
      + {F(x,y,xi) + F(phi y, phi x, xi) + F(x, phi y, xi)} eta(z)
      + {F(x,z,xi) + F(phi z, phi x, xi) + F(x, phi z, xi)} eta(y)
      + {F(y,z,xi) + F(phi z, phi y, xi) + F(z,y,xi) + F(phi y, phi z, xi)} eta(x)
    """
    phi, eta, xi, F = pg.phi, pg.eta, pg.xi, pg.F
    Fxi = np.einsum("...ijs,...s->...ij", F, xi)
    pFp = _congruence(phi, Fxi)  # [i, j] = F(phi x_i, phi x_j, xi)
    pFp_t = np.swapaxes(pFp, -1, -2)

    # the four phi.F terms read two products
    phiF = (np.swapaxes(phi, -1, -2) @ _mat(F, 1, 2)).reshape(F.shape)  # [c,x,i] = phi[a,c] F[a,x,i]
    Fphi = np.swapaxes(F, -1, -2) @ phi[:, None]  # [x,i,c] = F[x,b,i] phi[b,c]
    two_ft = (
        np.einsum("...jzi->...ijz", phiF)
        - np.einsum("...jiz->...ijz", Fphi)
        + np.einsum("...zji->...ijz", phiF)
        - np.einsum("...zij->...ijz", Fphi)
    )
    cyz = Fxi + pFp_t + np.einsum("...aj,...ia->...ij", phi, Fxi)  # the braces of eta(z) and of eta(y)
    cx = Fxi + pFp_t + np.swapaxes(Fxi, -1, -2) + pFp
    two_ft += cyz[:, :, :, None] * eta[:, None, None, :]
    two_ft += cyz[:, :, None, :] * eta[:, None, :, None]
    two_ft += cx[:, None, :, :] * eta[:, :, None, None]
    two_ft /= 2.0
    return two_ft


def nabla_tilde_components_from(pg: PointGeometry) -> np.ndarray:
    """Christoffels of the associated metric from those of g, per sample.

    2 g(nabla~_x y, z) = 2 g(nabla_x y, z) - F(x,y,phi z) - F(y,x,phi z) + F(phi z,x,y)
      + {F(y,z,xi) + F(phi z, phi y, xi) - omega(phi y) eta(z)} eta(x)
      + {F(x,z,xi) + F(phi z, phi x, xi) - omega(phi x) eta(z)} eta(y)
      - {F(xi,x,y) - F(y,x,xi) - F(x,phi y,xi) - F(x,y,xi) - F(y,phi x,xi)} eta(z)
    """
    phi, eta, xi, F, omega = pg.phi, pg.eta, pg.xi, pg.F, pg.omega
    Fxi = np.einsum("...ijs,...s->...ij", F, xi)
    pFp_t = np.swapaxes(_congruence(phi, Fxi), -1, -2)  # [i, j] = F(phi x_j, phi x_i, xi)
    omega_phi = np.einsum("...a,...aj->...j", omega, phi)

    Fphi = (_mat(F, 2, 1) @ phi).reshape(F.shape)  # [i,j,z] = F[i,j,b] phi[b,z]
    phiF = (np.swapaxes(phi, -1, -2) @ _mat(F, 1, 2)).reshape(F.shape)  # [z,i,j] = phi[a,z] F[a,i,j]
    corr = -Fphi - np.einsum("...jiz->...ijz", Fphi) + np.einsum("...zij->...ijz", phiF)
    axy = Fxi + pFp_t - omega_phi[:, :, None] * eta[:, None, :]  # the braces of eta(x) and of eta(y)
    az = (
        np.einsum("...s,...sij->...ij", xi, F)
        - np.swapaxes(Fxi, -1, -2)
        - np.einsum("...aj,...ia->...ij", phi, Fxi)
        - Fxi
        - np.einsum("...ai,...ja->...ij", phi, Fxi)
    )
    corr += axy[:, None, :, :] * eta[:, :, None, None]
    corr += axy[:, :, None, :] * eta[:, None, :, None]
    corr -= az[:, :, :, None] * eta[:, None, None, :]
    return pg.gamma + 0.5 * (pg.ginv @ np.swapaxes(_mat(corr, 2, 1), -1, -2)).reshape(F.shape)


def connection_f5_form(pg: PointGeometry) -> np.ndarray:
    """Christoffels of the associated metric by the short F5-only relation.

    nabla~_x y = nabla_x y - (theta*(xi)/2n) {g(x, phi y) + g(phi x, phi y)} xi
    """
    gphi = np.einsum("...is,...sj->...ij", pg.g, pg.phi)
    gphiphi = _congruence(pg.phi, pg.g)
    return pg.gamma - pg.h[:, None, None, None] * np.einsum("...ij,...k->...kij", gphi + gphiphi, pg.xi)


# -- Lie and exterior derivatives ---------------------------------------------


def lie_derivative_metric(pg: PointGeometry, nth: np.ndarray) -> np.ndarray:
    """(L_v metric)(x,y) = metric(nabla_x v, y) + metric(x, nabla_y v).

    nth[..., k, i] = nabla_i v^k is the covariant derivative of the potential at the points of pg.
    """
    lg = np.einsum("...kj,...ki->...ij", pg.g, nth)  # [i, j] = metric(nabla_i v, e_j)
    return lg + np.swapaxes(lg, -1, -2)


def lie_derivative_vertical(pg: PointGeometry, k: np.ndarray, dk: np.ndarray) -> np.ndarray:
    """Expanded form of L_{k xi} metric, using metric(x, xi) = eta(x).

    (L_{k xi} m)(x,y) = dk(x) eta(y) + dk(y) eta(x) + k {m(nabla_x xi, y) + m(x, nabla_y xi)}

    k [...] and dk [..., m] are the scalar field's values and differential at the points of pg.
    """
    rate = np.einsum("...kj,...ki->...ij", pg.g, pg.nabla_xi)
    dk_eta = np.einsum("...i,...j->...ij", dk, pg.eta)
    return dk_eta + np.swapaxes(dk_eta, -1, -2) + k[..., None, None] * (rate + np.swapaxes(rate, -1, -2))


def antisymmetrized_derivative(partial: np.ndarray) -> np.ndarray:
    """d of a 1-form given its derivative array partial[..., z, m] = d_m alpha_z.

    d[..., i, j] = d_i alpha_j - d_j alpha_i, at one point or a batch.
    """
    return np.swapaxes(partial, -1, -2) - partial


# -- residual helpers ---------------------------------------------------------
#
# Each helper takes the geometry of a batch and returns (N,) arrays of
# per-sample residuals.


def worst_residual(residuals: Mapping[str, object]):
    """The largest of several named residuals, per sample over a batch."""
    return np.max(list(residuals.values()), axis=0)


def metric_compatibility_residual(pg: PointGeometry):
    """max | d_k g_ij - Gamma^l_{ki} g_lj - Gamma^l_{kj} g_il |"""
    gamma = pg.gamma
    # both terms read one product, g being symmetric: [k,i,j] = Gamma^l_{ki} g_lj
    gamma_g = (np.swapaxes(_mat(gamma, 1, 2), -1, -2) @ pg.g).reshape(gamma.shape)
    nabla_g = np.einsum("...ijk->...kij", pg.dg) - gamma_g - np.swapaxes(gamma_g, -1, -2)
    return _max_abs(nabla_g, 3)


def curvature_symmetry_residuals(pg: PointGeometry) -> dict:
    # R's symmetries are read on r04's contiguous base B[w,k,i,j] = R(d_i, d_j, d_k, d_w):
    # each residual sums the same pairs of entries as on [i,j,k,w], so its maximum is the
    # same.  Every residual is written into one scratch buffer, and |.| is taken in place.
    r, r13 = np.einsum("...ijkw->...wkij", lowered_curvature(pg)), pg.r13
    scratch = np.empty_like(r13)

    def max_abs(array):
        return np.max(np.abs(array, out=array), axis=(-4, -3, -2, -1))

    out = {
        "R(x,y,z,w) = -R(y,x,z,w)": max_abs(np.add(r, np.swapaxes(r, -1, -2), out=scratch)),
        "R(x,y,z,w) = -R(x,y,w,z)": max_abs(np.add(r, np.swapaxes(r, -4, -3), out=scratch)),
        "R(x,y,z,w) = R(z,w,x,y)": max_abs(np.subtract(r, np.einsum("...jikw->...wkij", r), out=scratch)),
    }
    bianchi = np.add(r13, np.einsum("...lijk->...lkij", r13), out=scratch)
    bianchi += np.einsum("...ljki->...lkij", r13)
    out["R(x,y)z + R(y,z)x + R(z,x)y = 0"] = max_abs(bianchi)
    return out


def f_property_residuals(pg: PointGeometry) -> dict:
    phi, eta, xi, F = pg.phi, pg.eta, pg.xi, pg.F
    Fxiz = np.einsum("...isz,...s->...iz", F, xi)   # F(x, xi, z)
    Fxi = np.einsum("...ijs,...s->...ij", F, xi)    # F(x, y, xi)
    total = F - (_mat(np.swapaxes(phi, -1, -2)[:, None] @ F, 2, 1) @ phi).reshape(F.shape)
    total -= eta[:, None, :, None] * Fxiz[:, :, None, :]
    total -= eta[:, None, None, :] * Fxi[:, :, :, None]
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
    h = pg.h
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
