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

Derivative axes of jet arrays always come last (see manifold.FieldJets).
First derivatives of Gamma come from metric Hessians in closed form; the
gradient of theta_star(xi) is propagated through the same pipeline by the
product rule, so nothing here needs third-order jets.

A command keeps the structure jets and, per metric, the fields it has read.
Three d^4 arrays have too few readers to be worth keeping: r04 is lowered
from r13 on each call of lowered_curvature; the metric's Hessians (for g~,
made by the product rule) are made inside dgamma, their one reader; and
dgamma is let go as soon as r13 is kept.  Its other reader, dtheta_star,
reads only _dgamma_G, its small (N, d, 2, d) contraction, which r13 makes
before it lets dgamma go; so dgamma is gone even where dtheta_star is never
read (g~ in report, verify-paper and soliton), and neither read order
computes it twice.  The jets of a literal field (phi, xi and eta in every
shipped structure) are read-only zero views that own no memory.
"""
from __future__ import annotations

import functools
from typing import Mapping, Sequence

import numpy as np

from .errors import SingularMetric
from .expr import Expression, eval_field_jets
from .jets import Jet2
from .manifold import (
    METRIC_G,
    METRIC_GTILDE,
    AccRStructure,
    StructureJets,
    associated_metric_first_order,
    associated_metric_second,
)
from .tensor import _congruence, _dot, _mat, _max_abs, _regular_inverse

__all__ = [
    "PointGeometry",
    "SampleGeometry",
    "connection_f5_form",
    "lowered_curvature",
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


def _field(compute):
    """A PointGeometry field: `compute` runs on first read, and its read-only result is kept."""

    @functools.wraps(compute)
    def read_only(self):
        array = compute(self)
        array.flags.writeable = False
        return array

    return functools.cached_property(read_only)


def _plus(jet: np.ndarray, term: np.ndarray) -> np.ndarray:
    """jet + term, or the term alone where the jet is exactly zero."""
    return jet + term if jet.any() else term


class PointGeometry:
    """Every derived quantity of one metric tag over the N sample points of a SampleGeometry.

    Each field is computed on its first read, from the fields it reads, and
    kept, so a command pays only for what it reads; dgamma alone is let go
    once r13 is kept, and is computed again if read after that.
    The metric, its first derivatives and its inverse are taken at
    construction: a singular metric raises SingularMetric there, whichever
    fields are read later.  Every field carries a leading sample axis; the
    scalar fields are (N,) arrays.  The arrays are read-only, so the
    consumers sharing one batch cannot change what another reads.  A
    product-rule term on an exactly zero jet of phi, xi or eta (a literal
    field, as in every shipped structure) is left out; the other terms keep
    their order, so their sums round as before.
    """

    def __init__(self, n: int, tag: str, sj: StructureJets):
        if tag not in (METRIC_G, METRIC_GTILDE):
            raise ValueError(f"unknown metric tag {tag!r}")
        g, dg = sj.g[:2] if tag == METRIC_G else associated_metric_first_order(sj)
        shared = dict(phi=sj.phi.value, xi=sj.xi.value, eta=sj.eta.value, deta=sj.eta.partial,
                      g=g, dg=dg, ginv=_inverse(g, tag))
        for array in shared.values():
            array.flags.writeable = False
        vars(self).update(shared, tag=tag, n=n, _jets=sj, _dphi=sj.phi.partial,
                          _d2phi=sj.phi.second, _dxi=sj.xi.partial)

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

    def _d2g(self):
        """The metric's second derivatives, made for dgamma, their one reader, and not kept."""
        return self._jets.g.second if self.tag == METRIC_G else associated_metric_second(self._jets)

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

    @_field
    def dgamma(self):
        dC = _koszul_derivative(self._d2g())
        Ct = np.swapaxes(_mat(self._koszul, 1, 2), -1, -2)  # [(i,j),l]
        out = (Ct[:, None] @ self._dginv).reshape(dC.shape)  # per k: C[l,ij] d_m g^{kl}
        out += (self.ginv @ _mat(dC, 1, 3)).reshape(dC.shape)
        out *= 0.5
        return out

    @_field
    def r13(self):
        dgamma, gamma = self.dgamma, self.gamma
        self._dgamma_G  # dgamma's other reader, kept before dgamma is let go below
        # both gamma.gamma terms read one product: P[l,i,j,k] = Gamma^l_{im} Gamma^m_{jk}
        P = (_mat(gamma, 2, 1) @ _mat(gamma, 1, 2)).reshape(dgamma.shape)
        out = np.subtract(
            np.einsum("...ljki->...lkij", dgamma), np.einsum("...likj->...lkij", dgamma),
            out=np.empty_like(dgamma),
        )
        out += np.einsum("...lijk->...lkij", P)
        out -= np.einsum("...ljik->...lkij", P)
        # let go last: let go before P was made, it cost 264 minor page faults per report-n2
        # invocation against 124, and a slower command
        del vars(self)["dgamma"]
        return out

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
        return _plus(self._dxi, np.einsum("...kis,...s->...ki", self.gamma, self.xi))

    @_field
    def nabla_eta(self):  # [i,j] = (nabla_i eta)_j
        # no skip: the transposed deta is a view, and 0 - x keeps the sign of a zero that -x flips
        return np.einsum("...jm->...mj", self.deta) - np.einsum("...sij,...s->...ij", self.gamma, self.eta)

    @_field
    def _cov_phi(self):  # [k,j,i] = (nabla_i phi)^k_j, a view of the [k,i,j] array that F reads
        gamma, phi = self.gamma, self.phi
        gamma_phi = (_mat(gamma, 2, 1) @ phi).reshape(gamma.shape)  # [k,i,j] = Gamma^k_{is} phi^s_j
        phi_gamma = (phi @ _mat(gamma, 1, 2)).reshape(gamma.shape)  # [k,i,j] = phi^k_s Gamma^s_{ij}
        return np.swapaxes(_plus(np.swapaxes(self._dphi, -1, -2), gamma_phi) - phi_gamma, -1, -2)

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
    def _dgamma_G(self):  # [k,0,m] = G[i,s] phi[t,s] dgamma[k,i,t,m], [k,1,m] = G[i,s] dgamma[k,i,s,m]
        # dtheta_star's two dgamma terms, in one product: small, so r13 makes it before it
        # lets dgamma go, and neither read order computes dgamma twice
        G = self._ginv_phi
        Gphi = np.einsum("...is,...ts->...it", G, self.phi)
        return np.stack([Gphi, G], axis=1).reshape(len(G), 1, 2, -1) @ _mat(self.dgamma, 2, 1)

    @_field
    def dtheta_star(self):  # [z,m] = d_m theta_star[z]
        # theta_star[z] = G[i,s] F[i,s,z] with G = ginv phi^T, and F[i,s,z] = g[k,z] cov_phi[k,s,i].
        # G is contracted into cov_phi and its derivative before the product rule, so no
        # array of d_m F is built.
        F, phi, dphi, G = self.F, self.phi, self._dphi, self._ginv_phi
        gamma, varying_phi = self.gamma, dphi.any()
        Ft = np.swapaxes(_mat(F, 2, 1), -1, -2)  # [z,(i,s)]
        out = Ft @ _mat(phi[:, None] @ self._dginv, 2, 1)  # phi[s,j] d_m g^{ij}, as [i,s,m]
        if varying_phi:  # g^{ij} d_m phi[s,j], as [i,s,m]
            dG = (self.ginv @ _mat(np.swapaxes(dphi, -3, -2), 1, 2)).reshape(dphi.shape)
            out = out + Ft @ _mat(dG, 2, 1)
        q = np.einsum("...is,...ksi->...k", G, self._cov_phi)  # [k] = G[i,s] cov_phi[k,s,i]
        # y[k,m] = G[i,s] d_m cov_phi[k,s,i], term by term of d_m cov_phi; the two
        # dgamma terms read one product, _dgamma_G
        both = self._dgamma_G
        y = both[:, :, 0]
        if self._d2phi.any():  # G[i,s] d2phi[k,s,i,m]
            y = _plus((_mat(np.swapaxes(G, -1, -2), 0, 2)[:, None] @ _mat(self._d2phi, 2, 1))[:, :, 0], y)
        if varying_phi:  # gamma[k,i,t] G[i,s] d_m phi[t,s], with the product read as [t,i,m]
            y = y + _mat(np.swapaxes(gamma, -1, -2), 1, 2) @ _mat(G[:, None] @ dphi, 2, 1)
        y = y - np.einsum("...kt,...tm->...km", phi, both[:, :, 1])
        if varying_phi:
            y = y - np.einsum("...ktm,...t->...km", dphi, np.einsum("...is,...tis->...t", G, gamma))
        return out + (np.einsum("...kzm,...k->...zm", self.dg, q) + np.einsum("...kz,...km->...zm", self.g, y))

    @_field
    def theta_star_xi(self):
        return _dot(self.theta_star, self.xi)

    @_field
    def grad_theta_star_xi(self):
        grad = np.einsum("...zm,...z->...m", self.dtheta_star, self.xi)
        if self._dxi.any():
            grad = grad + np.einsum("...z,...zm->...m", self.theta_star, self._dxi)
        return grad

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


def _koszul_derivative(d2g: np.ndarray) -> np.ndarray:
    """dC[l,i,j,m] = d_m C[l,i,j] = d2g[j,l,i,m] + d2g[i,l,j,m] - d2g[i,j,l,m].

    The metric jets are exactly symmetric in their two metric slots (the
    loader requires equal ASTs for g_ij and g_ji, and associated_metric_second
    symmetrizes exactly), so the first two terms are d2g[l,j,i,m] and d2g
    itself, and only the last is a permuted read.
    """
    dC = np.swapaxes(d2g, -3, -2) + d2g
    dC -= np.einsum("...ijlm->...lijm", d2g)
    return dC


def _inverse(g: np.ndarray, tag: str) -> np.ndarray:
    ginv = _regular_inverse(
        g, lambda svals, k: SingularMetric(
            f"metric {tag} is numerically singular at sample {k} (singular values {svals})")
    )
    return (ginv + np.swapaxes(ginv, -1, -2)) / 2.0


class SampleGeometry:
    """The sample set of one command and each metric's geometry over it.

    `points` is a batch (N, d); one point (d,) is a batch of one.  Every
    check of a command reads the same batch: the structure jets are
    evaluated once, on first use, and the geometry of a metric tag is built
    from them on first use, with each of its fields computed once, over all
    samples, when first read; all of it lives as long as this object.
    `of(tag)` is the one way to the geometry.
    """

    def __init__(self, S: AccRStructure, points, bindings: Mapping[str, float] | None = None):
        self.structure = S
        self.points = np.array(np.atleast_2d(np.asarray(points, dtype=float)))  # a copy
        self.points.flags.writeable = False
        self.bindings = dict(bindings or {})
        self._jets: StructureJets | None = None
        self._geometry: dict[str, PointGeometry] = {}

    def of(self, tag: str) -> PointGeometry:
        if tag not in self._geometry:
            if self._jets is None:  # the structure jets, shared by both metrics
                self._jets = self.structure.jets_at(self.points, self.bindings)
            self._geometry[tag] = PointGeometry(self.structure.n, tag, self._jets)
        return self._geometry[tag]


# -- cross routes: gtilde quantities assembled from g quantities --------------


def f_tilde_components_from(pg: PointGeometry) -> np.ndarray:
    """F-tilde built from F of g by the transfer relation, per sample.

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
    if pg.tag != METRIC_G:
        raise ValueError("connection relation consumes the fundamental tensor of g")
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
    if pg.tag != METRIC_G:
        raise ValueError("the short connection form consumes the geometry of g")
    gphi = np.einsum("...is,...sj->...ij", pg.g, pg.phi)
    gphiphi = _congruence(pg.phi, pg.g)
    return pg.gamma - pg.h[:, None, None, None] * np.einsum("...ij,...k->...kij", gphi + gphiphi, pg.xi)


# -- Lie and exterior derivatives ---------------------------------------------


def vector_field_jets(
    potential: Sequence[Expression], point, bindings=None
) -> tuple[np.ndarray, np.ndarray]:
    """Values [..., z] and first derivatives [..., z, m] of a vector field given by expressions.

    `point` is one point (d,) or a batch (N, d).
    """
    value, partial, _ = eval_field_jets([potential], point, bindings)[0]
    return value, partial


def lie_derivative_metric(pg: PointGeometry, v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """(L_v metric)(x,y) = metric(nabla_x v, y) + metric(x, nabla_y v).

    v and dv are the potential's values and derivatives (see vector_field_jets)
    at the points of pg.
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
