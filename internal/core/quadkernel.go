package core

import (
	"unstencil/internal/geom"
)

// regionQuad is the quadrature input of one clipped sub-region τ: the
// composite affine maps from the rule's reference coordinates to the
// element's reference coordinates (r, s) and to the kernel cell's local
// coordinates (tx, ty), τ's Jacobian, and the operands fixed per element
// (hc) and per cell (px, py). It lives in the worker so passing it to a
// kernel through a function value does not allocate.
type regionQuad struct {
	r0, ru, rv, s0, su, sv       float64
	tx0, txu, txv, ty0, tyu, tyv float64
	jac                          float64
	hc                           []float64 // element's Horner coefficients
	px, py                       []float64 // kernel pieces of the cell
}

// mapRegion composes τ's reference map with the element's inverse map and
// the kernel-cell normalisation once per sub-region, so each quadrature
// point costs four fused affine evaluations instead of a map, an inverse
// solve and two normalisations.
func (rq *regionQuad) mapRegion(tau *geom.FanTriangle, inv *geom.AffineInverse, cx0, cy0, invH float64) {
	bxu, bxv := tau.B.X-tau.A.X, tau.C.X-tau.A.X
	byu, byv := tau.B.Y-tau.A.Y, tau.C.Y-tau.A.Y
	dax, day := tau.A.X-inv.X0, tau.A.Y-inv.Y0
	rq.r0 = (dax*inv.Ys - day*inv.Xs) * inv.InvDet
	rq.ru = (bxu*inv.Ys - byu*inv.Xs) * inv.InvDet
	rq.rv = (bxv*inv.Ys - byv*inv.Xs) * inv.InvDet
	rq.s0 = (day*inv.Xr - dax*inv.Yr) * inv.InvDet
	rq.su = (byu*inv.Xr - bxu*inv.Yr) * inv.InvDet
	rq.sv = (byv*inv.Xr - bxv*inv.Yr) * inv.InvDet
	rq.tx0, rq.txu, rq.txv = (tau.A.X-cx0)*invH, bxu*invH, bxv*invH
	rq.ty0, rq.tyu, rq.tyv = (tau.A.Y-cy0)*invH, byu*invH, byv*invH
	rq.jac = tau.Jac
}

// quadKernel adds one sub-region's quadrature terms
// qwts[q]·jac·Kx(tx)·Ky(ty)·u(r, s) to sum, point by point in rule order,
// and returns the new sum.
type quadKernel func(sum float64, rq *regionQuad, qpts []geom.Point, qwts []float64) float64

// quadKernels holds the straight-line kernel for each order the service
// admits, indexed by P; other orders and fields without Horner
// coefficients (the modal fallback) run quadGeneric. Each performs exactly
// the IEEE operation sequence of quadGeneric's Horner path —
// dg.HornerField.EvalCoeffs (u = u·s + q from u = 0, each q by Horner in r
// from its highest coefficient) and the kernel piece Horner (from the
// highest coefficient) — with the coefficients held in locals instead of
// loop-indexed, so the results are bitwise identical.
var quadKernels = [...]quadKernel{1: quadP1, 2: quadP2, 3: quadP3, 4: quadP4}

func quadP1(sum float64, rq *regionQuad, qpts []geom.Point, qwts []float64) float64 {
	r0, ru, rv, s0, su, sv := rq.r0, rq.ru, rq.rv, rq.s0, rq.su, rq.sv
	tx0, txu, txv, ty0, tyu, tyv := rq.tx0, rq.txu, rq.txv, rq.ty0, rq.tyu, rq.tyv
	jac := rq.jac
	c := rq.hc[:3:3]
	c0, c1, c2 := c[0], c[1], c[2]
	px, py := rq.px[:2:2], rq.py[:2:2]
	px0, px1 := px[0], px[1]
	py0, py1 := py[0], py[1]
	qwts = qwts[:len(qpts)]
	for q, rp := range qpts {
		r := r0 + ru*rp.X + rv*rp.Y
		s := s0 + su*rp.X + sv*rp.Y
		u := 0*s + c2
		u = u*s + (c1*r + c0)
		tx := tx0 + txu*rp.X + txv*rp.Y
		ty := ty0 + tyu*rp.X + tyv*rp.Y
		kvx := px1*tx + px0
		kvy := py1*ty + py0
		sum += qwts[q] * jac * kvx * kvy * u
	}
	return sum
}

func quadP2(sum float64, rq *regionQuad, qpts []geom.Point, qwts []float64) float64 {
	r0, ru, rv, s0, su, sv := rq.r0, rq.ru, rq.rv, rq.s0, rq.su, rq.sv
	tx0, txu, txv, ty0, tyu, tyv := rq.tx0, rq.txu, rq.txv, rq.ty0, rq.tyu, rq.tyv
	jac := rq.jac
	c := rq.hc[:6:6]
	c0, c1, c2, c3, c4, c5 := c[0], c[1], c[2], c[3], c[4], c[5]
	px, py := rq.px[:3:3], rq.py[:3:3]
	px0, px1, px2 := px[0], px[1], px[2]
	py0, py1, py2 := py[0], py[1], py[2]
	qwts = qwts[:len(qpts)]
	for q, rp := range qpts {
		r := r0 + ru*rp.X + rv*rp.Y
		s := s0 + su*rp.X + sv*rp.Y
		u := 0*s + c5
		u = u*s + (c4*r + c3)
		u = u*s + ((c2*r+c1)*r + c0)
		tx := tx0 + txu*rp.X + txv*rp.Y
		ty := ty0 + tyu*rp.X + tyv*rp.Y
		kvx := (px2*tx+px1)*tx + px0
		kvy := (py2*ty+py1)*ty + py0
		sum += qwts[q] * jac * kvx * kvy * u
	}
	return sum
}

func quadP3(sum float64, rq *regionQuad, qpts []geom.Point, qwts []float64) float64 {
	r0, ru, rv, s0, su, sv := rq.r0, rq.ru, rq.rv, rq.s0, rq.su, rq.sv
	tx0, txu, txv, ty0, tyu, tyv := rq.tx0, rq.txu, rq.txv, rq.ty0, rq.tyu, rq.tyv
	jac := rq.jac
	c := rq.hc[:10:10]
	c0, c1, c2, c3, c4 := c[0], c[1], c[2], c[3], c[4]
	c5, c6, c7, c8, c9 := c[5], c[6], c[7], c[8], c[9]
	px, py := rq.px[:4:4], rq.py[:4:4]
	px0, px1, px2, px3 := px[0], px[1], px[2], px[3]
	py0, py1, py2, py3 := py[0], py[1], py[2], py[3]
	qwts = qwts[:len(qpts)]
	for q, rp := range qpts {
		r := r0 + ru*rp.X + rv*rp.Y
		s := s0 + su*rp.X + sv*rp.Y
		u := 0*s + c9
		u = u*s + (c8*r + c7)
		u = u*s + ((c6*r+c5)*r + c4)
		u = u*s + (((c3*r+c2)*r+c1)*r + c0)
		tx := tx0 + txu*rp.X + txv*rp.Y
		ty := ty0 + tyu*rp.X + tyv*rp.Y
		kvx := ((px3*tx+px2)*tx+px1)*tx + px0
		kvy := ((py3*ty+py2)*ty+py1)*ty + py0
		sum += qwts[q] * jac * kvx * kvy * u
	}
	return sum
}

func quadP4(sum float64, rq *regionQuad, qpts []geom.Point, qwts []float64) float64 {
	r0, ru, rv, s0, su, sv := rq.r0, rq.ru, rq.rv, rq.s0, rq.su, rq.sv
	tx0, txu, txv, ty0, tyu, tyv := rq.tx0, rq.txu, rq.txv, rq.ty0, rq.tyu, rq.tyv
	jac := rq.jac
	c := rq.hc[:15:15]
	c0, c1, c2, c3, c4 := c[0], c[1], c[2], c[3], c[4]
	c5, c6, c7, c8, c9 := c[5], c[6], c[7], c[8], c[9]
	c10, c11, c12, c13, c14 := c[10], c[11], c[12], c[13], c[14]
	px, py := rq.px[:5:5], rq.py[:5:5]
	px0, px1, px2, px3, px4 := px[0], px[1], px[2], px[3], px[4]
	py0, py1, py2, py3, py4 := py[0], py[1], py[2], py[3], py[4]
	qwts = qwts[:len(qpts)]
	for q, rp := range qpts {
		r := r0 + ru*rp.X + rv*rp.Y
		s := s0 + su*rp.X + sv*rp.Y
		u := 0*s + c14
		u = u*s + (c13*r + c12)
		u = u*s + ((c11*r+c10)*r + c9)
		u = u*s + (((c8*r+c7)*r+c6)*r + c5)
		u = u*s + ((((c4*r+c3)*r+c2)*r+c1)*r + c0)
		tx := tx0 + txu*rp.X + txv*rp.Y
		ty := ty0 + tyu*rp.X + tyv*rp.Y
		kvx := (((px4*tx+px3)*tx+px2)*tx+px1)*tx + px0
		kvy := (((py4*ty+py3)*ty+py2)*ty+py1)*ty + py0
		sum += qwts[q] * jac * kvx * kvy * u
	}
	return sum
}

// quadGeneric is the loop-indexed form of the kernels above, for any order
// and for the modal fallback (hc == nil: u is the modal basis expansion of
// the element's coefficients). It is the reference the straight-line
// kernels are tested against bit for bit.
func (ev *Evaluator) quadGeneric(sum float64, rq *regionQuad, coeffs []float64, w *worker) float64 {
	hc, px, py := rq.hc, rq.px, rq.py
	basisN := ev.Field.Basis.N
	qwts := ev.rule.Weights
	for q, rp := range ev.rule.Points {
		r := rq.r0 + rq.ru*rp.X + rq.rv*rp.Y
		s := rq.s0 + rq.su*rp.X + rq.sv*rp.Y
		var u float64
		if hc != nil {
			u = ev.horner.EvalCoeffs(hc, r, s)
		} else {
			ev.Field.Basis.EvalAll(r, s, w.basis)
			for mIdx := 0; mIdx < basisN; mIdx++ {
				u += coeffs[mIdx] * w.basis[mIdx]
			}
		}
		tx := rq.tx0 + rq.txu*rp.X + rq.txv*rp.Y
		ty := rq.ty0 + rq.tyu*rp.X + rq.tyv*rp.Y
		kvx := px[len(px)-1]
		for d := len(px) - 2; d >= 0; d-- {
			kvx = kvx*tx + px[d]
		}
		kvy := py[len(py)-1]
		for d := len(py) - 2; d >= 0; d-- {
			kvy = kvy*ty + py[d]
		}
		sum += qwts[q] * rq.jac * kvx * kvy * u
	}
	return sum
}
