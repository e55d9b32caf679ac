package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"unstencil/internal/dg"
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
)

// integrateLegacy is integrate as it stood before the bounded clip and the
// straight-line kernels: the per-cell ClipTriangleBox, SplitFan with
// per-triangle area recomputation, and the loop-indexed quadrature. It is
// the end-to-end reference for both the geometry and the kernels.
func (ev *Evaluator) integrateLegacy(center geom.Point, e int32, w *worker) float64 {
	bb := ev.elemBounds[e]
	tri := ev.Mesh.Triangle(int(e))
	h := ev.H
	kx, ky := w.kx, w.ky
	bxlo, _ := kx.Support()
	bylo, _ := ky.Support()
	np := kx.NumPieces()
	i0 := int(math.Floor((bb.Min.X-center.X)/h - bxlo))
	i1 := int(math.Floor((bb.Max.X-center.X)/h - bxlo))
	j0 := int(math.Floor((bb.Min.Y-center.Y)/h - bylo))
	j1 := int(math.Floor((bb.Max.Y-center.Y)/h - bylo))
	if i1 < 0 || j1 < 0 || i0 >= np || j0 >= ky.NumPieces() {
		return 0
	}
	i0, j0 = max(i0, 0), max(j0, 0)
	i1, j1 = min(i1, np-1), min(j1, ky.NumPieces()-1)
	invH := 1 / h
	inv := tri.AffineInverse()
	var hc []float64
	if ev.horner != nil {
		hc = ev.horner.ElemCoeffs(int(e))
	}
	minArea := 1e-14 * tri.Area()
	basisN := ev.Field.Basis.N
	coeffs := ev.Field.ElemCoeffs(int(e))
	quadFlops := metrics.FlopsPerQuadEval(ev.Opt.P, ev.Opt.P)
	qpts, qwts := ev.rule.Points, ev.rule.Weights
	nq := uint64(len(qpts))
	var clip geom.Clipper
	sum := 0.0
	for j := j0; j <= j1; j++ {
		cy0 := center.Y + h*(bylo+float64(j))
		py := ky.Piece(j)
		for i := i0; i <= i1; i++ {
			cx0 := center.X + h*(bxlo+float64(i))
			px := kx.Piece(i)
			poly := clip.ClipTriangleBox(tri, geom.Box(cx0, cy0, cx0+h, cy0+h))
			w.counters.Flops += uint64((len(poly) + 3) * metrics.FlopsPerClipVertex)
			if len(poly) < 3 {
				continue
			}
			for _, tau := range geom.SplitFan(poly, nil, minArea) {
				w.counters.Regions++
				w.counters.Flops += metrics.FlopsPerRegion
				if w.edPerRegion > 0 {
					w.counters.BytesRead += w.edPerRegion
					w.counters.BytesUncoalesced += w.edPerRegion
					w.counters.ScatteredLoads++
				}
				jac := 2 * tau.Area()
				bxu, bxv := tau.B.X-tau.A.X, tau.C.X-tau.A.X
				byu, byv := tau.B.Y-tau.A.Y, tau.C.Y-tau.A.Y
				dax, day := tau.A.X-inv.X0, tau.A.Y-inv.Y0
				r0 := (dax*inv.Ys - day*inv.Xs) * inv.InvDet
				ru := (bxu*inv.Ys - byu*inv.Xs) * inv.InvDet
				rv := (bxv*inv.Ys - byv*inv.Xs) * inv.InvDet
				s0 := (day*inv.Xr - dax*inv.Yr) * inv.InvDet
				su := (byu*inv.Xr - bxu*inv.Yr) * inv.InvDet
				sv := (byv*inv.Xr - bxv*inv.Yr) * inv.InvDet
				tx0, txu, txv := (tau.A.X-cx0)*invH, bxu*invH, bxv*invH
				ty0, tyu, tyv := (tau.A.Y-cy0)*invH, byu*invH, byv*invH
				for q, rp := range qpts {
					r := r0 + ru*rp.X + rv*rp.Y
					s := s0 + su*rp.X + sv*rp.Y
					var u float64
					if hc != nil {
						u = ev.horner.EvalCoeffs(hc, r, s)
					} else {
						ev.Field.Basis.EvalAll(r, s, w.basis)
						for m := 0; m < basisN; m++ {
							u += coeffs[m] * w.basis[m]
						}
					}
					tx := tx0 + txu*rp.X + txv*rp.Y
					ty := ty0 + tyu*rp.X + tyv*rp.Y
					kvx := px[len(px)-1]
					for d := len(px) - 2; d >= 0; d-- {
						kvx = kvx*tx + px[d]
					}
					kvy := py[len(py)-1]
					for d := len(py) - 2; d >= 0; d-- {
						kvy = kvy*ty + py[d]
					}
					sum += qwts[q] * jac * kvx * kvy * u
				}
				w.counters.QuadEvals += nq
				w.counters.Flops += quadFlops * nq
			}
		}
	}
	return sum * invH * invH
}

// integrateWeightsLegacy is integrateWeights before the bounded clip, with
// the same contract: weights in w.wacc, true when a sub-region integrated.
func (ev *Evaluator) integrateWeightsLegacy(center geom.Point, e int32, w *worker) bool {
	bb := ev.elemBounds[e]
	tri := ev.Mesh.Triangle(int(e)).Translate(geom.Pt(-center.X, -center.Y))
	h := ev.H
	kx, ky := w.kx, w.ky
	bxlo, _ := kx.Support()
	bylo, _ := ky.Support()
	np := kx.NumPieces()
	basisN := ev.Field.Basis.N
	if cap(w.wacc) < basisN {
		w.wacc = make([]float64, basisN)
	}
	w.wacc = w.wacc[:basisN]
	clear(w.wacc)
	i0 := int(math.Floor((bb.Min.X-center.X)/h - bxlo))
	i1 := int(math.Floor((bb.Max.X-center.X)/h - bxlo))
	j0 := int(math.Floor((bb.Min.Y-center.Y)/h - bylo))
	j1 := int(math.Floor((bb.Max.Y-center.Y)/h - bylo))
	if i1 < 0 || j1 < 0 || i0 >= np || j0 >= ky.NumPieces() {
		return false
	}
	i0, j0 = max(i0, 0), max(j0, 0)
	i1, j1 = min(i1, np-1), min(j1, ky.NumPieces()-1)
	invH := 1 / h
	inv := tri.AffineInverse()
	minArea := 1e-14 * tri.Area()
	quadFlops := metrics.FlopsPerQuadEval(ev.Opt.P, ev.Opt.P)
	qpts, qwts := ev.rule.Points, ev.rule.Weights
	nq := uint64(len(qpts))
	var clip geom.Clipper
	integrated := false
	for j := j0; j <= j1; j++ {
		cy0 := h * (bylo + float64(j))
		py := ky.Piece(j)
		for i := i0; i <= i1; i++ {
			cx0 := h * (bxlo + float64(i))
			px := kx.Piece(i)
			poly := clip.ClipTriangleBox(tri, geom.Box(cx0, cy0, cx0+h, cy0+h))
			w.counters.Flops += uint64((len(poly) + 3) * metrics.FlopsPerClipVertex)
			if len(poly) < 3 {
				continue
			}
			for _, tau := range geom.SplitFan(poly, nil, minArea) {
				integrated = true
				w.counters.Regions++
				w.counters.Flops += metrics.FlopsPerRegion
				jac := 2 * tau.Area()
				bxu, bxv := tau.B.X-tau.A.X, tau.C.X-tau.A.X
				byu, byv := tau.B.Y-tau.A.Y, tau.C.Y-tau.A.Y
				dax, day := tau.A.X-inv.X0, tau.A.Y-inv.Y0
				r0 := (dax*inv.Ys - day*inv.Xs) * inv.InvDet
				ru := (bxu*inv.Ys - byu*inv.Xs) * inv.InvDet
				rv := (bxv*inv.Ys - byv*inv.Xs) * inv.InvDet
				s0 := (day*inv.Xr - dax*inv.Yr) * inv.InvDet
				su := (byu*inv.Xr - bxu*inv.Yr) * inv.InvDet
				sv := (byv*inv.Xr - bxv*inv.Yr) * inv.InvDet
				tx0, txu, txv := (tau.A.X-cx0)*invH, bxu*invH, bxv*invH
				ty0, tyu, tyv := (tau.A.Y-cy0)*invH, byu*invH, byv*invH
				for q, rp := range qpts {
					r := r0 + ru*rp.X + rv*rp.Y
					s := s0 + su*rp.X + sv*rp.Y
					tx := tx0 + txu*rp.X + txv*rp.Y
					ty := ty0 + tyu*rp.X + tyv*rp.Y
					kvx := px[len(px)-1]
					for d := len(px) - 2; d >= 0; d-- {
						kvx = kvx*tx + px[d]
					}
					kvy := py[len(py)-1]
					for d := len(py) - 2; d >= 0; d-- {
						kvy = kvy*ty + py[d]
					}
					scale := qwts[q] * jac * kvx * kvy * invH * invH
					ev.Field.Basis.EvalAll(r, s, w.basis)
					for m := 0; m < basisN; m++ {
						w.wacc[m] += scale * w.basis[m]
					}
				}
				w.counters.QuadEvals += nq
				w.counters.Flops += quadFlops * nq
			}
		}
	}
	return integrated
}

// bitwiseKernels reports whether the straight-line kernels must match the
// generic loop bit for bit: on amd64 the compiler never contracts a*b + c
// into an FMA, at any GOAMD64 level. Architectures that fuse (arm64 and
// others) may fuse the two forms differently, so there the values need
// only agree to rounding (DESIGN.md §9); counters stay exact everywhere.
var bitwiseKernels = runtime.GOARCH == "amd64"

// sameValue is bit equality, relaxed to a last-bits tolerance only where
// bitwiseKernels is false.
func sameValue(a, b float64) bool {
	if math.Float64bits(a) == math.Float64bits(b) {
		return true
	}
	return !bitwiseKernels && math.Abs(a-b) <= 1e-13*math.Max(1e-300, math.Max(math.Abs(a), math.Abs(b)))
}

// kernelChecker compares, for one evaluator, integrate through the
// evaluator's chosen kernel, integrate forced onto the generic loop, and
// integrateLegacy — values and counters bit for bit — plus integrateWeights
// against integrateWeightsLegacy. Its workers carry counters across calls,
// so a divergence in any counter anywhere surfaces at the end.
type kernelChecker struct {
	t       testing.TB
	ev      *Evaluator
	kernel  *worker // ev.quad (straight-line for P 1..4)
	generic *worker // quadGeneric
	legacy  *worker // integrateLegacy
	wNew    *worker // integrateWeights
	wOld    *worker // integrateWeightsLegacy
	calls   int
}

func newKernelChecker(t testing.TB, ev *Evaluator) *kernelChecker {
	return &kernelChecker{t: t, ev: ev, kernel: ev.newWorker(), generic: ev.newWorker(),
		legacy: ev.newWorker(), wNew: ev.newWorker(), wOld: ev.newWorker()}
}

// check evaluates element e against a stencil centred at center, with the
// kernels in effect at pos (one-sided kernels depend on the point, not the
// periodic image).
func (kc *kernelChecker) check(pos, center geom.Point, e int32) {
	kc.t.Helper()
	ev := kc.ev
	kx, ky, err := ev.kernelsFor(pos)
	if err != nil {
		kc.t.Fatal(err)
	}
	for _, w := range []*worker{kc.kernel, kc.generic, kc.legacy, kc.wNew, kc.wOld} {
		w.kx, w.ky = kx, ky
	}
	got := ev.integrate(center, e, kc.kernel)
	quad := ev.quad
	ev.quad = nil
	ref := ev.integrate(center, e, kc.generic)
	ev.quad = quad
	old := ev.integrateLegacy(center, e, kc.legacy)
	if !sameValue(got, ref) || !sameValue(got, old) {
		kc.t.Fatalf("P%d elem %d center %v: kernel %x (%v), generic %x (%v), legacy %x (%v)",
			ev.Opt.P, e, center, math.Float64bits(got), got, math.Float64bits(ref), ref,
			math.Float64bits(old), old)
	}
	okNew := ev.integrateWeights(center, e, kc.wNew)
	okOld := ev.integrateWeightsLegacy(center, e, kc.wOld)
	if okNew != okOld {
		kc.t.Fatalf("P%d elem %d center %v: integrateWeights integrated=%v, legacy %v", ev.Opt.P, e, center, okNew, okOld)
	}
	if okNew {
		for m := range kc.wNew.wacc {
			if !sameValue(kc.wNew.wacc[m], kc.wOld.wacc[m]) {
				kc.t.Fatalf("P%d elem %d center %v: wacc[%d] = %v, legacy %v",
					ev.Opt.P, e, center, m, kc.wNew.wacc[m], kc.wOld.wacc[m])
			}
		}
	}
	kc.calls++
}

// checkPoint runs check for every element and, on periodic domains, every
// image shift of the stencil centred at pos.
func (kc *kernelChecker) checkPoint(pos geom.Point) {
	kc.t.Helper()
	shifts := []int{-1, 0, 1}
	if kc.ev.Opt.Boundary == OneSided {
		shifts = []int{0}
	}
	for e := range kc.ev.Mesh.Tris {
		for _, dy := range shifts {
			for _, dx := range shifts {
				kc.check(pos, geom.Pt(pos.X+float64(dx), pos.Y+float64(dy)), int32(e))
			}
		}
	}
}

// finish asserts the accumulated counters agree across all paths.
func (kc *kernelChecker) finish() {
	kc.t.Helper()
	if kc.kernel.counters != kc.generic.counters || kc.kernel.counters != kc.legacy.counters {
		kc.t.Fatalf("P%d counters diverge:\n kernel  %+v\n generic %+v\n legacy  %+v",
			kc.ev.Opt.P, kc.kernel.counters, kc.generic.counters, kc.legacy.counters)
	}
	if kc.wNew.counters != kc.wOld.counters {
		kc.t.Fatalf("P%d integrateWeights counters diverge:\n new %+v\n legacy %+v",
			kc.ev.Opt.P, kc.wNew.counters, kc.wOld.counters)
	}
	if kc.kernel.counters.Regions == 0 {
		kc.t.Fatalf("P%d: no sub-region integrated over %d calls", kc.ev.Opt.P, kc.calls)
	}
}

func kernelTestField(t testing.TB, m *mesh.Mesh, p int, opt Options) *Evaluator {
	t.Helper()
	fn := func(pt geom.Point) float64 {
		return math.Sin(2*math.Pi*pt.X)*math.Cos(2*math.Pi*pt.Y) + 0.25*pt.X*pt.Y
	}
	opt.P = p
	opt.Workers = 1
	ev, err := NewEvaluator(dg.Project(m, p, fn, 2), opt)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// kernelTestMesh builds one of the fuzzed mesh families at a small size.
func kernelTestMesh(t testing.TB, family uint8, seed int64) (*mesh.Mesh, string) {
	t.Helper()
	var (
		m    *mesh.Mesh
		err  error
		name string
	)
	switch family % 5 {
	case 0:
		m, name = mesh.Structured(4), "structured"
	case 1:
		m, name = mesh.JitteredStructured(5, 0.3, seed), "jittered"
	case 2:
		m, err = mesh.LowVariance(4, seed)
		name = "lv-delaunay"
	case 3:
		m, err = mesh.HighVariance(4, 2, seed)
		name = "hv-delaunay"
	default:
		m, err = mesh.HighVariance(5, 8, seed)
		name = "graded"
	}
	if err != nil {
		t.Fatal(err)
	}
	return m, name
}

// TestIntegrateKernelMeshFamilies: the straight-line kernels, the generic
// loop and the pre-kernel integrate agree bit for bit — value and every
// counter — on structured, jittered, LV/HV Delaunay and graded meshes at
// P1–P4, periodic and one-sided, at interior, boundary and corner points.
// integrateWeights agrees with its pre-bounded-clip form the same way.
func TestIntegrateKernelMeshFamilies(t *testing.T) {
	points := []geom.Point{
		geom.Pt(0.5, 0.5), geom.Pt(0.3141, 0.7182), geom.Pt(0.02, 0.97),
		geom.Pt(0, 0), geom.Pt(0.999, 0.5), geom.Pt(0.75, 0.25),
	}
	for family := uint8(0); family < 5; family++ {
		m, name := kernelTestMesh(t, family, 7)
		for p := 1; p <= 4; p++ {
			for _, b := range []Boundary{Periodic, OneSided} {
				t.Run(fmt.Sprintf("%s/P%d/%v", name, p, b), func(t *testing.T) {
					ev := kernelTestField(t, m, p, Options{Boundary: b})
					if ev.quad == nil {
						t.Fatalf("P%d evaluator did not select a straight-line kernel", p)
					}
					kc := newKernelChecker(t, ev)
					for _, pos := range points {
						kc.checkPoint(pos)
					}
					kc.finish()
				})
			}
		}
	}
}

// adversarialMesh holds elements built to stress the clip and fan: with
// H = 1/8 and a lattice-aligned stencil centre, vertices on multiples of
// 1/8 sit exactly on kernel-cell lines or corners. It is not a conforming
// partition of the unit square; integrate does not need one.
func adversarialMesh() *mesh.Mesh {
	tris := []geom.Triangle{
		// Edges along cell lines, vertices on cell corners.
		{A: geom.Pt(0.25, 0.25), B: geom.Pt(0.375, 0.25), C: geom.Pt(0.25, 0.375)},
		// Corner-to-corner element spanning several cells.
		{A: geom.Pt(0.125, 0.125), B: geom.Pt(0.625, 0.125), C: geom.Pt(0.125, 0.5)},
		// Sliver crossing many cells.
		{A: geom.Pt(0.1, 0.3), B: geom.Pt(0.9, 0.3000000001), C: geom.Pt(0.5, 0.3000000000004)},
		// Needle along a cell line.
		{A: geom.Pt(0.25, 0.1), B: geom.Pt(0.25000000001, 0.1), C: geom.Pt(0.25, 0.8)},
		// Clockwise element.
		{A: geom.Pt(0.3, 0.3), B: geom.Pt(0.3, 0.45), C: geom.Pt(0.45, 0.3)},
		// One-cell element.
		{A: geom.Pt(0.26, 0.26), B: geom.Pt(0.27, 0.26), C: geom.Pt(0.26, 0.27)},
		// Vertex on a line, edges crossing others.
		{A: geom.Pt(0.25, 0.3), B: geom.Pt(0.4, 0.31), C: geom.Pt(0.3, 0.5)},
		// Element exactly filling one cell's lower-left half.
		{A: geom.Pt(0.5, 0.5), B: geom.Pt(0.625, 0.5), C: geom.Pt(0.5, 0.625)},
		// Straddles the periodic seam.
		{A: geom.Pt(0.95, 0.9), B: geom.Pt(1, 0.95), C: geom.Pt(0.9, 1)},
	}
	m := &mesh.Mesh{}
	for _, tr := range tris {
		base := int32(len(m.Verts))
		m.Verts = append(m.Verts, tr.A, tr.B, tr.C)
		m.Tris = append(m.Tris, [3]int32{base, base + 1, base + 2})
	}
	return m
}

// TestIntegrateKernelAdversarial drives the bit-identity checks through
// adversarial elements — vertices exactly on cell lines and corners,
// slivers, a needle, clockwise input, one-cell elements — at stencil
// centres aligned to the 1/8 lattice and off it.
func TestIntegrateKernelAdversarial(t *testing.T) {
	m := adversarialMesh()
	for p := 1; p <= 4; p++ {
		for _, b := range []Boundary{Periodic, OneSided} {
			t.Run(fmt.Sprintf("P%d/%v", p, b), func(t *testing.T) {
				ev := kernelTestField(t, m, p, Options{H: 0.125, Boundary: b})
				if ev.quad == nil {
					t.Fatalf("P%d evaluator did not select a straight-line kernel", p)
				}
				lo, _ := ev.Kernel.Support()
				// Cell lines sit at center + h·(lo + i); shift the centre by
				// lo's fractional part so they land on multiples of 1/8.
				off := 0.125 * (math.Ceil(lo) - lo)
				kc := newKernelChecker(t, ev)
				for _, pos := range []geom.Point{
					geom.Pt(0.5+off, 0.5+off), geom.Pt(0.25+off, 0.375+off),
					geom.Pt(0.4871, 0.5213),
				} {
					kc.checkPoint(pos)
				}
				for e := range m.Tris {
					kc.checkPoint(m.Centroid(e))
				}
				kc.finish()
			})
		}
	}
}

// TestIntegrateKernelDegenerateElement: a zero-area element contributes
// nothing and charges the same clip counters as the per-cell path did.
func TestIntegrateKernelDegenerateElement(t *testing.T) {
	m := &mesh.Mesh{
		Verts: []geom.Point{
			geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1),
			geom.Pt(0.2, 0.2), geom.Pt(0.4, 0.4), geom.Pt(0.6, 0.6),
		},
		Tris: [][3]int32{{0, 1, 2}, {3, 4, 5}},
	}
	ev := kernelTestField(t, m, 1, Options{H: 0.125})
	kc := newKernelChecker(t, ev)
	for _, pos := range []geom.Point{geom.Pt(0.4, 0.4), geom.Pt(0.3, 0.5)} {
		kc.check(pos, pos, 1)
	}
	if kc.legacy.counters.Flops == 0 {
		t.Fatal("degenerate element charged no clip flops")
	}
	if kc.kernel.counters != kc.legacy.counters || kc.wNew.counters != kc.wOld.counters {
		t.Fatalf("counters diverge:\n kernel %+v\n legacy %+v\n weights %+v / %+v",
			kc.kernel.counters, kc.legacy.counters, kc.wNew.counters, kc.wOld.counters)
	}
	kc.checkPoint(geom.Pt(0.3, 0.2))
	kc.finish()
}

// TestIntegrateKernelOperands feeds each straight-line kernel adversarial
// operands directly — signed zeros (u = 0·s + c must keep +0 for a −0
// leading coefficient), subnormals, magnitudes that overflow to ±Inf and
// cancel to NaN — and requires the generic loop's exact bit patterns.
func TestIntegrateKernelOperands(t *testing.T) {
	if !bitwiseKernels {
		t.Skip("overflowing operands amplify FMA rounding differences without bound; see bitwiseKernels")
	}
	m := mesh.Structured(2)
	values := []float64{
		math.Copysign(0, -1), 0, 1, -1, 0.3, -2.5, 5e-324, -1e-310, 1e300, -1e300,
		math.Inf(1), math.Inf(-1), 1e-17, 3.75, -0.125,
	}
	for p := 1; p <= 4; p++ {
		ev := kernelTestField(t, m, p, Options{})
		kern := quadKernels[p]
		w := ev.newWorker()
		n := len(ev.horner.ElemCoeffs(0))
		pick := func(i int) float64 { return values[i%len(values)] }
		for trial := 0; trial < 400; trial++ {
			rq := regionQuad{
				r0: pick(trial), ru: pick(trial + 3), rv: pick(trial*7 + 1),
				s0: pick(trial*5 + 2), su: -pick(trial + 4), sv: pick(trial*11 + 6),
				tx0: pick(trial*3 + 5), txu: pick(trial + 8), txv: pick(trial*2 + 9),
				ty0: pick(trial*13 + 1), tyu: pick(trial + 10), tyv: pick(trial*17 + 3),
				jac: math.Abs(pick(trial*19 + 2)),
				hc:  make([]float64, n), px: make([]float64, p+1), py: make([]float64, p+1),
			}
			if trial%4 == 0 { // moderate operands: finite, structured sums
				rq.r0, rq.s0, rq.tx0, rq.ty0, rq.jac = 0.1, -0.2, 0.5, 0.25, 0.01
			}
			for i := range rq.hc {
				rq.hc[i] = pick(trial*23 + i*5)
			}
			for i := range rq.px {
				rq.px[i], rq.py[i] = pick(trial*29+i*3), pick(trial*31+i*7)
			}
			start := pick(trial * 37)
			got := kern(start, &rq, ev.rule.Points, ev.rule.Weights)
			want := ev.quadGeneric(start, &rq, nil, w)
			if math.Float64bits(got) != math.Float64bits(want) &&
				!(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("P%d trial %d: kernel %x (%v), generic %x (%v)",
					p, trial, math.Float64bits(got), got, math.Float64bits(want), want)
			}
		}
	}
}

// fuzzEvs caches FuzzIntegrateKernel's evaluators per configuration. Fuzz
// inputs run one at a time within a process, which the cache and
// kernelChecker's temporary swap of ev.quad both rely on.
var fuzzEvs = map[string]*Evaluator{}

// FuzzIntegrateKernel explores (mesh family, seed, P, boundary, stencil
// centre): every element and periodic image must integrate bit-identically
// through the straight-line kernel, the generic loop and the pre-kernel
// integrate, values and counters, and integrateWeights must match its
// pre-bounded-clip form.
func FuzzIntegrateKernel(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(1), false, 0.5, 0.5)
	f.Add(uint8(1), int64(2), uint8(2), true, 0.03, 0.91)
	f.Add(uint8(2), int64(3), uint8(3), false, 0.25, 0.75)
	f.Add(uint8(3), int64(4), uint8(4), true, 0.999, 0.001)
	f.Add(uint8(4), int64(5), uint8(1), false, 0.125, 0.625)
	f.Add(uint8(4), int64(6), uint8(4), true, 0.0, 0.5)
	f.Fuzz(func(t *testing.T, family uint8, seed int64, p uint8, oneSided bool, x, y float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			t.Skip()
		}
		pos := geom.Pt(x-math.Floor(x), y-math.Floor(y))
		order := 1 + int(p%4)
		b := Periodic
		if oneSided {
			b = OneSided
		}
		seed %= 4
		key := fmt.Sprintf("%d/%d/%d/%v", family%5, seed, order, b)
		ev, ok := fuzzEvs[key]
		if !ok {
			m, _ := kernelTestMesh(t, family, seed)
			ev = kernelTestField(t, m, order, Options{Boundary: b})
			fuzzEvs[key] = ev
		}
		kc := newKernelChecker(t, ev)
		kc.checkPoint(pos)
		if kc.kernel.counters != kc.generic.counters || kc.kernel.counters != kc.legacy.counters ||
			kc.wNew.counters != kc.wOld.counters {
			t.Fatalf("counters diverge:\n kernel  %+v\n generic %+v\n legacy  %+v\n weights %+v / %+v",
				kc.kernel.counters, kc.generic.counters, kc.legacy.counters, kc.wNew.counters, kc.wOld.counters)
		}
	})
}
