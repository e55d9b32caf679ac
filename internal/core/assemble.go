package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"unstencil/internal/geom"
	"unstencil/internal/metrics"
	"unstencil/internal/operator"
	"unstencil/internal/spatial"
)

// This file assembles the SIAC post-processing step as a sparse operator
// (internal/operator): instead of contracting quadrature samples with the
// field's modal coefficients, integrateWeights accumulates the per-basis-
// function weights W[pt][e][m] of Eq. (2), which depend only on
// (mesh, grid, kernel, h) — never on the coefficients. Applying the frozen
// CSR to a coefficient vector reproduces RunPerPoint/RunPerElement to
// rounding, so for workloads that post-process many fields on one mesh
// (every time step of the dg/advect solver, or a resident service's warm
// mesh) all candidate finding, clipping, fan triangulation and kernel
// Horner evaluation is paid once and amortised.

// RowOrder selects how assembled CSR rows are laid out in memory.
type RowOrder int

const (
	// RowMorton (the default) stores rows in quadtree depth-first
	// (Z-order) sequence of their point positions, so consecutive rows of
	// the SpMV gather coefficient blocks of spatially nearby elements —
	// the cache-friendly layout internal/spatial's quadtree provides.
	RowMorton RowOrder = iota
	// RowNatural stores rows in point-index order.
	RowNatural
)

// AssembleOpts configure AssembleOperator. The zero value assembles the
// evaluation grid with the per-point scheme, Morton row order, and the
// evaluator's worker budget.
type AssembleOpts struct {
	// Scheme selects the assembly iteration order: PerPoint builds rows
	// independently (gather); PerElement walks elements under the
	// overlapped tiling with a two-stage reduction, so tiles stay the
	// unit of concurrency exactly as in the evaluation schemes.
	Scheme Scheme
	// Blocks is the patch count for per-element assembly (0 = Workers).
	// Per-point assembly dispatches rows directly and ignores it.
	Blocks int
	// Workers bounds assembly and the operator's default Apply
	// concurrency; 0 means the evaluator's Opt.Workers.
	Workers int
	// Points supplies custom row positions (e.g. a query batch) instead
	// of the evaluation grid. Custom rows require the per-point scheme:
	// the tiling's candidate structures only cover the grid.
	Points []geom.Point
	// RowOrder selects the CSR row layout (default RowMorton).
	RowOrder RowOrder
	// Congruence selects congruence-first assembly (per-point scheme
	// only): rows are grouped by geometric signature before any quadrature
	// runs, one representative per class is integrated, and provably
	// congruent rows are stamped from it (see signature.go). The default
	// assembles every row independently.
	Congruence CongruenceMode
	// SigQuantum overrides the signature quantisation step, in units of h
	// (0 = the sigQuantum default). Coarser quanta put more near-congruent
	// rows into shared prefilter buckets; correctness never depends on the
	// value — the fuzz tests sweep it. Negative is rejected.
	SigQuantum float64
	// Layout selects the frozen operator's storage layout. The zero value
	// is operator.LayoutBSR: assembly emits element-block runs directly and
	// the operator freezes into the blocked index (scalar CSR fallback when
	// basisN is 1). operator.LayoutCSR forces the scalar layout.
	Layout operator.Layout
	// SigCache, when non-nil, caches canonical signature hashes across
	// assemblies on the same mesh (congruence-first path only): rows whose
	// (position, kernel class) pair was hashed by an earlier assembly skip
	// the candidate walk and re-canonicalisation entirely. See
	// SignatureCache for the soundness contract.
	SigCache SignatureCache
}

// AssembleOperator builds the assembled post-processing operator for this
// evaluator's (mesh, grid, kernel, h) tuple. The operator is independent
// of the evaluator's field: any field of the same degree on the same mesh
// may be applied. Row weights are accumulated by the same candidate
// enumeration, clipping and exact sub-region quadrature the direct schemes
// use, so Apply agrees with RunPerPoint to rounding for symmetric and
// one-sided boundary configurations alike.
func (ev *Evaluator) AssembleOperator(opts AssembleOpts) (*operator.Operator, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = ev.Opt.Workers
	}
	basisN := ev.Field.Basis.N
	cols := ev.Mesh.NumTris() * basisN
	if int64(ev.Mesh.NumTris())*int64(basisN) > math.MaxInt32 {
		return nil, fmt.Errorf("core: operator column space %d×%d exceeds int32 indexing",
			ev.Mesh.NumTris(), basisN)
	}

	positions := opts.Points
	custom := positions != nil
	if !custom {
		positions = make([]geom.Point, len(ev.Points))
		for i, gp := range ev.Points {
			positions[i] = gp.Pos
		}
	}

	// Row-ordering pass: quadtree depth-first order is the Z curve, so
	// storage neighbours are spatial neighbours (see spatial.Quadtree.Order).
	var perm []int32
	if opts.RowOrder == RowMorton && len(positions) > 1 {
		perm = spatial.NewQuadtree(positions).Order()
	}

	start := time.Now()
	var (
		bld *operator.Builder
		ctr metrics.Counters
		err error
	)
	var stats *operator.CongruenceStats
	switch opts.Scheme {
	case PerPoint:
		if opts.Congruence == CongruenceTemplate {
			bld, ctr, stats, err = ev.assemblePerPointCongruent(positions, perm, workers, basisN, cols, opts.SigQuantum, opts.SigCache)
		} else {
			bld, ctr, err = ev.assemblePerPoint(positions, perm, workers, basisN, cols)
		}
	case PerElement:
		if custom {
			return nil, fmt.Errorf("core: per-element assembly requires the evaluation grid (custom points need PerPoint)")
		}
		if opts.Congruence != CongruenceNone {
			return nil, fmt.Errorf("core: congruence-first assembly requires the per-point scheme")
		}
		bld, ctr, err = ev.assemblePerElement(opts.Blocks, perm, workers, basisN, cols)
	default:
		return nil, fmt.Errorf("core: cannot assemble with scheme %v", opts.Scheme)
	}
	if err != nil {
		return nil, err
	}
	op := bld.FinishLayout(opts.Layout, perm, workers, opts.Scheme.String(), time.Since(start), ctr)
	op.Congruence = stats
	return op, nil
}

// rowAccum merges one row's (element → weights) contributions across
// periodic images and candidate visits. Per-goroutine scratch.
type rowAccum struct {
	basisN int
	elems  []int32
	idx    map[int32]int32
	w      []float64
}

func newRowAccum(basisN int) *rowAccum {
	return &rowAccum{basisN: basisN, idx: make(map[int32]int32)}
}

func (a *rowAccum) reset() {
	a.elems = a.elems[:0]
	a.w = a.w[:0]
	clear(a.idx)
}

// row returns the weight block of element e, creating a zeroed block on
// first touch.
func (a *rowAccum) row(e int32) []float64 {
	if i, ok := a.idx[e]; ok {
		return a.w[int(i)*a.basisN : (int(i)+1)*a.basisN]
	}
	i := int32(len(a.elems))
	a.idx[e] = i
	a.elems = append(a.elems, e)
	for j := 0; j < a.basisN; j++ {
		a.w = append(a.w, 0)
	}
	return a.w[int(i)*a.basisN : (int(i)+1)*a.basisN]
}

// add accumulates src into element e's block.
func (a *rowAccum) add(e int32, src []float64) {
	dst := a.row(e)
	for m := range dst {
		dst[m] += src[m]
	}
}

// flatten emits the accumulated row as ascending CSR columns. The sort is
// over the handful of contributing elements, so it is noise next to the
// quadrature that produced the weights.
func (a *rowAccum) flatten(cols []int32, vals []float64) ([]int32, []float64) {
	order := make([]int32, len(a.elems))
	copy(order, a.elems)
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	cols, vals = cols[:0], vals[:0]
	for _, e := range order {
		blk := a.w[int(a.idx[e])*a.basisN : (int(a.idx[e])+1)*a.basisN]
		for m, v := range blk {
			cols = append(cols, e*int32(a.basisN)+int32(m))
			vals = append(vals, v)
		}
	}
	return cols, vals
}

// flattenBlocks emits the accumulated row in block form — one ascending
// element id per basisN-wide weight block, exactly the (elems, vals) pair
// Builder.SetRowBlocks takes. The values are appended in the identical
// order flatten would emit them, so the frozen row is the same under
// either layout.
func (a *rowAccum) flattenBlocks(elems []int32, vals []float64) ([]int32, []float64) {
	elems = append(elems[:0], a.elems...)
	sort.Slice(elems, func(i, j int) bool { return elems[i] < elems[j] })
	vals = vals[:0]
	for _, e := range elems {
		vals = append(vals, a.w[int(a.idx[e])*a.basisN:(int(a.idx[e])+1)*a.basisN]...)
	}
	return elems, vals
}

// assemblePerPoint builds rows independently: each row enumerates its
// candidate elements exactly as evalAt does and accumulates weights.
// Rows are uniform units with disjoint outputs, so they are dispatched
// off a shared atomic counter (runDynamic) with pooled workers, and the
// result is bit-identical for every worker count.
func (ev *Evaluator) assemblePerPoint(positions []geom.Point, perm []int32, workers, basisN, cols int) (*operator.Builder, metrics.Counters, error) {
	n := len(positions)
	bld := operator.NewBuilder(n, cols, basisN)
	wks := ev.getWorkers(max(min(workers, n), 1))
	type rowScratch struct {
		acc  *rowAccum
		cols []int32
		vals []float64
	}
	scr := make([]rowScratch, len(wks))
	for i := range scr {
		scr[i].acc = newRowAccum(basisN)
	}
	var ec errCollector
	runDynamic(min(workers, n), n, func(w, r int) bool {
		wk, s := wks[w], &scr[w]
		pt := r
		if perm != nil {
			pt = int(perm[r])
		}
		if err := ev.assembleRow(positions[pt], wk, s.acc); err != nil {
			ec.set(err)
			return false
		}
		s.cols, s.vals = s.acc.flattenBlocks(s.cols, s.vals)
		bld.SetRowBlocks(r, s.cols, s.vals)
		return true
	})
	var total metrics.Counters
	for _, wk := range wks {
		total.Add(&wk.counters)
	}
	ev.putWorkers(wks)
	if ec.err != nil {
		return nil, total, ec.err
	}
	return bld, total, nil
}

// assembleRow accumulates every candidate element's weight block for a
// stencil centred at pos, mirroring evalAt's enumeration (periodic images,
// hash-grid candidates, bounding-box rejection).
func (ev *Evaluator) assembleRow(pos geom.Point, wk *worker, acc *rowAccum) error {
	acc.reset()
	return ev.forEachRowCandidate(pos, wk, func(e int32, center geom.Point) {
		if ev.integrateWeights(center, e, wk) {
			wk.counters.TruePositives++
			acc.add(e, wk.wacc)
		}
	})
}

// forEachRowCandidate enumerates, in the deterministic order the assembly
// integrates them, every bounding-box-passing (periodic image, element)
// candidate pair of a stencil centred at pos. Both the integration pass
// (assembleRow) and the congruence signature pass walk candidates through
// this one enumerator, so a signature match certifies that the integration
// pass would visit translate-identical pairs in the identical sequence —
// the property row stamping relies on.
func (ev *Evaluator) forEachRowCandidate(pos geom.Point, wk *worker, visit func(e int32, center geom.Point)) error {
	kx, ky, err := ev.kernelsFor(pos)
	if err != nil {
		return err
	}
	wk.kx, wk.ky = kx, ky
	xlo, xhi := kx.Support()
	ylo, yhi := ky.Support()
	supp := geom.Box(
		pos.X+ev.H*xlo, pos.Y+ev.H*ylo,
		pos.X+ev.H*xhi, pos.Y+ev.H*yhi,
	)
	ev.forEachShift(supp, func(dx, dy int) {
		shift := geom.Pt(float64(dx), float64(dy))
		box := supp.Translate(shift.Scale(-1))
		center := pos.Sub(shift)
		wk.cand = ev.elemGrid.AppendInBox(wk.cand[:0], box, 1)
		for _, e := range wk.cand {
			wk.counters.IntersectionTests++
			wk.counters.Flops += metrics.FlopsPerTest
			if !ev.elemBounds[e].Intersects(box) {
				continue
			}
			visit(e, center)
		}
	})
	return nil
}

// assemblePerElement walks elements under the overlapped tiling: each
// patch accumulates (point, element) weight blocks into its own
// scratch-pad keyed by the tiling's slots, then a two-stage reduction
// merges the per-patch partials into CSR rows over the owned-point
// partition — tiles stay the unit of concurrency, dispatched on the
// work-stealing deques like the per-element evaluation scheme.
func (ev *Evaluator) assemblePerElement(blocks int, perm []int32, workers, basisN, cols int) (*operator.Builder, metrics.Counters, error) {
	if blocks < 1 {
		blocks = max(workers, 1)
	}
	t := ev.NewTiling(blocks)
	n := len(ev.Points)
	bld := operator.NewBuilder(n, cols, basisN)

	// Per-patch scratch-pads: one (elems, weights) pair per slot. Disjoint
	// write sets per patch, exactly like the partial-solution buffers.
	patchElems := make([][][]int32, t.K)
	patchW := make([][][]float64, t.K)
	for p := 0; p < t.K; p++ {
		patchElems[p] = make([][]int32, len(t.Slots[p]))
		patchW[p] = make([][]float64, len(t.Slots[p]))
	}

	dispatch := min(workers, t.K)
	wks := ev.getWorkers(max(dispatch, 1))
	var ec errCollector
	runStealing(strideSeed(t.K, dispatch), func(w, p int) bool {
		wk := wks[w]
		elems, wts := patchElems[p], patchW[p]
		for _, e := range t.PatchElems[p] {
			err := ev.assembleElement(e, wk, func(pt int32) {
				sl := t.Slot(p, pt)
				i := int32(-1)
				for j, fe := range elems[sl] {
					if fe == e {
						i = int32(j)
						break
					}
				}
				if i < 0 {
					i = int32(len(elems[sl]))
					elems[sl] = append(elems[sl], e)
					wts[sl] = append(wts[sl], make([]float64, basisN)...)
				}
				blk := wts[sl][int(i)*basisN : (int(i)+1)*basisN]
				for m := range blk {
					blk[m] += wk.wacc[m]
				}
			})
			if err != nil {
				ec.set(err)
				return false
			}
		}
		return true
	})
	var total metrics.Counters
	for _, wk := range wks {
		total.Add(&wk.counters)
	}
	ev.putWorkers(wks)
	if ec.err != nil {
		return nil, total, ec.err
	}

	// Storage-row index per point (inverse of perm).
	rowOf := make([]int32, n)
	if perm == nil {
		for i := range rowOf {
			rowOf[i] = int32(i)
		}
	} else {
		for r, pt := range perm {
			rowOf[pt] = int32(r)
		}
	}

	// Stage-two reduction over the owned-point partition: each patch's
	// reducer freezes exactly its owned rows, merging contributions from
	// every patch in ascending patch order — contention-free and
	// deterministic for any worker count, like tile.ReduceParallel.
	type redScratch struct {
		acc  *rowAccum
		cols []int32
		vals []float64
	}
	scr := make([]redScratch, max(dispatch, 1))
	for i := range scr {
		scr[i].acc = newRowAccum(basisN)
	}
	runDynamic(dispatch, t.K, func(w, p int) bool {
		s := &scr[w]
		for _, pt := range t.OwnedPoints(p) {
			s.acc.reset()
			for q := 0; q < t.K; q++ {
				sl := t.Slot(q, pt)
				if sl < 0 {
					continue
				}
				for j, e := range patchElems[q][sl] {
					s.acc.add(e, patchW[q][sl][j*basisN:(j+1)*basisN])
				}
			}
			s.cols, s.vals = s.acc.flattenBlocks(s.cols, s.vals)
			bld.SetRowBlocks(int(rowOf[pt]), s.cols, s.vals)
		}
		return true
	})
	return bld, total, nil
}

// assembleElement is processElement's weight-accumulating twin: it visits
// every candidate grid point of element e and, for each pair with a
// non-empty geometric intersection, leaves the pair's weight block in
// wk.wacc and hands the point to add.
func (ev *Evaluator) assembleElement(e int32, wk *worker, add func(pt int32)) error {
	bb := ev.elemBounds[e]
	box := bb.Pad(ev.influencePad())
	wk.counters.ScatteredLoads++
	var firstErr error
	ev.forEachShift(box, func(dx, dy int) {
		if firstErr != nil {
			return
		}
		s := geom.Pt(float64(-dx), float64(-dy))
		qbox := box.Translate(s)
		wk.cand = ev.pointGrid.AppendInBox(wk.cand[:0], qbox, 0)
		for _, pt := range wk.cand {
			wk.counters.IntersectionTests++
			wk.counters.Flops += metrics.FlopsPerTest
			pos := ev.Points[pt].Pos
			kx, ky, err := ev.kernelsFor(pos)
			if err != nil {
				firstErr = err
				return
			}
			wk.kx, wk.ky = kx, ky
			center := pos.Sub(s)
			xlo, xhi := kx.Support()
			ylo, yhi := ky.Support()
			supp := geom.Box(
				center.X+ev.H*xlo, center.Y+ev.H*ylo,
				center.X+ev.H*xhi, center.Y+ev.H*yhi,
			)
			if !supp.Intersects(bb) {
				continue
			}
			if ev.integrateWeights(center, e, wk) {
				wk.counters.TruePositives++
				add(pt)
			}
		}
	})
	return firstErr
}

// integrateWeights is integrate with the coefficient contraction removed:
// it accumulates, into wk.wacc, the per-basis-function weights
//
//	wacc[m] = (1/h²) Σ_{cells} Σ_{τ_n} Σ_q w_q · jac · K_x · K_y · φ_m(r_q, s_q)
//
// for element e against a stencil centred at center, using the same
// clipping, fan triangulation and fused per-sub-region affine maps as the
// direct path. It reports whether any sub-region was integrated (false
// leaves wk.wacc unspecified). Contracting the result with the element's
// modal coefficients reproduces integrate's value up to summation-order
// rounding.
//
// Unlike the direct path, every geometric quantity here is computed in
// stencil-local coordinates (the element translated by -center, kernel
// cells at exact offsets h·(blo+i) from the origin). The weights are
// translation-invariant in exact arithmetic, and working in local
// coordinates makes them translation-invariant in floating point too
// whenever the inputs are exact translates: two stencils whose element
// geometry differs by an exactly-representable shift see bitwise-identical
// local vertices and therefore produce bitwise-identical weight rows. That
// is what the operator package's row-congruence template dedup keys on —
// interior points of a (near-)structured mesh collapse to a handful of
// shared stencil templates.
func (ev *Evaluator) integrateWeights(center geom.Point, e int32, wk *worker) bool {
	bb := ev.elemBounds[e]
	tri := ev.Mesh.Triangle(int(e)).Translate(geom.Pt(-center.X, -center.Y))
	h := ev.H
	kx, ky := wk.kx, wk.ky
	bxlo, _ := kx.Support()
	bylo, _ := ky.Support()
	np := kx.NumPieces()

	basisN := ev.Field.Basis.N
	if cap(wk.wacc) < basisN {
		wk.wacc = make([]float64, basisN)
	}
	wk.wacc = wk.wacc[:basisN]
	clear(wk.wacc)

	i0 := int(math.Floor((bb.Min.X-center.X)/h - bxlo))
	i1 := int(math.Floor((bb.Max.X-center.X)/h - bxlo))
	j0 := int(math.Floor((bb.Min.Y-center.Y)/h - bylo))
	j1 := int(math.Floor((bb.Max.Y-center.Y)/h - bylo))
	if i1 < 0 || j1 < 0 || i0 >= np || j0 >= ky.NumPieces() {
		return false
	}
	i0 = max(i0, 0)
	j0 = max(j0, 0)
	i1 = min(i1, np-1)
	j1 = min(j1, ky.NumPieces()-1)

	invH := 1 / h
	if !(tri.Area() > 0) {
		// A zero-area or NaN element clips to nothing in every cell.
		wk.counters.Flops += uint64((i1 - i0 + 1) * (j1 - j0 + 1) * 3 * metrics.FlopsPerClipVertex)
		return false
	}
	inv := tri.AffineInverse()
	ccw, tb := tri.CCW(), tri.Bounds()
	rq := &wk.rq
	minArea := 1e-14 * tri.Area()
	quadFlops := metrics.FlopsPerQuadEval(ev.Opt.P, ev.Opt.P)

	qpts := ev.rule.Points
	qwts := ev.rule.Weights
	nq := uint64(len(qpts))

	integrated := false
	for j := j0; j <= j1; j++ {
		cy0 := h * (bylo + float64(j))
		py := ky.Piece(j)
		for i := i0; i <= i1; i++ {
			cx0 := h * (bxlo + float64(i))
			px := kx.Piece(i)
			poly := wk.clip.ClipBounded(ccw, tb, geom.Box(cx0, cy0, cx0+h, cy0+h))
			wk.counters.Flops += uint64((len(poly) + 3) * metrics.FlopsPerClipVertex)
			if len(poly) < 3 {
				continue
			}
			wk.fan = geom.SplitFanJac(poly, wk.fan[:0], minArea)
			for k := range wk.fan {
				integrated = true
				wk.counters.Regions++
				wk.counters.Flops += metrics.FlopsPerRegion
				rq.mapRegion(&wk.fan[k], &inv, cx0, cy0, invH)
				r0, ru, rv, s0, su, sv := rq.r0, rq.ru, rq.rv, rq.s0, rq.su, rq.sv
				tx0, txu, txv, ty0, tyu, tyv := rq.tx0, rq.txu, rq.txv, rq.ty0, rq.tyu, rq.tyv
				jac := rq.jac
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
					ev.Field.Basis.EvalAll(r, s, wk.basis)
					for m := 0; m < basisN; m++ {
						wk.wacc[m] += scale * wk.basis[m]
					}
				}
				wk.counters.QuadEvals += nq
				wk.counters.Flops += quadFlops * nq
			}
		}
	}
	return integrated
}
