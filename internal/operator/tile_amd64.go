package operator

// tileRow sums one blocked storage row for a tile of 2·pairs lanes in
// packed SSE2 (tile_amd64.s): acc[f] receives the compensated sum of
//
//	vals[b·basisN+m] · packed[((base+ids[b])·basisN+m)·2·pairs + f]
//
// over blocks b and modes m, bit-identical to applyRowsBlockBSRGo in every
// lane whose result is finite (see applyRowsBlockBSR). Each
// element base+ids[b] is checked against [0, nelem) before the kernel
// reads through it; on failure tileRow stops and returns b, otherwise −1.
// The caller guarantees len(vals) ≥ len(ids)·basisN, basisN ≥ 1,
// 1 ≤ pairs ≤ fieldBlock/2 and nelem·basisN·2·pairs ≤ len(packed).
//
//go:noescape
func tileRow(vals []float64, ids []int32, base, basisN int, packed []float64, nelem, pairs int, acc *[fieldBlock]float64) int

// tileStride is the packed-tile row stride for fb fields: the SSE2 kernel
// works on lane pairs, so an odd tile carries one zeroed pad lane.
func tileStride(fb int) int { return fb + fb&1 }

// applyRowsBlockBSR is the blocked SpMM tile kernel: rows [lo, hi) of a
// tile packed with stride ld = tileStride(fb), one tileRow call per row.
//
// A finite lane result proves no TwoSum step of that lane overflowed, and
// then the lane is bit-identical to the Go kernel (DESIGN.md §16). TwoSum
// can overflow spuriously near ±MaxFloat64 where the Go kernel's Neumaier
// form does not, and a NaN or infinite operand poisons both; every such
// case leaves a non-finite lane, so a row with one is recomputed by the
// Go kernel.
func (op *Operator) applyRowsBlockBSR(packed []float64, fb, ld int, out [][]float64, lo, hi int) {
	var acc [fieldBlock]float64
	bn := op.BasisN
	nelem := len(packed) / (bn * ld)
	for r := lo; r < hi; r++ {
		vals, ids, base := op.rowBlocks(r)
		_ = vals[:len(ids)*bn]
		if b := tileRow(vals, ids, int(base), bn, packed, nelem, ld/2, &acc); b >= 0 {
			// Index the offending block's last slot in Go so a corrupted
			// index raises the runtime's bounds panic.
			_ = packed[(int(base)+int(ids[b])+1)*bn*ld-1]
			panic("operator: tile kernel rejected an in-range block")
		}
		finite := true
		for f := 0; f < fb; f++ {
			finite = finite && acc[f]-acc[f] == 0
		}
		if !finite {
			op.applyRowsBlockBSRGo(packed, fb, ld, out, r, r+1)
			continue
		}
		pt := r
		if op.Perm != nil {
			pt = int(op.Perm[r])
		}
		for f := 0; f < fb; f++ {
			out[f][pt] = acc[f]
		}
	}
}
