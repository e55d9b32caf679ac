//go:build !amd64

package operator

// tileStride is the packed-tile row stride for fb fields: the portable
// kernel needs no padding.
func tileStride(fb int) int { return fb }

// applyRowsBlockBSR is the blocked SpMM tile kernel; architectures without
// an assembly kernel run the portable Go one.
func (op *Operator) applyRowsBlockBSR(packed []float64, fb, ld int, out [][]float64, lo, hi int) {
	op.applyRowsBlockBSRGo(packed, fb, ld, out, lo, hi)
}
