package operator

import (
	"fmt"
	"sync"
	"sync/atomic"

	"unstencil/internal/dg"
	"unstencil/internal/metrics"
)

// ApplyInto post-processes field through the assembled operator into a
// caller-supplied output slice of length Rows, in point order. It is
// Apply without the per-call allocation: the hot server paths pair it
// with GetVec/PutVec so steady-state applies allocate nothing.
func (op *Operator) ApplyInto(f *dg.Field, out []float64) error {
	if f.Basis.N != op.BasisN {
		return fmt.Errorf("operator: field has %d modes per element, operator expects %d",
			f.Basis.N, op.BasisN)
	}
	return op.ApplyVec(f.Coeffs, out, op.Workers)
}

// vecPool recycles output vectors across applies. Buffers are pooled by
// whatever capacity they were allocated with; GetVec reslices when the
// pooled capacity suffices and falls back to a fresh allocation otherwise,
// so a server cycling between operators of different sizes converges on
// buffers of the largest size in steady state.
var vecPool = sync.Pool{New: func() any { return new([]float64) }}

// GetVec returns a length-n float64 slice, reusing pooled memory when
// possible. Contents are unspecified: every ApplyVec/ApplyBlock writes all
// Rows slots, so callers applying into it need not clear it first.
func GetVec(n int) []float64 {
	p := vecPool.Get().(*[]float64)
	if cap(*p) >= n {
		v := (*p)[:n]
		*p = nil
		vecPool.Put(p)
		return v
	}
	*p = nil
	vecPool.Put(p)
	return make([]float64, n)
}

// PutVec returns a slice obtained from GetVec to the pool. The caller must
// not retain any alias into v afterwards.
func PutVec(v []float64) {
	if cap(v) == 0 {
		return
	}
	p := vecPool.Get().(*[]float64)
	*p = v[:0]
	vecPool.Put(p)
}

// fieldBlock is the field-tile width of the SpMM: operator entries are
// multiplied against up to fieldBlock fields per CSR stream, with one
// Neumaier (sum, comp) register pair per field. 8 fields × 2 × 8 bytes =
// 128 B of accumulator state — comfortably register/L1-resident — while
// cutting operator-stream traffic 8× versus per-field SpMV.
const fieldBlock = 8

// packPool recycles the packed coefficient block ApplyBlock builds per
// field tile.
var packPool = sync.Pool{New: func() any { return new([]float64) }}

func getPacked(n int) []float64 {
	p := packPool.Get().(*[]float64)
	if cap(*p) >= n {
		v := (*p)[:n]
		*p = nil
		packPool.Put(p)
		return v
	}
	*p = nil
	packPool.Put(p)
	return make([]float64, n)
}

func putPacked(v []float64) {
	if cap(v) == 0 {
		return
	}
	p := packPool.Get().(*[]float64)
	*p = v[:0]
	packPool.Put(p)
}

// ApplyBlock computes the CSR × dense block product
//
//	out[f][pt] = Σ_col W[pt][col] · coeffs[f][col]   for every field f
//
// cache-blocked over rows and fields. Fields are processed in tiles of
// fieldBlock; within a tile the coefficients are packed row-major
// (packed[col·ld + f] = coeffs[f][col], ld = fb, or tileStride(fb) for
// blocked operators) so the innermost loop over fields reads one
// contiguous block per operator entry, and each CSR entry is streamed from
// memory once per tile instead of once per field.
//
// Per (row, field) the floating-point operation sequence — term order and
// Neumaier compensation — is exactly ApplyVec's, so results are
// bit-identical to F independent ApplyVec calls, at every worker count.
// workers <= 1 runs serially; each storage row is summed by exactly one
// worker and written to its own output slots.
func (op *Operator) ApplyBlock(coeffs [][]float64, out [][]float64, workers int) error {
	return op.applyBlock(coeffs, out, workers, (*Operator).applyRowsBlockBSR)
}

// bsrTileKernel sums rows [lo, hi) of one field tile of a blocked operator:
// applyRowsBlockBSR (the architecture's kernel) or applyRowsBlockBSRGo.
type bsrTileKernel func(op *Operator, packed []float64, fb, ld int, out [][]float64, lo, hi int)

// applyBlock is ApplyBlock with the blocked tile kernel as a parameter, so
// tests and benchmarks can run the portable kernel on any architecture.
func (op *Operator) applyBlock(coeffs [][]float64, out [][]float64, workers int, bsrKernel bsrTileKernel) error {
	nf := len(coeffs)
	if nf == 0 {
		return fmt.Errorf("operator: ApplyBlock needs at least one field")
	}
	if len(out) != nf {
		return fmt.Errorf("operator: ApplyBlock has %d coefficient vectors but %d outputs", nf, len(out))
	}
	for f := range coeffs {
		if len(coeffs[f]) != op.Cols {
			return fmt.Errorf("operator: field %d coefficient vector has length %d, operator expects %d",
				f, len(coeffs[f]), op.Cols)
		}
		if len(out[f]) != op.Rows {
			return fmt.Errorf("operator: field %d output has length %d, operator expects %d",
				f, len(out[f]), op.Rows)
		}
	}
	packed := getPacked(op.Cols * op.packStride(min(nf, fieldBlock)))
	defer putPacked(packed)

	nBlocks := (op.Rows + applyBlock - 1) / applyBlock
	if workers > nBlocks {
		workers = nBlocks
	}
	for f0 := 0; f0 < nf; f0 += fieldBlock {
		fb := min(fieldBlock, nf-f0)
		ld := op.packStride(fb)
		// Capacity capped at the tile, so the kernels' bounds checks are
		// against the coefficients packed for this tile, never stale pool
		// data beyond them.
		tile := packed[: op.Cols*ld : op.Cols*ld]
		for f := 0; f < fb; f++ {
			cf := coeffs[f0+f]
			for c := 0; c < op.Cols; c++ {
				tile[c*ld+f] = cf[c]
			}
		}
		for f := fb; f < ld; f++ {
			for c := 0; c < op.Cols; c++ {
				tile[c*ld+f] = 0
			}
		}
		outs := out[f0 : f0+fb]
		if workers <= 1 {
			op.applyRowsBlockAny(bsrKernel, tile, fb, ld, outs, 0, op.Rows)
			continue
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					b := int(next.Add(1)) - 1
					if b >= nBlocks {
						return
					}
					lo := b * applyBlock
					hi := min(lo+applyBlock, op.Rows)
					op.applyRowsBlockAny(bsrKernel, tile, fb, ld, outs, lo, hi)
				}
			}()
		}
		wg.Wait()
	}
	return nil
}

// ApplyBlockCounters models the cost of one ApplyBlock over nf fields:
// flops scale with the field count, but the CSR streams (values, columns,
// row pointers) are read once per field tile of width fieldBlock rather
// than once per field — the data-reuse the SpMM buys over nf independent
// SpMVs. Coefficient gathers still happen once per (entry, field).
func (op *Operator) ApplyBlockCounters(nf int) metrics.Counters {
	nnz := uint64(op.NNZ())
	idxBytes := nnz * 4
	if op.BSR != nil {
		idxBytes = nnz * 4 / uint64(op.BasisN)
	}
	tiles := uint64((nf + fieldBlock - 1) / fieldBlock)
	return metrics.Counters{
		Flops:     2 * nnz * uint64(nf),
		BytesRead: tiles*(nnz*8+idxBytes+uint64(len(op.RowPtr))*8) + nnz*8*uint64(nf),
	}
}

// packStride is the packed-tile row stride for fb fields: the scalar CSR
// kernel reads stride fb, the blocked kernel its architecture's stride.
func (op *Operator) packStride(fb int) int {
	if op.BSR != nil {
		return tileStride(fb)
	}
	return fb
}

// applyRowsBlockAny dispatches a row range to the tile kernel matching the
// operator's layout. A plain branch (not a method value) keeps the apply
// paths allocation-free.
func (op *Operator) applyRowsBlockAny(bsrKernel bsrTileKernel, packed []float64, fb, ld int, out [][]float64, lo, hi int) {
	if op.BSR != nil {
		bsrKernel(op, packed, fb, ld, out, lo, hi)
	} else {
		op.applyRowsBlock(packed, fb, out, lo, hi)
	}
}

// applyRowsBlock computes storage rows [lo, hi) for one field tile. packed
// holds the tile's coefficients at packed[col·fb + f]; out holds the fb
// per-field output vectors. The per-field arithmetic mirrors applyRows
// exactly: independent Neumaier (sum, comp) state per field, terms in CSR
// entry order.
func (op *Operator) applyRowsBlock(packed []float64, fb int, out [][]float64, lo, hi int) {
	var sum, comp [fieldBlock]float64
	for r := lo; r < hi; r++ {
		vals, cols, base := op.rowSpan(r)
		for f := 0; f < fb; f++ {
			sum[f], comp[f] = 0, 0
		}
		for i := range vals {
			v := vals[i]
			off := (int(base) + int(cols[i])) * fb
			blk := packed[off : off+fb]
			for f := 0; f < fb; f++ {
				term := v * blk[f]
				t := sum[f] + term
				if abs(sum[f]) >= abs(term) {
					comp[f] += (sum[f] - t) + term
				} else {
					comp[f] += (term - t) + sum[f]
				}
				sum[f] = t
			}
		}
		pt := r
		if op.Perm != nil {
			pt = int(op.Perm[r])
		}
		for f := 0; f < fb; f++ {
			out[f][pt] = sum[f] + comp[f]
		}
	}
}
