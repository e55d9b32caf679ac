// Block compressed sparse row (BSR) layout.
//
// Every assembled row is a sequence of full basisN-wide element blocks —
// the columns of one contributing element's modes are contiguous and start
// at a multiple of basisN (see core's rowAccum, which emits exactly
// e·basisN+m) — so storing one 32-bit column index per *entry* repeats the
// same element id basisN times. The BSR layout stores one element id per
// block instead: at P2 (basisN = 10) the index stream shrinks 10×, and the
// inner mode loop becomes unit-stride over both the operator values and
// the gathered coefficient block, with bounds checks hoisted per block.
//
// The conversion is lossless and purely structural: Val keeps the exact
// CSR entry order (block-major, modes ascending within a block), RowPtr is
// shared verbatim (entry units; block spans are RowPtr[r]/basisN), and the
// blocked kernels reconstruct every coefficient index as
//
//	(baseElem + id)·basisN + m  ==  base + col
//
// — the identical address in the identical sequence, fed through the
// identical Neumaier recurrence. BSR applies are therefore bit-identical
// to the CSR kernels at every worker count, which the property tests pin.
//
// ToBSR mirrors Templatize's contract: operators whose rows do not decompose
// into aligned blocks (hand-built, basisN == 1, degenerate) are returned
// unchanged — the transparent CSR fallback — and the conversion must save
// net bytes (it always does for basisN > 1 with any stored entries).
package operator

import (
	"fmt"
	"math"
)

// BSRIndex is the blocked column index of a BSR-form operator. An operator
// with BSR != nil stores no scalar column indices: ColInd is nil and, when
// templated, Tpl.TplDelta is nil — BlockID and TplBlockDelta carry the
// same information at one entry per basisN-wide block.
type BSRIndex struct {
	// BlockID holds one element id per stored block: block k of storage
	// row r (covering Val[RowPtr[r]+k·basisN : RowPtr[r]+(k+1)·basisN])
	// multiplies the coefficients of element BlockID[RowPtr[r]/basisN + k].
	// Ascending within a row, exactly like the CSR columns it replaces.
	BlockID []int32
	// TplBlockDelta is the blocked twin of TemplateSet.TplDelta: one
	// element-id delta per template block, relative to the templated row's
	// base element (RowBase[r]/basisN). Nil for untemplated operators.
	TplBlockDelta []int32
}

// Bytes returns the resident size of the blocked index arrays.
func (bi *BSRIndex) Bytes() int64 {
	if bi == nil {
		return 0
	}
	return int64(len(bi.BlockID))*4 + int64(len(bi.TplBlockDelta))*4
}

// rowBlocks is rowSpan's blocked twin: storage row r's terms are
//
//	vals[b·basisN+m] · coeffs[(baseElem+ids[b])·basisN + m]
//
// Plain rows return their Val span with the row's BlockID slice and base
// element 0; templated rows return the shared template values with the
// blocked deltas and the row's base element. Both blocked kernels consume
// rows through this one accessor, exactly as the CSR kernels do through
// rowSpan, so templated and plain rows follow the identical arithmetic.
func (op *Operator) rowBlocks(r int) (vals []float64, ids []int32, baseElem int32) {
	bn := int64(op.BasisN)
	if op.Tpl != nil {
		if t := op.Tpl.RowTpl[r]; t >= 0 {
			lo, hi := op.Tpl.TplPtr[t], op.Tpl.TplPtr[t+1]
			return op.Tpl.TplVal[lo:hi], op.BSR.TplBlockDelta[lo/bn : hi/bn], op.Tpl.RowBase[r] / int32(bn)
		}
	}
	lo, hi := op.RowPtr[r], op.RowPtr[r+1]
	return op.Val[lo:hi], op.BSR.BlockID[lo/bn : hi/bn], 0
}

// applyRowsBSR is applyRows on the blocked layout: same Neumaier recurrence
// over the same term sequence, with the column reconstructed per block and
// the mode loop unit-stride over an aliased coefficient block.
//
// The compensation update differs from the scalar kernel only in form, not
// value: both error expressions are computed and the predicate selects one
// (branch-prediction friendly; math.Abs is a bit-mask intrinsic where the
// local abs branches). math.Abs(−0.0) is +0.0 where abs keeps −0.0, but
// −0.0 and +0.0 compare equal, so the predicate — and therefore the term
// sequence and every output bit — is identical to the CSR kernel's.
func (op *Operator) applyRowsBSR(coeffs, out []float64, lo, hi int) {
	basisN := op.BasisN
	for r := lo; r < hi; r++ {
		vals, ids, base := op.rowBlocks(r)
		sum, comp := 0.0, 0.0
		for b := range ids {
			cb := coeffs[(int(base)+int(ids[b]))*basisN:][:basisN]
			vb := vals[b*basisN:][:basisN]
			for m := 0; m < basisN; m++ {
				term := vb[m] * cb[m]
				t := sum + term
				e := (term - t) + sum
				if math.Abs(sum) >= math.Abs(term) {
					e = (sum - t) + term
				}
				comp += e
				sum = t
			}
		}
		if op.Perm != nil {
			out[op.Perm[r]] = sum + comp
		} else {
			out[r] = sum + comp
		}
	}
}

// applyRowsBlockBSRGo is the portable blocked tile kernel, applyRowsBlock
// on the blocked layout for a tile packed with row stride ld ≥ fb, with
// the inner loops swapped field-major: within one element block, each
// field walks the whole basisN-long mode run with its Neumaier pair held
// in registers, instead of spilling all fieldBlock accumulator pairs to
// the stack on every entry the way the scalar kernel must (scalar CSR has
// no mode runs — consecutive entries land on unrelated columns). Fields
// are independent accumulators and each field still consumes its terms in
// exactly the CSR entry order (modes ascending within a block, blocks
// ascending within the row), so the swap cannot perturb a bit of any
// field's sum — the identity the property tests pin. The block's packed
// tile (basisN·ld floats) is re-read once per field, but it was just
// written or read and stays cache-resident. It is the kernel on
// architectures without an assembly one (tile_other.go) and the reference
// the amd64 kernel is tested and benchmarked against.
func (op *Operator) applyRowsBlockBSRGo(packed []float64, fb, ld int, out [][]float64, lo, hi int) {
	var sum, comp [fieldBlock]float64
	basisN := op.BasisN
	for r := lo; r < hi; r++ {
		vals, ids, base := op.rowBlocks(r)
		for f := 0; f < fb; f++ {
			sum[f], comp[f] = 0, 0
		}
		for b := range ids {
			vb := vals[b*basisN:][:basisN]
			blk := packed[(int(base)+int(ids[b]))*basisN*ld:][:basisN*ld]
			for f := 0; f < fb; f++ {
				s, c := sum[f], comp[f]
				o := f
				for m := 0; m < basisN; m++ {
					term := vb[m] * blk[o]
					o += ld
					t := s + term
					// Same select-form compensation as applyRowsBSR: both
					// error expressions, predicate picks one — value-identical
					// to the scalar kernel's branch.
					e := (term - t) + s
					if math.Abs(s) >= math.Abs(term) {
						e = (s - t) + term
					}
					c += e
					s = t
				}
				sum[f], comp[f] = s, c
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

// blockIDs converts one row's (or template's) scalar column sequence into
// element ids, reporting whether the sequence decomposes into full aligned
// blocks: length a multiple of basisN, each group starting at a column
// divisible by basisN and running c0, c0+1, …, c0+basisN−1.
func blockIDs(cols []int32, basisN int, ids []int32) ([]int32, bool) {
	if basisN <= 0 || len(cols)%basisN != 0 {
		return ids, false
	}
	for k := 0; k < len(cols); k += basisN {
		c0 := cols[k]
		if c0 < 0 || c0%int32(basisN) != 0 {
			return ids, false
		}
		for m := 1; m < basisN; m++ {
			if cols[k+m] != c0+int32(m) {
				return ids, false
			}
		}
		ids = append(ids, c0/int32(basisN))
	}
	return ids, true
}

// ToBSR returns the blocked-layout equivalent of a CSR operator, sharing
// Val, RowPtr, Perm and the template value arrays verbatim (an mmap-backed
// operator keeps its Backing; only the small blocked index is heap-built).
// If the operator is already blocked, has basisN 1 (no index bytes to
// save), or any row or template does not decompose into aligned element
// blocks, the receiver is returned unchanged — the transparent fallback
// mirroring Templatize's contract. Applies through the returned operator
// are bit-identical to the receiver's.
func (op *Operator) ToBSR() *Operator {
	if op.BSR != nil || op.BasisN <= 1 {
		return op
	}
	if len(op.Val) == 0 && (op.Tpl == nil || len(op.Tpl.TplVal) == 0) {
		return op // nothing stored: no bytes to save
	}
	// Every row boundary must fall on a block boundary, or the shared
	// RowPtr could not double as a block-span table.
	for _, p := range op.RowPtr {
		if p%int64(op.BasisN) != 0 {
			return op
		}
	}
	blockID := make([]int32, 0, len(op.ColInd)/op.BasisN)
	for r := 0; r < op.Rows; r++ {
		lo, hi := op.RowPtr[r], op.RowPtr[r+1]
		ids, ok := blockIDs(op.ColInd[lo:hi], op.BasisN, blockID)
		if !ok {
			return op
		}
		blockID = ids
	}
	bi := &BSRIndex{BlockID: blockID}
	out := *op
	out.ColInd = nil
	out.BSR = bi
	if ts := op.Tpl; ts != nil {
		nt := ts.NumTemplates()
		for _, p := range ts.TplPtr {
			if p%int64(op.BasisN) != 0 {
				return op
			}
		}
		tbd := make([]int32, 0, len(ts.TplDelta)/op.BasisN)
		for t := 0; t < nt; t++ {
			lo, hi := ts.TplPtr[t], ts.TplPtr[t+1]
			ids, ok := blockIDs(ts.TplDelta[lo:hi], op.BasisN, tbd)
			if !ok {
				return op
			}
			tbd = ids
		}
		for r, t := range ts.RowTpl {
			if t >= 0 && ts.RowBase[r]%int32(op.BasisN) != 0 {
				return op
			}
		}
		bi.TplBlockDelta = tbd
		tpl := *ts
		tpl.TplDelta = nil
		out.Tpl = &tpl
	}
	return &out
}

// ToCSR materialises the scalar column indices of a blocked operator,
// returning the plain CSR (or templated-CSR) equivalent. ToCSR(ToBSR(op))
// reproduces op's arrays bitwise — the round-trip property the tests pin.
// A CSR operator is returned unchanged.
func (op *Operator) ToCSR() *Operator {
	if op.BSR == nil {
		return op
	}
	bn := int32(op.BasisN)
	colInd := make([]int32, len(op.Val))
	for k, e := range op.BSR.BlockID {
		c0 := e * bn
		for m := int32(0); m < bn; m++ {
			colInd[k*op.BasisN+int(m)] = c0 + m
		}
	}
	out := *op
	out.ColInd = colInd
	out.BSR = nil
	if ts := op.Tpl; ts != nil {
		tplDelta := make([]int32, len(ts.TplVal))
		for k, d := range op.BSR.TplBlockDelta {
			d0 := d * bn
			for m := int32(0); m < bn; m++ {
				tplDelta[k*op.BasisN+int(m)] = d0 + m
			}
		}
		tpl := *ts
		tpl.TplDelta = tplDelta
		out.Tpl = &tpl
	}
	return &out
}

// IndexBytesSaved returns how many resident index bytes the blocked layout
// is saving against the scalar CSR encoding of the same operator: 4 B per
// stored entry collapses to 4 B per block, for both the row index and the
// template deltas. 0 for CSR operators.
func (op *Operator) IndexBytesSaved() int64 {
	if op.BSR == nil {
		return 0
	}
	saved := 4 * (int64(len(op.Val)) - int64(len(op.BSR.BlockID)))
	if op.Tpl != nil {
		saved += 4 * (int64(len(op.Tpl.TplVal)) - int64(len(op.BSR.TplBlockDelta)))
	}
	return saved
}

// ValidateBSR checks the blocked index's structural invariants against the
// operator shape — the artifact decode path runs this (before any apply)
// so a corrupted or hostile v3 container cannot drive rowBlocks out of
// bounds. Template invariants are checked by ValidateTemplates, which is
// BSR-aware.
func (op *Operator) ValidateBSR() error {
	bi := op.BSR
	if bi == nil {
		return nil
	}
	if op.BasisN < 1 {
		return fmt.Errorf("operator: blocked layout with basisN %d", op.BasisN)
	}
	if op.Cols%op.BasisN != 0 {
		return fmt.Errorf("operator: %d columns not a multiple of basisN %d", op.Cols, op.BasisN)
	}
	if op.ColInd != nil {
		return fmt.Errorf("operator: blocked operator still carries %d scalar column indices", len(op.ColInd))
	}
	for r, p := range op.RowPtr {
		if p%int64(op.BasisN) != 0 {
			return fmt.Errorf("operator: rowptr[%d]=%d not a multiple of basisN %d", r, p, op.BasisN)
		}
	}
	if int64(len(bi.BlockID))*int64(op.BasisN) != int64(len(op.Val)) {
		return fmt.Errorf("operator: %d blocks × basisN %d disagree with %d values",
			len(bi.BlockID), op.BasisN, len(op.Val))
	}
	nElems := int32(op.Cols / op.BasisN)
	for k, e := range bi.BlockID {
		if e < 0 || e >= nElems {
			return fmt.Errorf("operator: block %d element id %d outside [0, %d)", k, e, nElems)
		}
	}
	return nil
}
