package operator

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"unstencil/internal/metrics"
)

// sameResult is the bitwise gate of the tile-kernel tests: equal bits, or
// NaN in both slots (NaN payloads are not part of the contract: once a sum
// overflows both compensation forms propagate some NaN).
func sameResult(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkTileAgainstCSR applies coeffs through op (a blocked operator) with
// the architecture's tile kernel and the portable Go kernel, at several
// worker counts, and compares every output against per-field applies of
// the untouched scalar-CSR reference op.ToCSR().
func checkTileAgainstCSR(t *testing.T, name string, op *Operator, coeffs [][]float64) {
	t.Helper()
	if op.BSR == nil {
		t.Fatalf("%s: fixture is not blocked", name)
	}
	ref := op.ToCSR()
	nf := len(coeffs)
	want := make([][]float64, nf)
	for f := range want {
		want[f] = make([]float64, op.Rows)
		if err := ref.ApplyVec(coeffs[f], want[f], 1); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]float64, nf)
	for f := range got {
		got[f] = make([]float64, op.Rows)
	}
	kernels := map[string]func([][]float64, [][]float64, int) error{
		"native": op.ApplyBlock,
		"go":     op.ApplyBlockGo,
	}
	for kname, apply := range kernels {
		for _, workers := range []int{1, 3} {
			for f := range got {
				for i := range got[f] {
					got[f][i] = math.NaN() // every slot must be written
				}
			}
			if err := apply(coeffs, got, workers); err != nil {
				t.Fatal(err)
			}
			for f := range want {
				for i := range want[f] {
					if !sameResult(got[f][i], want[f][i]) {
						t.Fatalf("%s %s kernel nf=%d workers=%d: field %d point %d: %v (%#x) vs CSR %v (%#x)",
							name, kname, nf, workers, f, i, got[f][i], math.Float64bits(got[f][i]),
							want[f][i], math.Float64bits(want[f][i]))
					}
				}
			}
		}
	}
}

// specials are the adversarial operand values: signed zeros, subnormals,
// the normal/subnormal boundary, cancellation-scale magnitudes and values
// whose products overflow.
var specials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	3 * math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022, 0x1.fffffffffffffp-1023,
	1, -1, 1e16, -1e16, 0x1p52, 0x1p53 + 2,
	1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
}

// adversarialOperator builds a basisN-3 blocked operator whose values are
// drawn mostly from specials, with empty rows, single-block rows and long
// rows, optionally row-permuted.
func adversarialOperator(rng *rand.Rand, rows, elems int, permuted bool) *Operator {
	const basisN = 3
	b := NewBuilder(rows, elems*basisN, basisN)
	for r := 0; r < rows; r++ {
		if r%7 == 3 {
			continue // empty row
		}
		var ids []int32
		for e := 0; e < elems; e++ {
			if r%5 == 0 || rng.Intn(3) == 0 {
				ids = append(ids, int32(e))
			}
		}
		if len(ids) == 0 {
			ids = append(ids, int32(rng.Intn(elems)))
		}
		vals := make([]float64, len(ids)*basisN)
		for i := range vals {
			vals[i] = adversarialValue(rng)
		}
		b.SetRowBlocks(r, ids, vals)
	}
	var perm []int32
	if permuted {
		perm = randPerm32(rng, rows)
	}
	return b.FinishLayout(LayoutBSR, perm, 1, "per-point", time.Millisecond, metrics.Counters{})
}

func adversarialValue(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return math.Ldexp(rng.NormFloat64(), rng.Intn(40)-20)
	}
	return specials[rng.Intn(len(specials))]
}

func adversarialFields(rng *rand.Rand, cols, nf int) [][]float64 {
	fs := make([][]float64, nf)
	for f := range fs {
		fs[f] = make([]float64, cols)
		for c := range fs[f] {
			fs[f][c] = adversarialValue(rng)
		}
	}
	return fs
}

// TestTileKernelAdversarialBitIdentical drives the blocked SpMM tile
// kernels through signed zeros, subnormals, catastrophic cancellation and
// overflow on plain, permuted and templated operators, at every partial
// tile width, against the scalar-CSR reference.
func TestTileKernelAdversarialBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, permuted := range []bool{false, true} {
		op := adversarialOperator(rng, 90, 24, permuted)
		for _, nf := range []int{1, 2, 3, 5, 7, 8, 9, 16} {
			checkTileAgainstCSR(t, "adversarial", op, adversarialFields(rng, op.Cols, nf))
		}
	}
	tpl := buildCongruent(300, 80, 3, 5, true).Templatize().ToBSR()
	if tpl.Tpl == nil || tpl.BSR == nil {
		t.Fatal("congruent fixture did not templatize into the blocked layout")
	}
	for _, nf := range []int{2, 8, 9} {
		checkTileAgainstCSR(t, "templated", tpl, adversarialFields(rng, tpl.Cols, nf))
	}

	// Overflow must surface as NaN in the same slots: the sum of two
	// MaxFloat64 products overflows in every field.
	b := NewBuilder(2, 6, 3)
	b.SetRowBlocks(0, []int32{0, 1}, []float64{math.MaxFloat64, 1, 1, math.MaxFloat64, 1, 1})
	b.SetRowBlocks(1, []int32{1}, []float64{1, 2, 3})
	ov := b.FinishLayout(LayoutBSR, nil, 1, "per-point", 0, metrics.Counters{})
	coeffs := make([][]float64, 8)
	for f := range coeffs {
		coeffs[f] = []float64{1, 0, 0, float64(f + 1), 0, 0}
	}
	checkTileAgainstCSR(t, "overflow", ov, coeffs)
	out := make([][]float64, 8)
	for f := range out {
		out[f] = make([]float64, 2)
	}
	if err := ov.ApplyBlock(coeffs, out, 1); err != nil {
		t.Fatal(err)
	}
	for f := range out {
		if !math.IsNaN(out[f][0]) && !math.IsInf(out[f][0], 0) {
			t.Fatalf("field %d: overflowing row gave %v", f, out[f][0])
		}
	}
}

// TestTileKernelCompensated routes TestApplyRowsCompensated's cancellation,
// (1e16 + 1) − 1e16 == 1 exactly, through a blocked 8-field apply.
func TestTileKernelCompensated(t *testing.T) {
	b := NewBuilder(1, 3, 3)
	b.SetRow(0, []int32{0, 1, 2}, []float64{1e16, 1, -1e16})
	op := b.Finish(nil, 1, "per-point", 0, metrics.Counters{}).ToBSR()
	if op.BSR == nil {
		t.Fatal("single-block row did not convert")
	}
	coeffs := make([][]float64, 8)
	out := make([][]float64, 8)
	for f := range coeffs {
		s := float64(int(1) << f)
		coeffs[f] = []float64{s, s, s}
		out[f] = make([]float64, 1)
	}
	if err := op.ApplyBlock(coeffs, out, 1); err != nil {
		t.Fatal(err)
	}
	for f := range out {
		if want := float64(int(1) << f); out[f][0] != want {
			t.Fatalf("field %d: compensated sum = %v, want %v", f, out[f][0], want)
		}
	}
	checkTileAgainstCSR(t, "cancellation", op, coeffs)
}

// mustPanicBounds runs fn and requires a runtime bounds panic.
func mustPanicBounds(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: corrupted index did not panic", name)
		}
		if _, ok := r.(runtime.Error); !ok {
			t.Fatalf("%s: panic %v is not a runtime bounds error", name, r)
		}
	}()
	fn()
}

// TestTileKernelCorruptIndexPanics pins memory safety: a block id or
// template base that addresses an element outside the coefficient vector
// panics with the runtime's bounds error, in both kernels, instead of
// reading out of bounds.
func TestTileKernelCorruptIndexPanics(t *testing.T) {
	apply := func(op *Operator, kernel bsrTileKernel, nf int) func() {
		return func() {
			coeffs := randFields(op.Cols, nf, 1)
			out := make([][]float64, nf)
			for f := range out {
				out[f] = make([]float64, op.Rows)
			}
			_ = op.applyBlock(coeffs, out, 1, kernel)
		}
	}
	kernels := map[string]bsrTileKernel{
		"native": (*Operator).applyRowsBlockBSR,
		"go":     (*Operator).applyRowsBlockBSRGo,
	}
	for kname, kernel := range kernels {
		for _, nf := range []int{3, 8} {
			for _, bad := range []int32{-1, 150, math.MaxInt32} {
				op := buildRandomPerm(200, 150, 3, 21, true).ToBSR()
				op.BSR.BlockID[len(op.BSR.BlockID)/2] = bad
				mustPanicBounds(t, kname+"/block id", apply(op, kernel, nf))
			}
			op := buildCongruent(300, 80, 3, 5, false).Templatize().ToBSR()
			for r, tp := range op.Tpl.RowTpl {
				if tp >= 0 {
					op.Tpl.RowBase[r] = int32(op.Cols) // one past the last element
					break
				}
			}
			mustPanicBounds(t, kname+"/template base", apply(op, kernel, nf))
		}
	}
}

// FuzzApplyBlockBSR compares the blocked SpMM against the scalar-CSR
// reference on operators and fields decoded from the fuzz input: shape
// (basisN, field count, rows, elements, permutation) from the first word,
// then row sparsity masks and operand values — either a special from
// specials or raw float64 bits, so NaN, Inf and subnormal operands occur.
func FuzzApplyBlockBSR(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(0x00071f3a), []byte{0xff, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
	f.Add(uint32(0x0003884b), []byte{0x08, 0x09, 0x0a, 0x0b, 0x10, 0x11, 0x00, 0x01})
	seed := make([]byte, 256)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(uint32(0x000fffff), seed)
	f.Fuzz(func(t *testing.T, shape uint32, data []byte) {
		basisN := 2 + int(shape%5)
		nf := 1 + int(shape>>3&15)
		rows := 1 + int(shape>>7&15)
		elems := 1 + int(shape>>11&7)
		permuted := shape>>14&1 == 1
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		value := func() float64 {
			b := next()
			if b < 0x80 || len(data) < 8 {
				return specials[int(b)%len(specials)]
			}
			var w [8]byte
			for i := range w {
				w[i] = next()
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
		}
		bld := NewBuilder(rows, elems*basisN, basisN)
		for r := 0; r < rows; r++ {
			mask := next()
			var ids []int32
			for e := 0; e < elems; e++ {
				if mask>>e&1 == 1 {
					ids = append(ids, int32(e))
				}
			}
			vals := make([]float64, len(ids)*basisN)
			for i := range vals {
				vals[i] = value()
			}
			bld.SetRowBlocks(r, ids, vals)
		}
		var perm []int32
		if permuted {
			perm = randPerm32(rand.New(rand.NewSource(int64(shape))), rows)
		}
		op := bld.FinishLayout(LayoutBSR, perm, 1, "per-point", 0, metrics.Counters{})
		if op.BSR == nil {
			return // nothing stored: no blocked index to test
		}
		coeffs := make([][]float64, nf)
		for f := range coeffs {
			coeffs[f] = make([]float64, op.Cols)
			for c := range coeffs[f] {
				coeffs[f][c] = value()
			}
		}
		checkTileAgainstCSR(t, "fuzz", op, coeffs)
	})
}
