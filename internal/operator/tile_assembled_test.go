package operator_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"unstencil/internal/artifact"
	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/operator"
)

// assembledForms assembles the order-p periodic operator on an n×n
// structured mesh the way the server does (congruence-first, templated, blocked) and
// returns it with its plain blocked twin and its mmap-loaded store round
// trip, plus the projected coefficients of one smooth field.
func assembledForms(tb testing.TB, n, p int) (map[string]*operator.Operator, []float64) {
	tb.Helper()
	m := mesh.Structured(n)
	f := dg.Project(m, p, func(p geom.Point) float64 {
		return math.Sin(2*math.Pi*p.X) * math.Cos(2*math.Pi*p.Y)
	}, 4)
	ev, err := core.NewEvaluator(f, core.Options{P: p, Boundary: core.Periodic})
	if err != nil {
		tb.Fatal(err)
	}
	tpl, err := ev.AssembleOperator(core.AssembleOpts{Congruence: core.CongruenceTemplate})
	if err != nil {
		tb.Fatal(err)
	}
	tpl = tpl.Templatize().ToBSR()
	plain, err := ev.AssembleOperator(core.AssembleOpts{})
	if err != nil {
		tb.Fatal(err)
	}
	if tpl.BSR == nil || tpl.Tpl == nil || plain.BSR == nil {
		tb.Fatalf("assembled operator is not in the templated blocked layout: tpl.BSR=%v tpl.Tpl=%v plain.BSR=%v", tpl.BSR != nil, tpl.Tpl != nil, plain.BSR != nil)
	}
	store, err := artifact.NewStore(tb.TempDir(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	const key = "op:tile-kernel"
	if err := store.SaveOperator(key, tpl); err != nil {
		tb.Fatal(err)
	}
	mapped, _, err := store.LoadOperator(key, true)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*operator.Operator{"plain": plain, "templated": tpl, "mmap": mapped}, f.Coeffs
}

// scaledFields derives nf distinct fields from one coefficient vector:
// field k is base·(k+1) with every third coefficient negated, so the
// fields share the operator but not their sums.
func scaledFields(base []float64, nf int) [][]float64 {
	out := make([][]float64, nf)
	for k := range out {
		out[k] = make([]float64, len(base))
		for c, v := range base {
			v *= float64(k + 1)
			if (c+k)%3 == 0 {
				v = -v
			}
			out[k][c] = v
		}
	}
	return out
}

// TestTileKernelAssembledBitIdentical runs the blocked SpMM on the real
// assembled operator — plain, templated and mmap-loaded — through the
// architecture's tile kernel and the portable Go kernel, with smooth
// fields and with adversarial ones (signed zeros, subnormals, overflowing
// magnitudes), and requires both bit-identical to per-field applies of the
// scalar-CSR reference.
func TestTileKernelAssembledBitIdentical(t *testing.T) {
	forms, base := assembledForms(t, 8, 1)
	rng := rand.New(rand.NewSource(8))
	for name, op := range forms {
		for _, nf := range []int{2, 3, 8, 9, 16} {
			operator.CheckTileAgainstCSR(t, name+"/smooth", op, scaledFields(base, nf))
			operator.CheckTileAgainstCSR(t, name+"/adversarial", op, operator.AdversarialFields(rng, op.Cols, nf))
		}
	}
}

var (
	benchFormsOnce sync.Once
	benchForm      *operator.Operator
	benchBase      []float64
)

// BenchmarkTileKernel compares the blocked SpMM tile kernels on the real
// assembled operator of the service benchmark's warm-apply workload: the
// 16×16 P2 periodic templated operator, mmap-loaded from the store (4608
// rows, 6.56 M logical nonzeros), serial, at field counts around the
// 8-wide tile and its odd, padded partial tiles.
func BenchmarkTileKernel(b *testing.B) {
	benchFormsOnce.Do(func() {
		forms, base := assembledForms(b, 16, 2)
		benchForm, benchBase = forms["mmap"], base
	})
	op := benchForm
	kernels := []struct {
		name  string
		apply func(*operator.Operator, [][]float64, [][]float64, int) error
	}{
		{"native", (*operator.Operator).ApplyBlock},
		{"go", (*operator.Operator).ApplyBlockGo},
	}
	for _, nf := range []int{1, 2, 3, 8, 9, 16} {
		coeffs := scaledFields(benchBase, nf)
		out := make([][]float64, nf)
		for k := range out {
			out[k] = make([]float64, op.Rows)
		}
		for _, k := range kernels {
			b.Run(fmt.Sprintf("nf=%d/%s", nf, k.name), func(b *testing.B) {
				b.SetBytes(int64(op.NNZ()) * 8)
				for i := 0; i < b.N; i++ {
					if err := k.apply(op, coeffs, out, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
