package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/operator"
)

// expectBitwiseEqual fails unless two operators are bitwise identical as
// expanded CSR: same permutation, same row spans, same column indices,
// and value-for-value identical float bit patterns (no tolerance).
func expectBitwiseEqual(t *testing.T, label string, got, want *operator.Operator) {
	t.Helper()
	g, w := got.Expand(), want.Expand()
	if g.Rows != w.Rows || g.Cols != w.Cols || g.BasisN != w.BasisN {
		t.Fatalf("%s: shape (%d,%d,%d) != (%d,%d,%d)", label, g.Rows, g.Cols, g.BasisN, w.Rows, w.Cols, w.BasisN)
	}
	if len(g.Perm) != len(w.Perm) {
		t.Fatalf("%s: perm len %d != %d", label, len(g.Perm), len(w.Perm))
	}
	for i := range g.Perm {
		if g.Perm[i] != w.Perm[i] {
			t.Fatalf("%s: perm[%d] = %d != %d", label, i, g.Perm[i], w.Perm[i])
		}
	}
	for r := 0; r < g.Rows; r++ {
		if g.RowPtr[r] != w.RowPtr[r] || g.RowPtr[r+1] != w.RowPtr[r+1] {
			t.Fatalf("%s: row %d span [%d,%d) != [%d,%d)", label, r, g.RowPtr[r], g.RowPtr[r+1], w.RowPtr[r], w.RowPtr[r+1])
		}
		for k := g.RowPtr[r]; k < g.RowPtr[r+1]; k++ {
			if g.ColInd[k] != w.ColInd[k] {
				t.Fatalf("%s: row %d entry %d col %d != %d", label, r, k-g.RowPtr[r], g.ColInd[k], w.ColInd[k])
			}
			if math.Float64bits(g.Val[k]) != math.Float64bits(w.Val[k]) {
				t.Fatalf("%s: row %d entry %d val %x != %x (%.17g vs %.17g)",
					label, r, k-g.RowPtr[r], math.Float64bits(g.Val[k]), math.Float64bits(w.Val[k]), g.Val[k], w.Val[k])
			}
		}
	}
}

func checkCongruenceStats(t *testing.T, label string, op *operator.Operator) *operator.CongruenceStats {
	t.Helper()
	cs := op.Congruence
	if cs == nil {
		t.Fatalf("%s: congruent assembly did not record CongruenceStats", label)
	}
	if !op.TemplateAware {
		t.Fatalf("%s: congruent assembly did not mark the operator template-aware", label)
	}
	if cs.RowsIntegrated+cs.RowsStamped != cs.Rows {
		t.Fatalf("%s: integrated %d + stamped %d != rows %d", label, cs.RowsIntegrated, cs.RowsStamped, cs.Rows)
	}
	if cs.Rows != op.Rows {
		t.Fatalf("%s: stats rows %d != operator rows %d", label, cs.Rows, op.Rows)
	}
	return cs
}

// The tentpole property: template-aware assembly is bitwise identical to
// naive assembly on dyadic structured meshes — at every order, boundary
// treatment, and worker count — while stamping most rows without
// quadrature.
func TestCongruentMatchesNaiveBitwiseDyadic(t *testing.T) {
	m := mesh.Structured(4)
	for _, boundary := range []Boundary{Periodic, OneSided} {
		for p := 1; p <= 3; p++ {
			ev := buildEvaluator(t, m, p, assembleTestField, Options{Boundary: boundary, Workers: 4})
			naive, err := ev.AssembleOperator(AssembleOpts{})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				label := boundaryLabel(boundary) + "/P" + string(rune('0'+p)) + "/w" + string(rune('0'+workers))
				cong, err := ev.AssembleOperator(AssembleOpts{Workers: workers, Congruence: CongruenceTemplate})
				if err != nil {
					t.Fatalf("%s: congruent assemble: %v", label, err)
				}
				expectBitwiseEqual(t, label, cong, naive)
				cs := checkCongruenceStats(t, label, cong)
				// Periodic structured meshes are fully translation
				// invariant, so exact classes must form and stamp. On
				// one-sided boundaries every point of this small mesh gets
				// its own kernel shift, so rows may legitimately stay
				// singletons; demotions are the verification tier
				// rejecting near-congruent (ulp-rounded) attachments and
				// are fine — bitwise identity above is the contract.
				if boundary == Periodic && cs.RowsStamped == 0 {
					t.Errorf("%s: no rows stamped on a periodic structured mesh", label)
				}
			}
		}
	}
}

func boundaryLabel(b Boundary) string {
	if b == Periodic {
		return "periodic"
	}
	return "one-sided"
}

// On a periodic structured mesh the interior is fully translation
// invariant: the stamp rate should be high (the acceptance target assumes
// >60% shared rows at P2), and the emitted operator should carry an
// assembly-time TemplateSet without any Templatize rescan.
func TestCongruentStampRateStructured(t *testing.T) {
	m := mesh.Structured(16)
	ev := buildEvaluator(t, m, 2, assembleTestField, Options{Boundary: Periodic, Workers: 4})
	op, err := ev.AssembleOperator(AssembleOpts{Congruence: CongruenceTemplate})
	if err != nil {
		t.Fatal(err)
	}
	cs := checkCongruenceStats(t, "structured-16/P2", op)
	if rate := float64(cs.RowsStamped) / float64(cs.Rows); rate < 0.6 {
		t.Errorf("stamp rate %.2f < 0.60 on periodic structured 16x16 (stamped %d of %d)", rate, cs.RowsStamped, cs.Rows)
	}
	if cs.ProbeRows == 0 || !cs.ProbeCongruent {
		t.Errorf("probe should detect congruence on a structured mesh: %+v", cs)
	}
	if op.Tpl == nil {
		t.Error("congruent assembly on a structured mesh emitted no TemplateSet")
	}
	if err := op.ValidateTemplates(); err != nil {
		t.Errorf("assembly-emitted templates invalid: %v", err)
	}
	// Satellite: Templatize must be a no-op on template-aware operators —
	// same object back, no rescan.
	if op.Templatize() != op {
		t.Error("Templatize re-scanned a template-aware operator")
	}
}

// Jittered meshes break exact congruence: the quantised prefilter may
// still group rows, but verification must catch every non-congruent
// member and demote it, keeping the result bitwise equal to naive
// assembly and within 1e-12 of direct per-point evaluation.
func TestCongruentJitteredDemotes(t *testing.T) {
	m := mesh.JitteredStructured(6, 0.3, 1)
	for _, boundary := range []Boundary{Periodic, OneSided} {
		ev := buildEvaluator(t, m, 2, assembleTestField, Options{Boundary: boundary, Workers: 4})
		naive, err := ev.AssembleOperator(AssembleOpts{})
		if err != nil {
			t.Fatal(err)
		}
		cong, err := ev.AssembleOperator(AssembleOpts{Congruence: CongruenceTemplate})
		if err != nil {
			t.Fatal(err)
		}
		label := "jittered/" + boundaryLabel(boundary)
		expectBitwiseEqual(t, label, cong, naive)
		checkCongruenceStats(t, label, cong)

		direct, err := ev.RunPerPoint(0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cong.Apply(ev.Field)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, direct.Solution); d > 1e-12 {
			t.Errorf("%s: congruent operator vs direct eval: max diff %.3e", label, d)
		}
	}
}

// On a large jittered mesh the congruence probe must detect that the
// sample has no repeated signatures and fall back to the naive schedule —
// zero classes, every row integrated, bitwise-identical output — so the
// congruence path's overhead on non-congruent meshes is the probe alone.
func TestCongruentProbeFallsBackJittered(t *testing.T) {
	m := mesh.JitteredStructured(12, 0.3, 2)
	ev := buildEvaluator(t, m, 1, assembleTestField, Options{Boundary: Periodic, Workers: 4})
	naive, err := ev.AssembleOperator(AssembleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cong, err := ev.AssembleOperator(AssembleOpts{Congruence: CongruenceTemplate})
	if err != nil {
		t.Fatal(err)
	}
	expectBitwiseEqual(t, "probe-fallback", cong, naive)
	cs := checkCongruenceStats(t, "probe-fallback", cong)
	if cs.ProbeRows == 0 {
		t.Fatalf("probe did not run on %d rows", cs.Rows)
	}
	if cs.ProbeCongruent {
		t.Errorf("probe claimed congruence on a heavily jittered mesh: %+v", cs)
	}
	if cs.Classes != 0 || cs.RowsStamped != 0 || cs.RowsIntegrated != cs.Rows {
		t.Errorf("fallback should integrate every row: %+v", cs)
	}
}

// A deliberately catastrophic quantum collapses every row of a jittered
// mesh into a handful of prefilter buckets — maximal collision pressure.
// False sharing must still be impossible: every stamped or verified row
// is gated by a bitwise check, so the output stays identical to naive
// assembly no matter how bad the prefilter is.
func TestCongruentCoarseQuantumNoFalseSharing(t *testing.T) {
	m := mesh.JitteredStructured(5, 0.25, 7)
	ev := buildEvaluator(t, m, 2, assembleTestField, Options{Boundary: Periodic, Workers: 4})
	naive, err := ev.AssembleOperator(AssembleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, quantum := range []float64{1e-3, 1.0, 1e6} {
		cong, err := ev.AssembleOperator(AssembleOpts{Congruence: CongruenceTemplate, SigQuantum: quantum})
		if err != nil {
			t.Fatal(err)
		}
		expectBitwiseEqual(t, "coarse-quantum", cong, naive)
		checkCongruenceStats(t, "coarse-quantum", cong)
	}
}

// Custom query points (non-grid positions) run through the same path.
func TestCongruentCustomPoints(t *testing.T) {
	m := mesh.Structured(4)
	ev := buildEvaluator(t, m, 2, assembleTestField, Options{Boundary: Periodic, Workers: 4})
	pts := make([]geom.Point, 0, 48)
	for i := 0; i < 48; i++ {
		pts = append(pts, geom.Pt(
			math.Mod(0.17+0.61803398875*float64(i), 1),
			math.Mod(0.31+0.7548776662*float64(i), 1),
		))
	}
	naive, err := ev.AssembleOperator(AssembleOpts{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	cong, err := ev.AssembleOperator(AssembleOpts{Points: pts, Congruence: CongruenceTemplate})
	if err != nil {
		t.Fatal(err)
	}
	expectBitwiseEqual(t, "custom-points", cong, naive)
}

// Congruence detection needs the per-point schedule; per-element assembly
// interleaves rows and cannot stamp them.
func TestCongruentRejectsPerElement(t *testing.T) {
	m := mesh.Structured(4)
	ev := buildEvaluator(t, m, 1, assembleTestField, Options{Workers: 2})
	if _, err := ev.AssembleOperator(AssembleOpts{Scheme: PerElement, Congruence: CongruenceTemplate}); err == nil {
		t.Error("per-element + congruence should be rejected")
	}
	if _, err := ev.AssembleOperator(AssembleOpts{Congruence: CongruenceTemplate, SigQuantum: -1}); err == nil {
		t.Error("negative signature quantum should be rejected")
	}
}

// Fuzz the signature quantiser: whatever bucket geometry the quantum
// induces — collapsing everything together or splitting everything apart —
// verification must keep template-aware assembly bitwise identical to
// naive assembly. Seeds cover the default, coarse collision-heavy, and
// absurd quanta on both structured and jittered meshes.
func FuzzSignatureQuantum(f *testing.F) {
	f.Add(0.0, 0.0, int64(1))
	f.Add(1.0/(1<<30), 0.2, int64(2))
	f.Add(0.5, 0.3, int64(3))
	f.Add(1e9, 0.1, int64(4))
	f.Add(1e-12, 0.25, int64(5))

	type cached struct {
		ev    *Evaluator
		naive *operator.Operator
	}
	cache := map[int64]*cached{}

	f.Fuzz(func(t *testing.T, quantum, jitter float64, seed int64) {
		if math.IsNaN(quantum) || math.IsInf(quantum, 0) || quantum < 0 {
			t.Skip()
		}
		if math.IsNaN(jitter) || jitter < 0 || jitter > 0.4 {
			jitter = math.Mod(math.Abs(jitter), 0.4)
			if math.IsNaN(jitter) {
				jitter = 0
			}
		}
		key := seed%4 + int64(jitter*1e6)%97*4
		c := cache[key]
		if c == nil {
			m := mesh.JitteredStructured(4, jitter, seed)
			ev := buildFuzzEvaluator(t, m)
			naive, err := ev.AssembleOperator(AssembleOpts{})
			if err != nil {
				t.Fatal(err)
			}
			c = &cached{ev: ev, naive: naive}
			cache[key] = c
		}
		cong, err := c.ev.AssembleOperator(AssembleOpts{Congruence: CongruenceTemplate, SigQuantum: quantum})
		if err != nil {
			t.Fatal(err)
		}
		expectBitwiseEqual(t, "fuzz", cong, c.naive)
	})
}

func buildFuzzEvaluator(t *testing.T, m *mesh.Mesh) *Evaluator {
	t.Helper()
	return buildEvaluator(t, m, 1, assembleTestField, Options{Boundary: Periodic, Workers: 2})
}

// TestCanonicalizeShuffledWalk: canonicalizeSignature's output does not
// depend on the candidate walk order. For every row of structured,
// jittered and one-sided evaluators, shuffled copies of the walk — with
// and without duplicated entries, at the default and a coarse quantum
// that makes quantised keys tie — yield the same canonical entries, ids
// and both hashes as the walk order and as a stable sort.
func TestCanonicalizeShuffledWalk(t *testing.T) {
	cases := []struct {
		name string
		m    *mesh.Mesh
		b    Boundary
	}{
		{"structured", mesh.Structured(4), Periodic},
		{"jittered", mesh.JitteredStructured(5, 0.3, 3), Periodic},
		{"one-sided", mesh.Structured(4), OneSided},
	}
	rng := rand.New(rand.NewSource(5))
	for _, tc := range cases {
		ev := buildEvaluator(t, tc.m, 2, assembleTestField, Options{Boundary: tc.b, Workers: 1})
		wk := ev.getWorker()
		for _, quantum := range []float64{sigQuantumDefault, 1.0 / 64} {
			invQ := 1 / (ev.H * quantum)
			labs := map[int32]int32{}
			rows := 0
			for i := 0; i < len(ev.Points); i += 3 {
				pos := ev.Points[i].Pos
				walk, err := ev.collectSignature(pos, wk, nil, invQ)
				if err != nil {
					t.Fatal(err)
				}
				if i%2 == 0 && len(walk) > 2 { // duplicated entries tie only with themselves
					walk = append(walk, walk[0], walk[len(walk)/2])
				}
				kx, ky := ev.kernelClass(pos)
				want, wantIDs := canonicalizeSignature(slices.Clone(walk), nil, labs)
				wantE, wantQ := signatureHashes(kx, ky, want)
				stable, unstable := slices.Clone(walk), slices.Clone(walk)
				slices.SortStableFunc(stable, compareSigEntry)
				slices.SortFunc(unstable, compareSigEntry)
				if !slices.Equal(stable, unstable) {
					t.Fatalf("%s row %d: unstable sort differs from stable sort", tc.name, i)
				}
				for s := 0; s < 4; s++ {
					shuf := slices.Clone(walk)
					rng.Shuffle(len(shuf), func(a, b int) { shuf[a], shuf[b] = shuf[b], shuf[a] })
					got, gotIDs := canonicalizeSignature(shuf, nil, labs)
					gotE, gotQ := signatureHashes(kx, ky, got)
					if !slices.Equal(got, want) || !slices.Equal(gotIDs, wantIDs) || gotE != wantE || gotQ != wantQ {
						t.Fatalf("%s row %d shuffle %d: canonical form depends on walk order", tc.name, i, s)
					}
				}
				rows++
			}
			if rows == 0 {
				t.Fatalf("%s: no rows checked", tc.name)
			}
		}
		ev.putWorker(wk)
	}
}
