package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// declared is BENCHMARK.json's metric list.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json declares no metrics")
	}
	return d
}

// runShort runs one workload for about a second and returns its exit code,
// the decoded last line and the whole output.
func runShort(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append([]string{"--seconds", "1", "--out", t.TempDir()}, args...), &out, &errOut)
	var res result
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code == 0 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result: %v\n%s", err, out.String())
		}
	}
	return code, res, out.String() + errOut.String()
}

// TestShortRuns runs every workload for a few requests, untraced and
// traced, and checks that every metric BENCHMARK.json declares is emitted
// with its unit, all answers correct.
func TestShortRuns(t *testing.T) {
	d := readDeclared(t)
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				code, res, out := runShort(t, "--workload", w, "--seed", "3", "--trace", trace)
				if code != 0 {
					t.Fatalf("exit code %d\n%s", code, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				want := d.EndToEnd
				if trace == "1" {
					want = d.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestPerturbedReferenceFailsGate checks that the correctness gate catches
// a wrong reference on every workload.
func TestPerturbedReferenceFailsGate(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			var out, errOut bytes.Buffer
			o := options{workload: w, seed: 3, seconds: 1, outDir: t.TempDir(), perturb: true}
			res, err := runBench(o, &out)
			if err == nil && res.Correct {
				t.Fatalf("perturbed reference passed the gate\n%s%s", out.String(), errOut.String())
			}
			if err != nil && !strings.Contains(err.Error(), errMismatch.Error()) {
				t.Fatalf("run failed for another reason than a mismatch: %v", err)
			}
		})
	}
}
