package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
	"unstencil/internal/server"
)

// workload is one traffic mix. The server only ever sees the meshes, specs
// and points the workload generates.
type workload interface {
	loop() loopSpec
	// prepare generates the inputs and computes the reference answers; it
	// is not part of setup_s.
	prepare(b *bench) error
	// setUp starts the system and serves the first request (the warm-up);
	// setup_s times it.
	setUp(b *bench) error
	// tearDown stops everything setUp started and waits for it.
	tearDown()
	// request issues request i (rec.id) and checks its answer.
	request(ctx context.Context, b *bench, tr *tracer, rec *reqRecord) error
	// cacheCounts reads the cumulative artifact-cache hits and misses of
	// the servers under test from /debug/metrics.
	cacheCounts(b *bench) (hits, misses uint64, err error)
	// replay times the layers' public functions on the inputs of requests
	// of the traced phase.
	replay(b *bench, lr *layerRun) error
	// onPath names the replayed stages the workload's requests run.
	onPath() []string
}

var workloads = map[string]func() workload{
	"warm-apply":     func() workload { return &warmApply{} },
	"cold-mesh":      func() workload { return &coldMesh{} },
	"probe-query":    func() workload { return &probeQuery{} },
	"cluster-direct": func() workload { return &clusterDirect{} },
}

// Tolerances of the correctness gate. Operator answers are held to the
// repo's assembled-operator contract against the direct per-point scheme;
// EvalBatch and the coordinator's merge promise bitwise identity.
const (
	operatorTol = 1e-12
	bitwise     = 0
)

// answers checks every response against its reference and against the first
// response for the same key, which repeated requests must reproduce bit for
// bit.
type answers struct {
	mu    sync.Mutex
	first map[string][]float64
}

func (a *answers) check(g *gate, key string, got, ref []float64, tol float64) error {
	if len(got) != len(ref) {
		return g.fail("%s: %d values, want %d: %w", key, len(got), len(ref), errMismatch)
	}
	for i := range got {
		d := math.Abs(got[i] - ref[i])
		if (tol == bitwise && math.Float64bits(got[i]) != math.Float64bits(ref[i])) || !(d <= tol) {
			return g.fail("%s: value %d is %v, reference %v (tolerance %g): %w", key, i, got[i], ref[i], tol, errMismatch)
		}
	}
	a.mu.Lock()
	prev, seen := a.first[key]
	if !seen {
		if a.first == nil {
			a.first = map[string][]float64{}
		}
		a.first[key] = append([]float64(nil), got...)
	}
	a.mu.Unlock()
	if seen {
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(prev[i]) {
				return g.fail("%s: value %d differs from the first answer (%v vs %v): %w", key, i, got[i], prev[i], errMismatch)
			}
		}
	}
	return nil
}

// perturbed returns ref with its first value shifted far beyond any
// tolerance (the correctness gate's self-test).
func perturbed(ref []float64, on bool) []float64 {
	if on && len(ref) > 0 {
		ref[0] += 1e-6
	}
	return ref
}

// jobResult mirrors the body of GET /v1/jobs/{id}/result on unstencild and
// on the coordinator.
type jobResult struct {
	JobID          string      `json:"job_id"`
	Scheme         string      `json:"scheme"`
	NumPoints      int         `json:"num_points"`
	MemoryOverhead float64     `json:"memory_overhead"`
	Solution       []float64   `json:"solution"`
	Fields         []string    `json:"fields,omitempty"`
	Solutions      [][]float64 `json:"solutions,omitempty"`
	Shards         []string    `json:"shards,omitempty"`
}

// queryResult mirrors the body of POST /v1/query.
type queryResult struct {
	MeshID        string           `json:"mesh_id"`
	EvaluatorWarm bool             `json:"evaluator_warm"`
	NumPoints     int              `json:"num_points"`
	Values        []float64        `json:"values"`
	Counters      metrics.Counters `json:"counters"`
	WallMS        float64          `json:"wall_ms"`
}

// meshSeed generates the unstructured meshes. It is fixed, not the run's
// seed: a mesh's longest edge sets the stencil width h and with it the cost
// of every request on it, so a seeded mesh would let the seed, not the code,
// move the figures. The run's seed drives everything a request carries —
// fields, points, order, arrival times.
const meshSeed = 1

// rngFor derives an independent stream for one purpose from the seed.
func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// pickFields draws n analytic field names.
func pickFields(rng *rand.Rand, n int) []string {
	kinds := server.FieldNames()
	out := make([]string, n)
	for i := range out {
		out[i] = kinds[rng.Intn(len(kinds))]
	}
	return out
}

// randomPoints draws n positions uniformly in the unit square.
func randomPoints(rng *rand.Rand, n int) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	return out
}

func encodeMesh(m *mesh.Mesh) ([]byte, error) {
	var buf bytes.Buffer
	if err := mesh.Encode(&buf, m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// uploadMesh posts a mesh and checks the server named it by its content
// hash.
func (b *bench) uploadMesh(ctx context.Context, tr *tracer, rec *reqRecord, base string, body []byte, wantID string) error {
	var out struct {
		MeshID string `json:"mesh_id"`
	}
	if _, _, err := b.call(ctx, tr, rec, "POST /v1/meshes", http.MethodPost, base+"/v1/meshes", body, http.StatusCreated, &out); err != nil {
		return err
	}
	if out.MeshID != wantID {
		return b.gate.fail("mesh uploaded as %q, want content hash %q: %w", out.MeshID, wantID, errMismatch)
	}
	return nil
}

// single is one in-process unstencild with its own artifact store, behind
// its own listener.
type single struct {
	ep    *endpoint
	srv   *server.Server
	store string
}

// startSingle starts a server on a fresh store directory under dir.
func startSingle(dir string) (*single, error) {
	store, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	srv, err := newServer(store)
	if err != nil {
		return nil, err
	}
	ep, err := listen(srv)
	if err != nil {
		stopServer(srv)
		return nil, err
	}
	return &single{ep: ep, srv: srv, store: store}, nil
}

// restart replaces the server behind the same address with a new process
// image: same store when keepStore, else a fresh empty one (cold memory,
// disk and signature caches).
func (s *single) restart(dir string, keepStore bool) error {
	stopServer(s.srv)
	s.srv = nil
	if !keepStore {
		if err := os.RemoveAll(s.store); err != nil {
			return err
		}
		store, err := os.MkdirTemp(dir, "store-")
		if err != nil {
			return err
		}
		s.store = store
	}
	srv, err := newServer(s.store)
	if err != nil {
		return err
	}
	s.srv = srv
	s.ep.swap(srv)
	return nil
}

func (s *single) stop() {
	if s == nil {
		return
	}
	s.ep.close()
	stopServer(s.srv)
	if err := os.RemoveAll(s.store); err != nil {
		fmt.Fprintln(os.Stderr, "servicebench: removing store:", err)
	}
}

// workDir is a per-workload scratch directory.
func workDir(b *bench, name string) (string, error) {
	dir := filepath.Join(b.work, name)
	return dir, os.MkdirAll(dir, 0o755)
}
