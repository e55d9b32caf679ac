package server

import (
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unstencil/internal/mesh"
)

// TestResultRetentionBudget pins the eviction order and the newest-result
// guarantee.
func TestResultRetentionBudget(t *testing.T) {
	r := NewResultRetention(100)
	var dropped []int
	retain := func(id int, bytes int64) {
		r.Retain(bytes, func() { dropped = append(dropped, id) })
	}
	retain(1, 40)
	retain(2, 40)
	if b, e := r.Stats(); b != 80 || e != 0 || len(dropped) != 0 {
		t.Fatalf("under budget: bytes %d evicted %d dropped %v", b, e, dropped)
	}
	retain(3, 40) // 120 > 100: the oldest goes
	if b, e := r.Stats(); b != 80 || e != 1 || len(dropped) != 1 || dropped[0] != 1 {
		t.Fatalf("over budget: bytes %d evicted %d dropped %v", b, e, dropped)
	}
	retain(4, 500) // larger than the whole budget: everything older goes, it stays
	if b, e := r.Stats(); b != 500 || e != 3 || len(dropped) != 3 {
		t.Fatalf("oversized newest: bytes %d evicted %d dropped %v", b, e, dropped)
	}
	retain(5, 10)
	if b, e := r.Stats(); b != 10 || e != 4 || dropped[3] != 4 {
		t.Fatalf("after oversized: bytes %d evicted %d dropped %v", b, e, dropped)
	}
}

// TestResultRetentionConcurrent retains from several goroutines at once
// (run under -race): every result is either still held or dropped exactly
// once, and the held total respects the budget.
func TestResultRetentionConcurrent(t *testing.T) {
	const goroutines, each, size, budget = 8, 200, 10, 250
	r := NewResultRetention(budget)
	var drops [goroutines * each]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := g*each + i
				r.Retain(size, func() { drops[id].Add(1) })
			}
		}(g)
	}
	wg.Wait()
	bytes, evicted := r.Stats()
	var n int64
	for i := range drops {
		switch d := drops[i].Load(); d {
		case 0:
		case 1:
			n++
		default:
			t.Fatalf("result %d dropped %d times", i, d)
		}
	}
	if uint64(n) != evicted {
		t.Fatalf("%d drops but %d evictions counted", n, evicted)
	}
	if held := int64(goroutines*each) - n; held*size != bytes || bytes > budget {
		t.Fatalf("held %d results = %d bytes, Stats reports %d (budget %d)", held, held*size, bytes, budget)
	}
}

// TestResultEvictionGone drives eviction through the HTTP surface: with a
// result budget below one job's solution, a finished job's result answers
// 410 with a JSON error once a newer job finishes, its status keeps
// num_points, wall_ms and counters, and /debug/metrics accounts for it.
func TestResultEvictionGone(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	if got := srv.Manager().results.budget; got != ResultBudget(DefaultCacheBytes) {
		t.Fatalf("default result budget %d, want %d", got, ResultBudget(DefaultCacheBytes))
	}
	// Shrink the budget below one solution before any job runs (a small
	// CacheBytes would evict the mesh from the artifact cache too).
	srv.Manager().results = NewResultRetention(100)
	id := uploadMesh(t, ts, mesh.Structured(4))
	run := func() JobStatus {
		st, code := submitJob(t, ts, JobSpec{MeshID: id, Scheme: "per-point", P: 1})
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		j, ok := srv.Manager().Job(st.ID)
		if !ok {
			t.Fatalf("job %s not registered", st.ID)
		}
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("job %s did not finish", st.ID)
		}
		return j.Status()
	}
	first := run()
	if first.State != StateDone || first.Evicted {
		t.Fatalf("first job: state %s evicted %v", first.State, first.Evicted)
	}
	var res struct {
		Solution []float64 `json:"solution"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+first.ID+"/result", &res); code != http.StatusOK || len(res.Solution) == 0 {
		t.Fatalf("newest result: status %d, %d points", code, len(res.Solution))
	}
	second := run()

	var gone errorBody
	if code := getJSON(t, ts.URL+"/v1/jobs/"+first.ID+"/result", &gone); code != http.StatusGone {
		t.Fatalf("evicted result: status %d, want 410", code)
	}
	if gone.Error == "" {
		t.Fatal("410 carries no JSON error")
	}
	var st JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs/"+first.ID, &st); code != http.StatusOK {
		t.Fatalf("evicted job status: %d", code)
	}
	if !st.Evicted || st.State != StateDone || st.NumPoints != len(res.Solution) || st.WallMS <= 0 || st.Counters == nil {
		t.Fatalf("evicted job status lost its record: %+v", st)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+second.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("newest result after eviction: status %d", code)
	}

	var m struct {
		Retained int64  `json:"retained_result_bytes"`
		Evicted  uint64 `json:"results_evicted"`
	}
	if code := getJSON(t, ts.URL+"/debug/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Evicted != 1 || m.Retained != int64(second.NumPoints)*8 {
		t.Fatalf("metrics retained %d evicted %d, want %d and 1", m.Retained, m.Evicted, second.NumPoints*8)
	}
}
