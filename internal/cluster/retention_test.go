package cluster

import (
	"net/http"
	"testing"
	"time"

	"unstencil/internal/mesh"
	"unstencil/internal/server"
)

// TestClusterResultEviction: the coordinator bounds retained merged
// solutions with the shard-side ResultRetention. An evicted distributed
// result answers 410 with a JSON error while its status keeps num_points,
// /debug/metrics accounts for it, and a routed job's 410 from its shard is
// relayed unchanged.
func TestClusterResultEviction(t *testing.T) {
	fsA, tsA := newShard(t)
	fsB, tsB := newShard(t)
	co, cts := newCluster(t, Config{Shards: []string{tsA.URL, tsB.URL}})
	// Below one merged solution, set before any job runs.
	co.jobs.results = server.NewResultRetention(100)
	meshID := uploadMesh(t, cts.URL, mesh.Structured(8))

	run := func() JobView {
		spec := server.JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, Blocks: 4}
		var v JobView
		if code := postJSON(t, cts.URL+"/v1/jobs", spec, &v); code != http.StatusAccepted {
			t.Fatalf("submit status %d", code)
		}
		job, ok := co.jobs.get(v.ID)
		if !ok {
			t.Fatalf("job %s not registered", v.ID)
		}
		select {
		case <-job.Done():
		case <-time.After(120 * time.Second):
			t.Fatalf("job %s did not finish", v.ID)
		}
		return job.View()
	}
	first := run()
	if first.State != server.StateDone || first.Evicted {
		t.Fatalf("first job: state %s evicted %v err %q", first.State, first.Evicted, first.Error)
	}
	second := run()

	var gone struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, cts.URL+"/v1/jobs/"+first.ID+"/result", &gone); code != http.StatusGone || gone.Error == "" {
		t.Fatalf("evicted result: status %d error %q, want 410 with an error", code, gone.Error)
	}
	var v JobView
	if code := getJSON(t, cts.URL+"/v1/jobs/"+first.ID, &v); code != http.StatusOK {
		t.Fatalf("evicted job status: %d", code)
	}
	if !v.Evicted || v.NumPoints == 0 || v.Counters == nil || v.WallMS <= 0 {
		t.Fatalf("evicted job status lost its record: %+v", v)
	}
	var res resultBody
	if code := getJSON(t, cts.URL+"/v1/jobs/"+second.ID+"/result", &res); code != http.StatusOK || len(res.Solution) != v.NumPoints {
		t.Fatalf("newest result: status %d, %d points", code, len(res.Solution))
	}
	var m struct {
		Retained int64  `json:"retained_result_bytes"`
		Evicted  uint64 `json:"results_evicted"`
	}
	if code := getJSON(t, cts.URL+"/debug/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Evicted != 1 || m.Retained != int64(len(res.Solution))*8 {
		t.Fatalf("metrics retained %d evicted %d, want %d and 1", m.Retained, m.Evicted, len(res.Solution)*8)
	}

	// Routed: the owning shard evicted the result; the coordinator relays 410.
	var sub struct {
		ID    string `json:"id"`
		Shard string `json:"shard"`
	}
	spec := server.JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, Blocks: 4}
	if code := postJSON(t, cts.URL+"/v1/jobs", spec, &sub); code != http.StatusAccepted {
		t.Fatalf("routed submit status %d", code)
	}
	if rv := waitClusterJob(t, cts.URL, sub.ID, 120*time.Second); rv.State != server.StateDone {
		t.Fatalf("routed job: state %s err %q", rv.State, rv.Error)
	}
	owner := map[string]*flakyShard{tsA.URL: fsA, tsB.URL: fsB}[sub.Shard]
	if owner == nil {
		t.Fatalf("routed to unknown shard %q", sub.Shard)
	}
	owner.swap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGone)
		_, _ = w.Write([]byte(`{"error":"result evicted"}`))
	}))
	gone.Error = ""
	if code := getJSON(t, cts.URL+"/v1/jobs/"+sub.ID+"/result", &gone); code != http.StatusGone || gone.Error == "" {
		t.Fatalf("routed evicted result: status %d error %q, want 410 relayed", code, gone.Error)
	}
}
