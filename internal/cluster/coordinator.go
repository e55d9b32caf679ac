package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
	"unstencil/internal/server"
)

// Config sizes the coordinator; zero fields take the documented defaults.
type Config struct {
	// Shards are the unstencild base URLs (e.g. http://host:9090) forming
	// the cluster. Required, distinct.
	Shards []string
	// VNodes is the virtual-node count per shard on the consistent-hash
	// ring (default DefaultVNodes).
	VNodes int
	// RequestTimeout caps each individual shard HTTP request (default 30s).
	RequestTimeout time.Duration
	// HedgeDelay, when > 0, arms hedged reads on /v1/query: if the primary
	// shard has not answered within the delay, a duplicate is sent to the
	// next replica and the first success wins. 0 disables hedging.
	HedgeDelay time.Duration
	// Retry shapes per-shard request retry (capped exponential backoff with
	// deterministic jitter; zero value: no retry).
	Retry server.RetryPolicy
	// FailoverAttempts is how many ring successors a failed patch range or
	// routed job may move to after its shard exhausts the retry budget.
	// 0 means the default (1); negative disables failover, forcing the
	// degraded path — which is exactly what a chaos drill wants.
	FailoverAttempts int
	// HealthInterval is the /readyz polling period (default 1s).
	HealthInterval time.Duration
	// HealthThreshold is how many consecutive transport failures mark a
	// shard Down (default 3).
	HealthThreshold int
	// DefaultBlocks is the patch/block count for jobs that omit it
	// (default 16).
	DefaultBlocks int
	// JobTimeout caps a distributed job's end-to-end execution (default 5m).
	JobTimeout time.Duration
	// JobConcurrency bounds concurrently executing distributed jobs
	// (default 4).
	JobConcurrency int
	// MaxBodyBytes bounds request bodies, mesh uploads included
	// (default 32 MiB).
	MaxBodyBytes int64
	// MaxJobs bounds retained cluster job records (default 4096).
	MaxJobs int
	// Log receives structured logs; nil disables logging.
	Log *slog.Logger
}

func (c *Config) defaults() {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DefaultBlocks <= 0 {
		c.DefaultBlocks = 16
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.JobConcurrency <= 0 {
		c.JobConcurrency = 4
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
}

// meshEntry retains an uploaded mesh's raw encoded bytes so the
// coordinator can re-seed a shard that answers "mesh not resident" — a
// restarted shard without durable state heals transparently on first use.
type meshEntry struct {
	raw      []byte
	numTris  int
	numVerts int
}

// Coordinator is the cluster front-end: it owns the consistent-hash ring,
// the shard health table, the retained mesh bytes and the cluster job
// registry, and serves the same public API surface as a single unstencild
// so clients need not know they are talking to a cluster.
type Coordinator struct {
	cfg      Config
	ring     *Ring
	health   *HealthChecker
	client   *Client
	counters metrics.ClusterCounters
	jobs     *registry
	log      *slog.Logger
	start    time.Time
	handler  http.Handler

	baseCtx    context.Context
	baseCancel context.CancelFunc
	jobSem     chan struct{}

	meshMu sync.Mutex
	meshes map[string]*meshEntry
}

// New assembles the coordinator and runs one synchronous health pass so
// the routing table is populated before the first request. Call Start to
// begin periodic health polling and Close to release resources.
func New(cfg Config) (*Coordinator, error) {
	cfg.defaults()
	ring, err := NewRing(cfg.Shards, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Timeout: cfg.RequestTimeout}
	co := &Coordinator{
		cfg:    cfg,
		ring:   ring,
		health: NewHealthChecker(cfg.Shards, hc, cfg.HealthInterval, cfg.HealthThreshold, cfg.Log),
		jobs:   newRegistry(cfg.MaxJobs),
		log:    cfg.Log,
		start:  time.Now(),
		jobSem: make(chan struct{}, cfg.JobConcurrency),
		meshes: make(map[string]*meshEntry),
	}
	co.client = NewClient(hc, cfg.RequestTimeout, cfg.Retry, &co.counters, cfg.Log)
	co.baseCtx, co.baseCancel = context.WithCancel(context.Background())
	co.health.CheckNow()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/meshes", co.handleMeshUpload)
	mux.HandleFunc("GET /v1/meshes/{id}", co.handleMeshGet)
	mux.HandleFunc("POST /v1/query", co.handleQuery)
	mux.HandleFunc("POST /v1/jobs", co.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", co.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", co.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", co.handleJobResult)
	mux.HandleFunc("GET /healthz", co.handleHealthz)
	mux.HandleFunc("GET /readyz", co.handleReadyz)
	mux.HandleFunc("GET /debug/metrics", co.handleMetrics)
	co.handler = mux
	return co, nil
}

// Start begins periodic shard health polling.
func (co *Coordinator) Start() { co.health.Start() }

// Close stops health polling and cancels in-flight distributed jobs.
func (co *Coordinator) Close() {
	co.health.Stop()
	co.baseCancel()
}

// Counters exposes the cluster counters (tests, embedding).
func (co *Coordinator) Counters() *metrics.ClusterCounters { return &co.counters }

// Health exposes the health checker (tests drive CheckNow directly).
func (co *Coordinator) Health() *HealthChecker { return co.health }

// ServeHTTP implements http.Handler.
func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, co.cfg.MaxBodyBytes)
	co.handler.ServeHTTP(w, r)
}

// failoverAttempts resolves the config knob: 0 → 1, negative → 0.
func (co *Coordinator) failoverAttempts() int {
	switch {
	case co.cfg.FailoverAttempts < 0:
		return 0
	case co.cfg.FailoverAttempts == 0:
		return 1
	default:
		return co.cfg.FailoverAttempts
	}
}

// routable returns the ring succession for key filtered to shards the
// health table marks Ready. Routing only to Ready shards keeps saturated
// (NotReady) shards out of new work while they drain — their keyspace
// returns to them the moment they recover, because the ring itself never
// changes.
func (co *Coordinator) routable(key string) []string {
	order := co.ring.Order(key)
	out := order[:0]
	for _, s := range order {
		if co.health.State(s) == StateReady {
			out = append(out, s)
		}
	}
	return out
}

// reseedMesh re-uploads a retained mesh to one shard (the 404 protocol).
// Mesh ids are content hashes, so re-seeding is idempotent and the shard's
// response id must round-trip.
func (co *Coordinator) reseedMesh(ctx context.Context, shard string) error {
	// The 404 does not say which mesh; re-seed everything retained. In
	// practice a coordinator holds few meshes and uploads are idempotent.
	co.meshMu.Lock()
	entries := make(map[string]*meshEntry, len(co.meshes))
	for id, e := range co.meshes {
		entries[id] = e
	}
	co.meshMu.Unlock()
	if len(entries) == 0 {
		return errors.New("no retained mesh to re-seed")
	}
	for id, e := range entries {
		var out struct {
			MeshID string `json:"mesh_id"`
		}
		if err := co.client.PostRaw(ctx, shard, "/v1/meshes", e.raw, &out); err != nil {
			return err
		}
		if out.MeshID != id {
			return fmt.Errorf("re-seeded mesh id mismatch: sent %s, shard stored %s", id, out.MeshID)
		}
		co.counters.MeshReseeds.Add(1)
		if co.log != nil {
			co.log.Info("re-seeded mesh to shard", "mesh", id, "shard", shard)
		}
	}
	return nil
}

// handleMeshUpload fans the encoded mesh out to every shard and retains
// the raw bytes for later re-seeding. The upload succeeds if at least one
// shard accepted it — shards that were down heal via the 404 protocol.
func (co *Coordinator) handleMeshUpload(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"mesh exceeds the %d-byte upload limit", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "reading mesh: %v", err)
		return
	}
	m, err := mesh.Decode(bytes.NewReader(raw))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	co.counters.MeshFanouts.Add(1)

	type seedResult struct {
		shard string
		id    string
		err   error
	}
	shards := co.ring.Shards()
	results := make([]seedResult, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func(i int, shard string) {
			defer wg.Done()
			var out struct {
				MeshID string `json:"mesh_id"`
			}
			err := co.client.PostRaw(r.Context(), shard, "/v1/meshes", raw, &out)
			results[i] = seedResult{shard: shard, id: out.MeshID, err: err}
		}(i, shard)
	}
	wg.Wait()

	var id string
	var seeded, failed []string
	for _, res := range results {
		if res.err != nil {
			failed = append(failed, res.shard)
			continue
		}
		seeded = append(seeded, res.shard)
		if id == "" {
			id = res.id
		} else if id != res.id {
			writeError(w, http.StatusBadGateway,
				"shards disagree on mesh id (%s vs %s); refusing to route", id, res.id)
			return
		}
	}
	if id == "" {
		writeError(w, http.StatusBadGateway, "no shard accepted the mesh (%d down)", len(failed))
		return
	}
	co.meshMu.Lock()
	co.meshes[id] = &meshEntry{raw: raw, numTris: m.NumTris(), numVerts: m.NumVerts()}
	co.meshMu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]any{
		"mesh_id":       id,
		"num_tris":      m.NumTris(),
		"num_verts":     m.NumVerts(),
		"shards_seeded": seeded,
		"shards_failed": failed,
	})
}

// handleMeshGet proxies mesh stats from the mesh's home shard, failing
// over along the succession.
func (co *Coordinator) handleMeshGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	order := co.routable(id)
	if len(order) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no ready shard")
		return
	}
	var lastErr error
	for _, shard := range order {
		var out map[string]any
		if err := co.client.GetJSON(r.Context(), shard, "/v1/meshes/"+id, &out); err != nil {
			lastErr = err
			continue
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	writeProxyError(w, lastErr)
}

// handleQuery routes a batch query to the mesh's home shard, optionally
// hedging with the next replica, and failing over along the succession.
// The body is forwarded verbatim so the shard stays the schema authority.
func (co *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading query: %v", err)
		return
	}
	var peek struct {
		MeshID string `json:"mesh_id"`
	}
	if err := json.Unmarshal(raw, &peek); err != nil || peek.MeshID == "" {
		writeError(w, http.StatusBadRequest, "bad query: mesh_id is required")
		return
	}
	order := co.routable(peek.MeshID)
	if len(order) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no ready shard for mesh %s", peek.MeshID)
		return
	}
	co.counters.QueriesRouted.Add(1)
	out, shard, err := co.queryShards(r.Context(), order, raw)
	if err != nil {
		writeProxyError(w, err)
		return
	}
	out["shard"] = shard
	writeJSON(w, http.StatusOK, out)
}

// queryShards races the query across the succession: primary immediately,
// the next replica after HedgeDelay (hedged read), further replicas only
// as failover when an attempt fails. First success wins; losers are
// cancelled.
func (co *Coordinator) queryShards(ctx context.Context, order []string, raw []byte) (map[string]any, string, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		out   map[string]any
		shard string
		err   error
		hedge bool
	}
	resCh := make(chan result, len(order)+1)
	launch := func(shard string, hedge bool) {
		go func() {
			var out map[string]any
			err := co.shardPost(ctx, shard, "/v1/query", json.RawMessage(raw), &out)
			resCh <- result{out: out, shard: shard, err: err, hedge: hedge}
		}()
	}

	next := 0
	launch(order[next], false)
	next++
	inflight := 1
	var hedgeTimer <-chan time.Time
	if co.cfg.HedgeDelay > 0 && next < len(order) {
		hedgeTimer = time.After(co.cfg.HedgeDelay)
	}
	var lastErr error
	for inflight > 0 {
		select {
		case <-hedgeTimer:
			hedgeTimer = nil
			if next < len(order) {
				co.counters.Hedges.Add(1)
				launch(order[next], true)
				next++
				inflight++
			}
		case res := <-resCh:
			inflight--
			if res.err == nil {
				if res.hedge {
					co.counters.HedgeWins.Add(1)
				}
				return res.out, res.shard, nil
			}
			lastErr = res.err
			if !retryableAcrossShards(res.err) {
				return nil, "", res.err
			}
			if next < len(order) {
				co.counters.Failovers.Add(1)
				launch(order[next], false)
				next++
				inflight++
			}
		case <-ctx.Done():
			return nil, "", ctx.Err()
		}
	}
	return nil, "", lastErr
}

// retryableAcrossShards reports whether a failed shard attempt justifies
// trying another shard: shard exhaustion yes, a 4xx (the request itself is
// wrong everywhere) or context expiry no.
func retryableAcrossShards(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if st := RemoteStatus(err); st != 0 && st/100 == 4 {
		return false
	}
	return true
}

// handleJobSubmit accepts a JobSpec. Per-element jobs are distributed:
// the deterministic k-patch tiling is split into contiguous ranges across
// the ready shards and merged here. Per-point and operator jobs run whole
// on the mesh's home shard (their artifacts — block schedules, assembled
// operators — live shard-side) with status proxied.
func (co *Coordinator) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var spec server.JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	if err := spec.Validate(co.cfg.DefaultBlocks); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	co.meshMu.Lock()
	_, known := co.meshes[spec.MeshID]
	co.meshMu.Unlock()
	if !known {
		writeError(w, http.StatusNotFound,
			"mesh %q not known to the coordinator (upload it via POST /v1/meshes)", spec.MeshID)
		return
	}
	if spec.Scheme == "per-element" {
		co.counters.JobsDistributed.Add(1)
		job := co.jobs.add(KindDistributed, spec)
		go func() {
			co.jobSem <- struct{}{}
			defer func() { <-co.jobSem }()
			timeout := co.cfg.JobTimeout
			if spec.TimeoutMS > 0 {
				timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
			}
			ctx, cancel := context.WithTimeout(co.baseCtx, timeout)
			defer cancel()
			co.runDistributed(ctx, job)
		}()
		writeJSON(w, http.StatusAccepted, job.View())
		return
	}
	co.submitRouted(w, r, spec)
}

// submitRouted forwards a whole job to the mesh's home shard, failing the
// submission over along the succession within the failover budget.
func (co *Coordinator) submitRouted(w http.ResponseWriter, r *http.Request, spec server.JobSpec) {
	order := co.routable(spec.MeshID)
	if len(order) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no ready shard for mesh %s", spec.MeshID)
		return
	}
	tries := min(1+co.failoverAttempts(), len(order))
	var lastErr error
	for i := 0; i < tries; i++ {
		shard := order[i]
		if i > 0 {
			co.counters.Failovers.Add(1)
		}
		var out map[string]any
		err := co.shardPost(r.Context(), shard, "/v1/jobs", &spec, &out)
		if err == nil {
			remoteID, _ := out["id"].(string)
			if remoteID == "" {
				writeError(w, http.StatusBadGateway, "shard %s accepted the job without an id", shard)
				return
			}
			co.counters.JobsRouted.Add(1)
			job := co.jobs.add(KindRouted, spec)
			job.Shard = shard
			job.RemoteID = remoteID
			out["id"] = job.ID
			out["kind"] = string(KindRouted)
			out["shard"] = shard
			writeJSON(w, http.StatusAccepted, out)
			return
		}
		lastErr = err
		if !retryableAcrossShards(err) {
			break
		}
	}
	writeProxyError(w, lastErr)
}

func (co *Coordinator) handleJobList(w http.ResponseWriter, r *http.Request) {
	jobs := co.jobs.list()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (co *Coordinator) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := co.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found", r.PathValue("id"))
		return
	}
	if job.Kind == KindDistributed {
		writeJSON(w, http.StatusOK, job.View())
		return
	}
	co.proxyRouted(w, r, job, "/v1/jobs/"+job.RemoteID)
}

func (co *Coordinator) handleJobResult(w http.ResponseWriter, r *http.Request) {
	job, ok := co.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found", r.PathValue("id"))
		return
	}
	if job.Kind == KindRouted {
		co.proxyRouted(w, r, job, "/v1/jobs/"+job.RemoteID+"/result")
		return
	}
	v := job.View()
	switch v.State {
	case server.StateDone:
		sol, ok := job.Solution()
		if !ok {
			writeError(w, http.StatusGone, "job %s result was evicted to bound retained results (%d points); resubmit the job",
				job.ID, v.NumPoints)
			return
		}
		body := map[string]any{
			"job_id":          job.ID,
			"scheme":          job.Spec.Scheme,
			"num_points":      len(sol),
			"memory_overhead": v.MemOverhd,
			"solution":        sol,
			"shards":          v.Shards,
		}
		if v.Degraded {
			body["degraded"] = true
			body["coverage"] = v.Coverage
			body["uncovered_ids"] = v.UncoveredIDs
			body["uncovered_truncated"] = v.UncoveredTruncated
		}
		writeJSON(w, http.StatusOK, body)
	case server.StateFailed:
		writeJSON(w, http.StatusConflict, map[string]any{
			"error":      fmt.Sprintf("job %s failed: %s", job.ID, v.Error),
			"error_kind": v.ErrorKind,
		})
	default:
		writeError(w, http.StatusConflict, "job %s is %s; result not ready", job.ID, v.State)
	}
}

// proxyRouted fetches path from the routed job's owning shard and rewrites
// the shard-local job id to the cluster id.
func (co *Coordinator) proxyRouted(w http.ResponseWriter, r *http.Request, job *Job, path string) {
	var out map[string]any
	if err := co.client.GetJSON(r.Context(), job.Shard, path, &out); err != nil {
		writeProxyError(w, err)
		return
	}
	if _, ok := out["id"]; ok {
		out["id"] = job.ID
	}
	if _, ok := out["job_id"]; ok {
		out["job_id"] = job.ID
	}
	out["kind"] = string(KindRouted)
	out["shard"] = job.Shard
	writeJSON(w, http.StatusOK, out)
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": float64(time.Since(co.start)) / float64(time.Millisecond),
		"shards":    len(co.cfg.Shards),
	})
}

// handleReadyz reports readiness: the coordinator can do useful work while
// at least one shard is Ready (possibly degraded — honest partial coverage
// beats refusing all traffic).
func (co *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, down := co.health.Counts()
	body := map[string]any{
		"ready":        ready > 0,
		"shards_ready": ready,
		"shards_down":  down,
		"shards_total": len(co.cfg.Shards),
	}
	status := http.StatusOK
	if ready == 0 {
		status = http.StatusServiceUnavailable
		body["reason"] = "no shard is ready"
	}
	writeJSON(w, status, body)
}

// handleMetrics reports the cluster counters, every shard's health record,
// and the per-shard routing table (which retained meshes each shard is the
// current primary for, given the live health filter).
func (co *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	co.meshMu.Lock()
	meshIDs := make([]string, 0, len(co.meshes))
	for id := range co.meshes {
		meshIDs = append(meshIDs, id)
	}
	co.meshMu.Unlock()

	type shardRoute struct {
		State  string   `json:"state"`
		VNodes int      `json:"vnodes"`
		Meshes []string `json:"meshes,omitempty"`
	}
	routing := make(map[string]*shardRoute, len(co.cfg.Shards))
	for _, s := range co.ring.Shards() {
		routing[s] = &shardRoute{State: co.health.State(s).String(), VNodes: co.ring.VNodes()}
	}
	for _, id := range meshIDs {
		order := co.routable(id)
		if len(order) == 0 {
			continue
		}
		routing[order[0]].Meshes = append(routing[order[0]].Meshes, id)
	}

	states := map[server.JobState]int{}
	for _, j := range co.jobs.list() {
		states[j.View().State]++
	}
	retained, evicted := co.jobs.results.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_ms": float64(time.Since(co.start)) / float64(time.Millisecond),
		"cluster":   co.counters.Snapshot(),
		"shards":    co.health.Snapshot(),
		"routing":   routing,
		"jobs":      states,
		"meshes":    len(meshIDs),
		// Merged distributed solutions, bounded like a shard's results;
		// evicted ones answer 410 on their result endpoint.
		"retained_result_bytes": retained,
		"results_evicted":       evicted,
	})
}

// writeProxyError maps a failed shard interaction to a client-facing
// status: shard exhaustion becomes 502 tagged ErrorKindShardFailure, a
// relayed 4xx keeps its status, anything else is 502.
func writeProxyError(w http.ResponseWriter, err error) {
	var se *ShardError
	if errors.As(err, &se) {
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"error":      se.Error(),
			"error_kind": ErrorKindShardFailure,
		})
		return
	}
	if st := RemoteStatus(err); st != 0 && st/100 == 4 {
		writeError(w, st, "%v", err)
		return
	}
	if err == nil {
		err = errNoShards
	}
	writeError(w, http.StatusBadGateway, "%v", err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
