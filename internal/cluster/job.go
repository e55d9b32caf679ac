package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"unstencil/internal/core"
	"unstencil/internal/metrics"
	"unstencil/internal/server"
)

// JobKind distinguishes how the coordinator executes a job.
type JobKind string

const (
	// KindDistributed jobs (per-element scheme) fan out as patch sets across
	// shards and are merged by the coordinator.
	KindDistributed JobKind = "distributed"
	// KindRouted jobs (per-point, operator) run whole on one shard chosen by
	// consistent hash; status and result requests are proxied to it.
	KindRouted JobKind = "routed"
)

// Job is one cluster-level job record.
type Job struct {
	ID   string
	Kind JobKind
	Spec server.JobSpec

	// Routed jobs: the owning shard and its local job id.
	Shard    string
	RemoteID string

	mu         sync.Mutex
	state      server.JobState
	err        error
	errKind    string
	shards     []string // shards that contributed partials (distributed)
	numPoints  int      // len(solution), kept when the solution is evicted
	evicted    bool     // solution dropped by the registry's ResultRetention
	solution   []float64
	counters   metrics.Counters
	coverage   *core.Coverage
	uncovered  []int32
	uncovTrunc bool
	memOverhd  float64
	created    time.Time
	started    time.Time
	finished   time.Time
	done       chan struct{}
}

// Done returns a channel closed when the job reaches a terminal state.
// Routed jobs' channel never closes — their lifecycle lives on the shard.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobView is the JSON status of a cluster job. It mirrors the shard's
// JobStatus shape so clients can treat coordinator and shard uniformly,
// plus the cluster-only fields (kind, contributing shards, error kind,
// uncovered-point ids). Evicted reports that the merged solution was
// dropped to keep retained results within the byte budget; the result
// endpoint answers 410 Gone.
type JobView struct {
	ID     string          `json:"id"`
	State  server.JobState `json:"state"`
	Spec   server.JobSpec  `json:"spec"`
	Kind   JobKind         `json:"kind"`
	Shards []string        `json:"shards,omitempty"`
	Error  string          `json:"error,omitempty"`
	// ErrorKind is ErrorKindShardFailure when the job failed because a shard
	// stayed down past the retry and failover budget (as opposed to the
	// request itself being invalid).
	ErrorKind string            `json:"error_kind,omitempty"`
	NumPoints int               `json:"num_points,omitempty"`
	Evicted   bool              `json:"result_evicted,omitempty"`
	WallMS    float64           `json:"wall_ms,omitempty"`
	MemOverhd float64           `json:"memory_overhead,omitempty"`
	Counters  *metrics.Counters `json:"counters,omitempty"`
	Degraded  bool              `json:"degraded,omitempty"`
	Coverage  *core.Coverage    `json:"coverage,omitempty"`
	// UncoveredIDs lists the grid points the merged solution does not cover
	// (union of the failed patches' slots), capped at server.MaxUncoveredIDs.
	UncoveredIDs       []int32    `json:"uncovered_ids,omitempty"`
	UncoveredTruncated bool       `json:"uncovered_truncated,omitempty"`
	CreatedAt          time.Time  `json:"created_at"`
	StartedAt          *time.Time `json:"started_at,omitempty"`
	FinishedAt         *time.Time `json:"finished_at,omitempty"`
}

// View snapshots the job.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		State:     j.state,
		Spec:      j.Spec,
		Kind:      j.Kind,
		Shards:    append([]string(nil), j.shards...),
		CreatedAt: j.created,
	}
	if j.err != nil {
		v.Error = j.err.Error()
		v.ErrorKind = j.errKind
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
		v.WallMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	}
	if j.state == server.StateDone {
		v.NumPoints = j.numPoints
		v.Evicted = j.evicted
		v.MemOverhd = j.memOverhd
		c := j.counters
		v.Counters = &c
		if j.coverage != nil {
			v.Degraded = true
			v.Coverage = j.coverage
			v.UncoveredIDs = j.uncovered
			v.UncoveredTruncated = j.uncovTrunc
		}
	}
	return v
}

// Solution returns the merged solution once the job is done, unless it
// has been evicted (see View().Evicted).
func (j *Job) Solution() ([]float64, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != server.StateDone || j.evicted {
		return nil, false
	}
	return j.solution, true
}

// dropSolution releases the merged solution, keeping every status field.
func (j *Job) dropSolution() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.solution = nil
	j.evicted = true
}

// registry owns cluster job records, with bounded retention like the
// shard-side Manager: at most max records, and merged solutions within
// the byte budget a shard applies to its results at the default cache
// size.
type registry struct {
	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string
	nextID  uint64
	max     int
	results *server.ResultRetention
}

func newRegistry(max int) *registry {
	if max <= 0 {
		max = 4096
	}
	return &registry{
		jobs:    make(map[string]*Job),
		max:     max,
		results: server.NewResultRetention(server.ResultBudget(server.DefaultCacheBytes)),
	}
}

func (r *registry) add(kind JobKind, spec server.JobSpec) *Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	j := &Job{
		ID:      fmt.Sprintf("cjob-%08d", r.nextID),
		Kind:    kind,
		Spec:    spec,
		state:   server.StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	r.jobs[j.ID] = j
	r.order = append(r.order, j.ID)
	for len(r.order) > r.max {
		id := r.order[0]
		if old := r.jobs[id]; old != nil {
			old.mu.Lock()
			terminal := old.state == server.StateDone || old.state == server.StateFailed ||
				old.Kind == KindRouted // routed lifecycle lives on the shard
			old.mu.Unlock()
			if !terminal {
				break
			}
			delete(r.jobs, id)
		}
		r.order = r.order[1:]
	}
	return j
}

func (r *registry) get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

func (r *registry) list() []*Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Job, 0, len(r.order))
	for _, id := range r.order {
		if j, ok := r.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// distOutcome is the merged result of a distributed per-element job.
type distOutcome struct {
	solution   []float64
	counters   metrics.Counters
	memOverhd  float64
	shards     []string
	coverage   *core.Coverage
	uncovered  []int32
	uncovTrunc bool
}

// assignment is one shard's share of a distributed job: a contiguous patch
// range of the deterministic k-patch tiling. Contiguous ranges correspond
// to coarser cuts of the recursive bisection (patch ids are assigned
// depth-first), so each shard's share is a spatially compact region.
type assignment struct {
	succession []string // [0] is the assignee; the rest is failover order
	patches    []int
}

// splitPatches assigns the k patches of the tiling to n shards as
// contiguous, near-equal ranges. order is the ring succession for the mesh
// key; assignment i goes to order[i] with the remaining shards (in
// succession order) as its failover chain.
func splitPatches(order []string, k int) []assignment {
	n := min(len(order), k)
	out := make([]assignment, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*k/n, (i+1)*k/n
		patches := make([]int, 0, hi-lo)
		for p := lo; p < hi; p++ {
			patches = append(patches, p)
		}
		succ := make([]string, 0, len(order))
		succ = append(succ, order[i])
		for j := 1; j < len(order); j++ {
			succ = append(succ, order[(i+j)%len(order)])
		}
		out = append(out, assignment{succession: succ, patches: patches})
	}
	return out
}

// runDistributed executes one distributed per-element job: fan the patch
// ranges across shards, fail ranges over to ring successors when a shard
// exhausts its retry budget, merge the surviving partials in ascending
// patch order (bit-identical to a single-process run at full coverage),
// and account honestly for anything lost.
func (co *Coordinator) runDistributed(ctx context.Context, job *Job) {
	job.mu.Lock()
	job.state = server.StateRunning
	job.started = time.Now()
	job.mu.Unlock()

	out, err := co.evalDistributed(ctx, job.Spec)

	job.mu.Lock()
	job.finished = time.Now()
	if err != nil {
		job.state = server.StateFailed
		job.err = err
		if isShardFailure(err) {
			job.errKind = ErrorKindShardFailure
		}
	} else {
		job.state = server.StateDone
		job.solution = out.solution
		job.numPoints = len(out.solution)
		job.counters = out.counters
		job.memOverhd = out.memOverhd
		job.shards = out.shards
		job.coverage = out.coverage
		job.uncovered = out.uncovered
		job.uncovTrunc = out.uncovTrunc
	}
	job.mu.Unlock()
	if err == nil {
		co.jobs.results.Retain(int64(len(out.solution))*8, job.dropSolution)
	}
	close(job.done)
	if co.log != nil {
		co.log.Info("distributed job finished",
			"job", job.ID, "state", string(job.state), "err", err)
	}
}

// isShardFailure reports whether err is rooted in shard loss (retry budget
// exhausted or no shard available) rather than in the request itself.
func isShardFailure(err error) bool {
	var se *ShardError
	return errors.As(err, &se) || errors.Is(err, errNoShards)
}

var errNoShards = errors.New("no shard available")

func (co *Coordinator) evalDistributed(ctx context.Context, spec server.JobSpec) (*distOutcome, error) {
	order := co.routable(spec.MeshID)
	if len(order) == 0 {
		return nil, fmt.Errorf("cluster: no ready shard for mesh %s: %w", spec.MeshID, errNoShards)
	}
	k := spec.Blocks
	asn := splitPatches(order, k)

	type rangeResult struct {
		resp  *server.ShardEvalResponse
		shard string
		a     assignment
		err   error
	}
	results := make([]rangeResult, len(asn))
	var wg sync.WaitGroup
	for i, a := range asn {
		wg.Add(1)
		go func(i int, a assignment) {
			defer wg.Done()
			resp, shard, err := co.evalRange(ctx, a, spec)
			results[i] = rangeResult{resp: resp, shard: shard, a: a, err: err}
		}(i, a)
	}
	wg.Wait()

	var (
		partials      []server.ShardPatchPartial
		failedPatches []int
		shards        []string
		counters      metrics.Counters
		memOverhd     float64
		numPoints     int
		firstErr      error
	)
	shardSet := map[string]bool{}
	for _, r := range results {
		if r.err != nil {
			failedPatches = append(failedPatches, r.a.patches...)
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		partials = append(partials, r.resp.Patches...)
		failedPatches = append(failedPatches, r.resp.Failed...)
		counters.Add(&r.resp.Counters)
		memOverhd = r.resp.MemoryOverhead
		numPoints = r.resp.NumPoints
		if !shardSet[r.shard] {
			shardSet[r.shard] = true
			shards = append(shards, r.shard)
		}
	}
	if len(shards) == 0 {
		// Complete outage is not degradation: there is nothing to merge and
		// no live shard to account coverage against.
		return nil, fmt.Errorf("cluster: every shard range failed: %w", firstErr)
	}
	sort.Ints(failedPatches)
	if len(failedPatches) > 0 && !spec.AllowPartial {
		if firstErr == nil {
			// All shard requests succeeded but units failed inside a shard
			// despite AllowPartial being off: the shard contract forbids this,
			// so treat it as a shard failure.
			firstErr = fmt.Errorf("shard reported failed patches %v without allow_partial", failedPatches)
		}
		return nil, fmt.Errorf("cluster: %d of %d patches lost and job does not allow partial results: %w",
			len(failedPatches), k, firstErr)
	}

	// Merge in ascending patch order: zero-filled full-grid output, each
	// patch buffer added element-slot by element-slot. This is tile.Reduce
	// over the wire — at 100% coverage the result is bit-identical to a
	// single-process per-element run.
	sort.Slice(partials, func(a, b int) bool { return partials[a].Patch < partials[b].Patch })
	solution := make([]float64, numPoints)
	for _, pp := range partials {
		if len(pp.Points) != len(pp.Values) {
			return nil, fmt.Errorf("cluster: malformed partial for patch %d: %d points, %d values",
				pp.Patch, len(pp.Points), len(pp.Values))
		}
		for i, pt := range pp.Points {
			if int(pt) < 0 || int(pt) >= numPoints {
				return nil, fmt.Errorf("cluster: partial for patch %d references point %d outside [0, %d)",
					pp.Patch, pt, numPoints)
			}
			solution[pt] += pp.Values[i]
		}
	}

	out := &distOutcome{
		solution:  solution,
		counters:  counters,
		memOverhd: memOverhd,
		shards:    shards,
	}
	if len(failedPatches) > 0 {
		cov, ids, trunc, err := co.probeCoverage(ctx, shards, spec, k, failedPatches)
		if err != nil {
			return nil, fmt.Errorf("cluster: coverage probe for degraded job failed: %w", err)
		}
		// Zero the uncovered points: their merged sums are incomplete (at
		// least one contributing patch is missing), and a deterministic zero
		// matches the single-process degraded contract — failed units
		// contribute nothing, coverage metadata says exactly which points to
		// distrust.
		for _, pt := range ids {
			solution[pt] = 0
		}
		out.coverage = cov
		out.uncovered = ids
		out.uncovTrunc = trunc
		co.counters.DegradedJobs.Add(1)
	}
	return out, nil
}

// evalRange runs one patch range against its succession: the assignee
// first, then — if the shard exhausts the client's retry budget — up to
// FailoverAttempts ring successors. A 404 re-seeds the mesh from the
// coordinator's retained bytes and retries the same shard once.
func (co *Coordinator) evalRange(ctx context.Context, a assignment, spec server.JobSpec) (*server.ShardEvalResponse, string, error) {
	req := server.ShardEvalRequest{
		MeshID:       spec.MeshID,
		P:            spec.P,
		GridDegree:   spec.GridDegree,
		Boundary:     spec.Boundary,
		Field:        spec.Field,
		K:            spec.Blocks,
		Patches:      a.patches,
		AllowPartial: spec.AllowPartial,
		TimeoutMS:    spec.TimeoutMS,
	}
	tries := 1 + co.failoverAttempts()
	var lastErr error
	for i, shard := range a.succession {
		if i >= tries {
			break
		}
		if i > 0 {
			co.counters.Failovers.Add(1)
		}
		var resp server.ShardEvalResponse
		err := co.shardPost(ctx, shard, "/v1/shard/eval", &req, &resp)
		if err == nil {
			return &resp, shard, nil
		}
		lastErr = err
		var se *ShardError
		if !errors.As(err, &se) {
			// Permanent (4xx, context expiry): failing over cannot help — the
			// request would be equally wrong everywhere.
			return nil, "", err
		}
		if se.Status == 0 {
			// Transport-level exhaustion is strong evidence the process is
			// gone; update the routing table before the next probe tick.
			co.health.MarkDown(shard, se.Err)
		}
	}
	return nil, "", lastErr
}

// shardPost is PostJSON plus the mesh re-seed protocol: a 404 means the
// shard (typically restarted without durable state) does not hold the
// mesh; the coordinator re-uploads its retained bytes and retries once.
func (co *Coordinator) shardPost(ctx context.Context, shard, path string, body, out any) error {
	err := co.client.PostJSON(ctx, shard, path, body, out)
	if err == nil || !IsNotFound(err) {
		return err
	}
	if rerr := co.reseedMesh(ctx, shard); rerr != nil {
		return fmt.Errorf("%w (re-seed failed: %v)", err, rerr)
	}
	return co.client.PostJSON(ctx, shard, path, body, out)
}

// probeCoverage asks a live shard for the uncovered-point set of the
// failed patches. The tiling is deterministic, so any shard — including
// ones that never touched those patches — computes the identical answer;
// preferred candidates are the shards that just served this job (their
// artifacts are warm), falling back to the full routable set.
func (co *Coordinator) probeCoverage(ctx context.Context, preferred []string, spec server.JobSpec, k int, failed []int) (*core.Coverage, []int32, bool, error) {
	req := server.ShardCoverageRequest{
		MeshID:     spec.MeshID,
		P:          spec.P,
		GridDegree: spec.GridDegree,
		Boundary:   spec.Boundary,
		Field:      spec.Field,
		K:          k,
		Failed:     failed,
	}
	candidates := append([]string(nil), preferred...)
	seen := map[string]bool{}
	for _, s := range candidates {
		seen[s] = true
	}
	for _, s := range co.routable(spec.MeshID) {
		if !seen[s] {
			candidates = append(candidates, s)
		}
	}
	var lastErr error
	for _, shard := range candidates {
		co.counters.CoverageProbes.Add(1)
		var resp server.ShardCoverageResponse
		if err := co.shardPost(ctx, shard, "/v1/shard/coverage", &req, &resp); err != nil {
			lastErr = err
			continue
		}
		cov := &core.Coverage{
			FailedUnits:   failed,
			TotalUnits:    k,
			CoveredPoints: resp.CoveredPoints,
			TotalPoints:   resp.TotalPoints,
		}
		return cov, resp.UncoveredIDs, resp.UncoveredTruncated, nil
	}
	return nil, nil, false, lastErr
}
