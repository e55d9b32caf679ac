// Package server implements unstencild, a resident SIAC post-processing
// service over the paper's evaluation schemes. It exists because every
// batch entry point rebuilds meshes, dG fields, SIAC kernel tables and
// spatial grids per invocation and exits; a long-running process that keeps
// those artifacts warm across requests amortises exactly the setup the
// paper's data-reuse argument targets, and gives later scaling work
// (sharding, batching, multi-backend) a substrate to build on.
//
// The HTTP/JSON API (stdlib net/http only):
//
//	POST   /v1/meshes          upload + decode a mesh once; returns its
//	                           content-hash id
//	GET    /v1/meshes/{id}     stats of a resident mesh
//	POST   /v1/jobs            submit a post-processing job (JobSpec)
//	GET    /v1/jobs            list retained jobs
//	GET    /v1/jobs/{id}       job status + exact counters
//	GET    /v1/jobs/{id}/result  post-processed solution array
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	POST   /v1/shard/eval      patch-scoped partial evaluation (cluster
//	                           shard mode; see shard.go)
//	POST   /v1/shard/coverage  uncovered-point set of failed patches
//	GET    /healthz            liveness
//	GET    /readyz             readiness: startup work done, queue below
//	                           saturation (what the coordinator polls)
//	GET    /debug/metrics      queue depth, workers busy, cache hit rate,
//	                           cumulative per-scheme counters
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"unstencil/internal/artifact"
	"unstencil/internal/fault"
	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
)

// Config sizes the service; zero fields take the documented defaults.
type Config struct {
	// Workers is the job worker pool size (default 2).
	Workers int
	// QueueSize bounds the FIFO job queue (default 64); submissions beyond
	// it receive 503.
	QueueSize int
	// CacheBytes bounds the artifact cache (default 256 MiB); finished
	// jobs retain at most ResultBudget(CacheBytes) of solution arrays.
	CacheBytes int64
	// MaxBodyBytes bounds request bodies, mesh uploads included
	// (default 32 MiB).
	MaxBodyBytes int64
	// JobTimeout caps each job's evaluation time (default 5m).
	JobTimeout time.Duration
	// DefaultBlocks is the blocks/patches default for jobs that omit it
	// (default 16).
	DefaultBlocks int
	// EvalWorkers bounds each evaluation's internal concurrency;
	// 0 means GOMAXPROCS.
	EvalWorkers int
	// StateDir, when set, enables crash recovery: accepted jobs are recorded
	// in a fsynced journal and uploaded meshes persisted to disk, and on
	// startup incomplete jobs are re-enqueued. Empty disables durability.
	StateDir string
	// StoreDir roots the persistent artifact store (meshes, assembled
	// operators). Precedence: an explicit StoreDir wins; otherwise, with
	// StateDir set, the store lives at <StateDir>/store so journal replay
	// re-uses disk-resident artifacts; with neither set there is no disk
	// tier. StoreDir alone enables artifact persistence without journaling.
	StoreDir string
	// StageTimeout caps each pipeline stage (artifact build, evaluation)
	// separately; 0 means the job timeout.
	StageTimeout time.Duration
	// Retry shapes unit- and job-level retry of transient failures
	// (zero value: no retry).
	Retry RetryPolicy
	// Log receives structured request and job logs; nil disables logging.
	Log *slog.Logger
}

func (c *Config) defaults() {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.DefaultBlocks <= 0 {
		c.DefaultBlocks = 16
	}
}

// Server is the unstencild HTTP handler plus its resident state.
type Server struct {
	cfg      Config
	arts     *Artifacts
	mgr      *Manager
	journal  *Journal
	faults   *metrics.FaultCounters
	storeCtr metrics.StoreCounters
	log      *slog.Logger
	start    time.Time
	handler  http.Handler
	// ready flips once startup work (journal replay, artifact-store GC) has
	// completed; /readyz additionally requires the job queue to be below
	// saturation. Distinct from /healthz liveness, which is true the moment
	// the process serves HTTP.
	ready atomic.Bool
}

// New assembles the artifact cache, job manager and routes. With
// cfg.StateDir set it also opens the durable mesh store and the job journal,
// and re-enqueues jobs that were accepted but unfinished when the previous
// process died.
func New(cfg Config) (*Server, error) {
	cfg.defaults()
	s := &Server{
		cfg:    cfg,
		arts:   NewArtifacts(NewCache(cfg.CacheBytes), cfg.EvalWorkers),
		faults: &metrics.FaultCounters{},
		log:    cfg.Log,
		start:  time.Now(),
	}
	s.arts.SetLog(cfg.Log)
	storeDir := cfg.StoreDir
	if storeDir == "" && cfg.StateDir != "" {
		storeDir = filepath.Join(cfg.StateDir, "store")
	}
	if storeDir != "" {
		store, err := artifact.NewStore(storeDir, &s.storeCtr)
		if err != nil {
			return nil, err
		}
		s.arts.SetStore(store)
	}
	var pending []PendingJob
	if cfg.StateDir != "" {
		var err error
		s.journal, pending, err = OpenJournal(cfg.StateDir)
		if err != nil {
			return nil, err
		}
	}
	s.mgr = NewManager(s.arts, cfg.Log, ManagerConfig{
		Workers:      cfg.Workers,
		QueueSize:    cfg.QueueSize,
		JobTimeout:   cfg.JobTimeout,
		StageTimeout: cfg.StageTimeout,
		DefaultBlock: cfg.DefaultBlocks,
		Retry:        cfg.Retry,
		Journal:      s.journal,
		Faults:       s.faults,
	})
	s.mgr.Replay(pending)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/meshes", s.handleMeshUpload)
	mux.HandleFunc("GET /v1/meshes/{id}", s.handleMeshGet)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("POST /v1/shard/eval", s.handleShardEval)
	mux.HandleFunc("POST /v1/shard/coverage", s.handleShardCoverage)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/metrics", s.handleMetrics)
	s.handler = s.withLogging(s.withRecovery(mux))
	// Startup work — journal replay and artifact-store GC — happens
	// synchronously above, so by this point the process is ready modulo
	// queue saturation, which handleReadyz re-checks per request.
	s.ready.Store(true)
	return s, nil
}

// Close releases durable-state resources (the journal file). It does not
// stop the job manager; call Manager().Shutdown first.
func (s *Server) Close() error {
	if s.journal != nil {
		return s.journal.Close()
	}
	return nil
}

// Faults exposes the shared recovery counters (metrics endpoint, tests).
func (s *Server) Faults() *metrics.FaultCounters { return s.faults }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	s.handler.ServeHTTP(w, r)
}

// Manager exposes the job manager (shutdown, tests).
func (s *Server) Manager() *Manager { return s.mgr }

// Artifacts exposes the artifact cache façade (tests, embedding servers).
func (s *Server) Artifacts() *Artifacts { return s.arts }

// statusRecorder captures the response code for the request log and whether
// the response has started (the recovery middleware can only substitute a
// 500 before the first write).
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.wrote = true
		if r.status == 0 {
			r.status = http.StatusOK
		}
	}
	return r.ResponseWriter.Write(b)
}

// withRecovery converts a handler panic into a 500 JSON error instead of
// killing the connection (and, under net/http, only the goroutine — but a
// panicking handler still drops the response on the floor). It sits inside
// withLogging so the request log records the 500. http.ErrAbortHandler is
// re-panicked: it is the sanctioned way to abort a response.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.faults.PanicsRecovered.Add(1)
			if s.log != nil {
				s.log.Error("handler panic recovered",
					"method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(v), "stack", string(debug.Stack()))
			}
			// If the handler already started the response we cannot change
			// the status; otherwise surface a JSON 500.
			if !rec.wrote {
				writeError(w, http.StatusInternalServerError, "internal error: %v", v)
			}
		}()
		// The injection site covers the whole request path: in panic mode it
		// exercises this very middleware, in error mode it simulates a
		// handler failing before writing a response.
		if err := fault.Inject(SiteHandler); err != nil {
			panic(err)
		}
		next.ServeHTTP(rec, r)
	})
}

func (s *Server) withLogging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.log == nil {
			next.ServeHTTP(w, r)
			return
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		s.log.Info("request",
			"method", r.Method, "path", r.URL.Path, "status", rec.status,
			"duration", time.Since(start), "remote", r.RemoteAddr)
	})
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleMeshUpload(w http.ResponseWriter, r *http.Request) {
	m, err := mesh.Decode(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"mesh exceeds the %d-byte upload limit", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := s.arts.PutMesh(m)
	if err != nil && s.log != nil {
		// The mesh is resident in memory; losing the durable copy only
		// weakens crash recovery, so serve degraded rather than reject.
		s.log.Warn("mesh not persisted; jobs on it will not survive a restart",
			"mesh", id, "err", err)
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"mesh_id":   id,
		"num_tris":  m.NumTris(),
		"num_verts": m.NumVerts(),
	})
}

func (s *Server) handleMeshGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, ok := s.arts.Mesh(id)
	if !ok {
		writeError(w, http.StatusNotFound, "mesh %q not resident", id)
		return
	}
	st := m.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"mesh_id":      id,
		"num_tris":     st.NumTris,
		"num_verts":    st.NumVerts,
		"longest_edge": st.MaxEdge,
		"edge_cv":      st.CV,
		"min_angle":    st.MinAngleDeg,
		"total_area":   st.TotalArea,
	})
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	job, err := s.mgr.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, job.Status())
	case errors.Is(err, ErrQueueFull):
		// Retry-After is derived from the observed job service time and the
		// live queue depth, so a saturated server tells clients how long a
		// slot actually takes to free instead of a hardcoded guess.
		w.Header().Set("Retry-After", strconv.Itoa(s.mgr.RetryAfterSeconds()))
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrMeshNotFound):
		writeError(w, http.StatusNotFound, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.Jobs()})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found", r.PathValue("id"))
		return
	}
	res, ok := job.Result()
	if !ok {
		st := job.Status()
		if st.Evicted {
			writeError(w, http.StatusGone, "job %s result was evicted to bound retained results (%d points); resubmit the job",
				job.ID, st.NumPoints)
			return
		}
		if st.State == StateFailed {
			writeError(w, http.StatusConflict, "job %s failed: %s", job.ID, st.Error)
			return
		}
		writeError(w, http.StatusConflict, "job %s is %s; result not ready", job.ID, st.State)
		return
	}
	body := map[string]any{
		"job_id":          job.ID,
		"scheme":          res.Scheme.String(),
		"num_points":      len(res.Solution),
		"memory_overhead": res.MemoryOverhead,
		"solution":        res.Solution,
	}
	if len(res.Solutions) > 0 {
		// Multi-field batched apply: one solution per requested field, in
		// order; "solution" stays the first field for compatibility.
		body["fields"] = job.Spec.Fields
		body["solutions"] = res.Solutions
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.mgr.Cancel(id); err != nil {
		if _, ok := s.mgr.Job(id); !ok {
			writeError(w, http.StatusNotFound, "%v", err)
		} else {
			writeError(w, http.StatusConflict, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"job_id": id, "cancelled": true})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": float64(time.Since(s.start)) / float64(time.Millisecond),
	})
}

// readiness reports whether the service should receive traffic: startup
// work (journal replay, artifact-store GC) done and the job queue below
// saturation. A full queue is honest back-pressure — the coordinator's
// health checker treats it as "alive but do not route new work here".
func readiness(started bool, depth, capacity int) (bool, string) {
	switch {
	case !started:
		return false, "startup (journal replay, store GC) in progress"
	case depth >= capacity:
		return false, fmt.Sprintf("job queue saturated (%d/%d)", depth, capacity)
	default:
		return true, ""
	}
}

// handleReadyz serves GET /readyz, the readiness probe the cluster
// coordinator consumes. Unlike /healthz (liveness: the process answers),
// readiness also demands that replayed state is loaded and the queue can
// absorb a submission; 503 means "up, but route elsewhere for now".
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	depth, capacity := s.mgr.QueueDepth(), s.mgr.QueueCapacity()
	ready, reason := readiness(s.ready.Load(), depth, capacity)
	body := map[string]any{
		"ready":          ready,
		"started":        s.ready.Load(),
		"queue_depth":    depth,
		"queue_capacity": capacity,
	}
	if reason != "" {
		body["reason"] = reason
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(s.mgr.RetryAfterSeconds()))
	}
	writeJSON(w, status, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cache := s.arts.Stats()
	retained, evicted := s.mgr.RetainedResults()
	body := map[string]any{
		"uptime_ms":      float64(time.Since(s.start)) / float64(time.Millisecond),
		"queue_depth":    s.mgr.QueueDepth(),
		"queue_capacity": s.mgr.QueueCapacity(),
		"workers":        s.mgr.Workers(),
		"workers_busy":   s.mgr.Busy(),
		"jobs":           s.mgr.StateCounts(),
		// Finished jobs' solution arrays, bounded by ResultBudget; evicted
		// results answer 410 on their result endpoint.
		"retained_result_bytes": retained,
		"results_evicted":       evicted,
		"cache":                 cache,
		"cache_hit_rate":        cache.HitRate(),
		// Per-class residency: the "op"/"qop" rows are the assembled-operator
		// LRU accounting (resident bytes, cumulative evictions).
		"cache_classes": s.arts.cache.StatsByClass(),
		"schemes":       s.mgr.Totals(),
		"faults":        s.faults.Snapshot(),
		// Assembled-operator traffic: batched vs single applies, template
		// dedup hit-rate and resident bytes saved across admitted operators.
		"operator": s.arts.Ops().Snapshot(),
	}
	if st := s.arts.Store(); st != nil {
		body["store"] = st.Counters().Snapshot()
		body["store_dir"] = st.Dir()
	}
	if fault.Enabled() {
		body["fault_injection"] = fault.Stats()
	}
	writeJSON(w, http.StatusOK, body)
}
