package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"unstencil/internal/server"
)

// bench is the state one run shares across its workload, load generator and
// tracer.
type bench struct {
	opts   options
	work   string // scratch directory for artifact stores, removed at exit
	client *http.Client
	gate   gate
}

func newBench(o options, work string) *bench {
	// At most two client connections: the load generator has at most two
	// requests in flight on this two-CPU class of host.
	tr := &http.Transport{
		MaxIdleConnsPerHost: 2,
		MaxConnsPerHost:     2,
		DisableCompression:  true,
	}
	return &bench{opts: o, work: work, client: &http.Client{Transport: tr}}
}

func (b *bench) close() { b.client.CloseIdleConnections() }

// gate collects correctness failures; any failure fails the run.
type gate struct {
	mu    sync.Mutex
	fails []string
}

func (g *gate) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	g.mu.Lock()
	g.fails = append(g.fails, err.Error())
	g.mu.Unlock()
	return err
}

func (g *gate) ok() bool { return g.count() == 0 }

func (g *gate) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.fails)
}

// reqRecord is one request as the load generator saw it.
type reqRecord struct {
	id    int
	due   time.Time // when it should have been sent (open loop); == start otherwise
	start time.Time
	end   time.Time // result body fully received
	// Server-side job timestamps (zero for synchronous queries).
	created, started, finished time.Time
	// serverRun is the server's evaluation span: started→finished for jobs,
	// the reported wall_ms for queries.
	serverRun   time.Duration
	polls       int
	resultBytes int
	err         error
	span        int // request span id when traced
}

// call issues one HTTP request, reads the whole body, records an http span
// under rec when traced, and decodes the body into out when the status is
// want. It returns the time the body was fully received.
func (b *bench) call(ctx context.Context, tr *tracer, rec *reqRecord, name, method, url string, body []byte, want int, out any) (time.Time, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return time.Time{}, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		return time.Time{}, 0, fmt.Errorf("%s: %w", name, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if rec != nil {
		tr.add(span{Parent: rec.span, Req: rec.id, Name: name, Layer: layerHTTP, Start: start, End: end})
	}
	if err != nil {
		return end, 0, fmt.Errorf("%s: reading body: %w", name, err)
	}
	if resp.StatusCode != want {
		return end, len(raw), fmt.Errorf("%s: status %d: %.200s", name, resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return end, len(raw), fmt.Errorf("%s: decoding body: %w", name, err)
		}
	}
	return end, len(raw), nil
}

// jobStatus is the subset of a job status (server.JobStatus or the
// coordinator's JobView) the benchmark reads.
type jobStatus struct {
	ID         string     `json:"id"`
	State      string     `json:"state"`
	Error      string     `json:"error"`
	CacheHits  []string   `json:"cache_hits"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at"`
	FinishedAt *time.Time `json:"finished_at"`
}

// runJob submits spec to base, polls its status every pollInterval until it
// is terminal, and fetches the result into out. It fills rec's server
// timestamps, poll count, result size and end time, and returns the
// artifacts the job found warm.
func (b *bench) runJob(ctx context.Context, tr *tracer, rec *reqRecord, base string, spec server.JobSpec, out any) ([]string, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var st jobStatus
	if _, _, err := b.call(ctx, tr, rec, "POST /v1/jobs", http.MethodPost, base+"/v1/jobs", raw, http.StatusAccepted, &st); err != nil {
		return nil, err
	}
	id := st.ID
	for st.State != string(server.StateDone) {
		if st.State == string(server.StateFailed) {
			return nil, fmt.Errorf("job %s failed: %s", id, st.Error)
		}
		t := time.NewTimer(pollInterval)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
		rec.polls++
		if _, _, err := b.call(ctx, tr, rec, "GET /v1/jobs/{id}", http.MethodGet, base+"/v1/jobs/"+id, nil, http.StatusOK, &st); err != nil {
			return nil, err
		}
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		return nil, fmt.Errorf("job %s done without start/finish timestamps", id)
	}
	rec.created, rec.started, rec.finished = st.CreatedAt, *st.StartedAt, *st.FinishedAt
	rec.serverRun = rec.finished.Sub(rec.started)
	end, n, err := b.call(ctx, tr, rec, "GET /v1/jobs/{id}/result", http.MethodGet, base+"/v1/jobs/"+id+"/result", nil, http.StatusOK, out)
	rec.end, rec.resultBytes = end, n
	return st.CacheHits, err
}

// endpoint serves a swappable handler on a loopback listener, so a server
// can be restarted behind the same address the way a process restart keeps
// its port.
type endpoint struct {
	url     string
	hs      *http.Server
	handler atomic.Pointer[handlerBox]
	done    chan struct{}
}

type handlerBox struct{ h http.Handler }

func listen(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	e.handler.Store(&handlerBox{h})
	e.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		e.handler.Load().h.ServeHTTP(w, r)
	})}
	go func() {
		defer close(e.done)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return e, nil
}

func (e *endpoint) swap(h http.Handler) { e.handler.Store(&handlerBox{h}) }

// close stops the listener and waits for the serving goroutine.
func (e *endpoint) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		e.hs.Close()
	}
	<-e.done
}

// newServer builds one in-process unstencild.
func newServer(storeDir string) (*server.Server, error) {
	return server.New(server.Config{StoreDir: storeDir})
}

// stopServer drains the server's job manager and releases its resources.
func stopServer(s *server.Server) {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Manager().Shutdown(ctx) // on timeout in-flight jobs are cancelled; nothing to report
	_ = s.Close()
}

// cacheCounts reads the artifact-cache hit and miss counters from a
// server's /debug/metrics.
func (b *bench) cacheCounts(base string) (hits, misses uint64, err error) {
	var m struct {
		Cache server.CacheStats `json:"cache"`
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if _, _, err := b.call(ctx, nil, nil, "GET /debug/metrics", http.MethodGet, base+"/debug/metrics", nil, http.StatusOK, &m); err != nil {
		return 0, 0, err
	}
	return m.Cache.Hits, m.Cache.Misses, nil
}

var errMismatch = errors.New("answer mismatch")
