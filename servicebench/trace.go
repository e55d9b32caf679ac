package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Span layers of the request path. Replay spans carry the module name of
// the layer whose public function they time (mesh, dg, core, tile,
// operator, artifact, server, cluster).
const (
	layerClient = "client"
	layerHTTP   = "http"
	layerServer = "server"
)

// span is one timed interval. Spans of one request share Req; Parent is the
// id of the span that caused it (0 for a root).
type span struct {
	ID     int
	Parent int
	Req    int
	Name   string
	Layer  string
	Start  time.Time
	End    time.Time
}

// tracer keeps spans in memory; write dumps them when the run ends. A nil
// tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // spans[i].ID == i+1
}

// reserve allocates a span id before the span's end is known.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1})
	return len(t.spans)
}

// set fills a reserved span.
func (t *tracer) set(id int, s span) {
	s.ID = id
	t.mu.Lock()
	t.spans[id-1] = s
	t.mu.Unlock()
}

// add records a finished span and returns its id.
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	id := t.reserve()
	t.set(id, s)
	return id
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// addServerSpans synthesises the server-side spans of a job from the
// created/started/finished timestamps its status reported.
func (t *tracer) addServerSpans(rec *reqRecord) {
	if rec.created.IsZero() {
		return
	}
	t.add(span{Parent: rec.span, Req: rec.id, Name: "server.queue_wait", Layer: layerServer, Start: rec.created, End: rec.started})
	t.add(span{Parent: rec.span, Req: rec.id, Name: "server.run", Layer: layerServer, Start: rec.started, End: rec.finished})
}

// pathShare is the exclusive decomposition of the request path: each
// instant of a request belongs to the innermost thing it was waiting on —
// the server's job run, else its queue, else an HTTP exchange, else the
// client itself. Polls overlapping the run therefore count once.
type pathShare struct {
	client, http, queue, run float64 // mean ms per request
}

func (t *tracer) pathShares(p *phase) pathShare {
	byReq := map[int][]span{}
	for _, s := range t.snapshot() {
		if s.Name != "request" {
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	prio := func(s span) int {
		switch s.Name {
		case "server.run":
			return 3
		case "server.queue_wait":
			return 2
		}
		if s.Layer == layerHTTP {
			return 1
		}
		return 0
	}
	var sum pathShare
	n := 0
	for _, r := range p.recs {
		if r.err != nil {
			continue
		}
		n++
		spans := byReq[r.id]
		cuts := []time.Time{r.due, r.end}
		for _, s := range spans {
			cuts = append(cuts, s.Start, s.End)
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
		var acc [4]float64
		for i := 0; i+1 < len(cuts); i++ {
			a, b := cuts[i], cuts[i+1]
			if !a.Before(b) || a.Before(r.due) || b.After(r.end) {
				continue
			}
			best := 0
			for _, s := range spans {
				if !s.Start.After(a) && !s.End.Before(b) {
					best = max(best, prio(s))
				}
			}
			acc[best] += ms(b.Sub(a))
		}
		// Queries run synchronously inside their HTTP exchange; the server
		// reports the evaluation's wall time, which moves from http to run.
		if r.created.IsZero() && r.serverRun > 0 {
			d := min(ms(r.serverRun), acc[1])
			acc[1] -= d
			acc[3] += d
		}
		sum.client += acc[0]
		sum.http += acc[1]
		sum.queue += acc[2]
		sum.run += acc[3]
	}
	if n > 0 {
		f := 1 / float64(n)
		sum = pathShare{sum.client * f, sum.http * f, sum.queue * f, sum.run * f}
	}
	return sum
}

// layerSelf is one row of the self-time table.
type layerSelf struct {
	Layer string  `json:"layer"`
	MS    float64 `json:"ms_per_request"`
	Note  string  `json:"note,omitempty"`
}

// selfLayers lists the rows of the self-time table in print order.
var selfLayers = []string{"client", "server", "cluster", "mesh", "dg", "core", "tile", "operator", "artifact"}

// selfTimes splits the mean request latency into self time per layer. The
// stages a workload's requests run (onPath) are timed by the replay; what
// the request spent beyond them in the HTTP exchanges, the queue and the
// job run is the server's (HTTP, JSON, queue, job bookkeeping, poll
// delay), and what it spent outside any exchange is the client's.
func selfTimes(tr *tracer, p *phase, lr *layerRun, onPath []string) []layerSelf {
	ps := tr.pathShares(p)
	self := map[string]float64{layerClient: ps.client}
	staged := 0.0
	for _, name := range onPath {
		st, ok := lr.stages[name]
		if !ok {
			continue
		}
		v := st.perRequest()
		self[st.layer] += v
		staged += v
	}
	self[layerServer] += max(0, ps.http+ps.queue+ps.run-staged)
	out := make([]layerSelf, 0, len(selfLayers))
	for _, l := range selfLayers {
		row := layerSelf{Layer: l, MS: self[l]}
		if _, ok := self[l]; !ok {
			row.Note = "not on this workload's request path"
		}
		out = append(out, row)
	}
	return out
}

func printSelfTimes(out io.Writer, rows []layerSelf, lr *layerRun, onPath []string, p50 float64) {
	share := func(v float64) float64 {
		if p50 <= 0 {
			return 0
		}
		return 100 * v / p50
	}
	fmt.Fprintf(out, "== self time per layer (mean ms per request; share of untraced latency_p50_ms %.4g ms)\n", p50)
	for _, r := range rows {
		fmt.Fprintf(out, "  %-10s %10.4g ms  %6.1f%%  %s\n", r.Layer, r.MS, share(r.MS), r.Note)
	}
	fmt.Fprintln(out, "== replayed stages on the request path (share of untraced latency_p50_ms)")
	total := 0.0
	for _, name := range onPath {
		if st, ok := lr.stages[name]; ok {
			v := st.perRequest()
			total += v
			fmt.Fprintf(out, "  %-22s %10.4g ms  %6.1f%%\n", name, v, share(v))
		}
	}
	fmt.Fprintf(out, "  %-22s %10.4g ms  %6.1f%%\n", "total", total, share(total))
}

// write dumps the spans, relative to the tracer's start, with the run
// metadata and the self-time table.
func (t *tracer) write(path string, meta runMeta, self []layerSelf) error {
	type jspan struct {
		ID      int     `json:"id"`
		Parent  int     `json:"parent"`
		Req     int     `json:"req"`
		Name    string  `json:"name"`
		Layer   string  `json:"layer"`
		StartUS float64 `json:"start_us"`
		EndUS   float64 `json:"end_us"`
	}
	t.mu.Lock()
	spans := make([]jspan, len(t.spans))
	for i, s := range t.spans {
		spans[i] = jspan{s.ID, s.Parent, s.Req, s.Name, s.Layer,
			float64(s.Start.Sub(t.t0).Nanoseconds()) / 1e3, float64(s.End.Sub(t.t0).Nanoseconds()) / 1e3}
	}
	t.mu.Unlock()
	raw, err := json.Marshal(map[string]any{"meta": meta, "self_times": self, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
