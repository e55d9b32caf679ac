package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/server"
)

// probeQuery is independent visualisation and streamline users: an open
// loop at a fixed arrival rate, at most two requests in flight, each a
// POST /v1/query of 512 random points on a low-variance Delaunay mesh of
// ≈4k triangles at P1, evaluated by the direct EvalBatch path. It loads the
// per-point search, clip and integrate of core and the server's JSON
// decoding, with no operator at all.
type probeQuery struct {
	seed    int64
	field   string
	m       *mesh.Mesh
	body    []byte
	id      string
	batches [][]geom.Point
	reqs    [][]byte    // encoded query body per batch
	refs    [][]float64 // EvalAt answer per batch
	ans     answers
	svc     *single
	dir     string
	mu      sync.Mutex
	last    *queryResult
}

const (
	queryTris    = 4000
	queryP       = 1
	queryPoints  = 512
	queryBatches = 8
	// queryRate is the offered load: about 45% of the two-client
	// closed-loop capacity (22.8 queries/s) measured on a 2-CPU x86-64
	// host, so requests sometimes overlap and queue. At 60% the queueing
	// amplified that host's ±10% CPU-speed drift into a 16% run-to-run
	// spread of the median. It is fixed, never adapted at run time.
	queryRate    = 10.0
	queryClients = 2
)

func (w *probeQuery) loop() loopSpec { return loopSpec{clients: queryClients, rate: queryRate} }

func (w *probeQuery) prepare(b *bench) error {
	w.seed = b.opts.seed
	var err error
	if w.dir, err = workDir(b, "probe-query"); err != nil {
		return err
	}
	if w.m, err = mesh.SizedLowVariance(queryTris, meshSeed); err != nil {
		return err
	}
	if w.body, err = encodeMesh(w.m); err != nil {
		return err
	}
	w.id = w.m.ContentHash()
	rng := rngFor(w.seed, 4)
	w.field = pickFields(rng, 1)[0]
	ev, err := core.NewEvaluator(dg.Project(w.m, queryP, server.FieldFuncs[w.field], 4),
		core.Options{P: queryP, Boundary: core.Periodic})
	if err != nil {
		return err
	}
	for i := 0; i < queryBatches; i++ {
		pts := randomPoints(rng, queryPoints)
		req := server.QueryRequest{MeshID: w.id, P: queryP, Field: w.field, Points: make([][2]float64, len(pts))}
		ref := make([]float64, len(pts))
		for j, p := range pts {
			req.Points[j] = [2]float64{p.X, p.Y}
			if ref[j], err = ev.EvalAt(p); err != nil {
				return err
			}
		}
		raw, err := json.Marshal(req)
		if err != nil {
			return err
		}
		w.batches = append(w.batches, pts)
		w.reqs = append(w.reqs, raw)
		w.refs = append(w.refs, ref)
	}
	perturbed(w.refs[0], b.opts.perturb)
	return nil
}

// setUp starts the server, uploads the mesh and runs the first query (the
// evaluator build).
func (w *probeQuery) setUp(b *bench) error {
	var err error
	if w.svc, err = startSingle(w.dir); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if err := b.uploadMesh(ctx, nil, nil, w.svc.ep.url, w.body, w.id); err != nil {
		return err
	}
	return w.request(ctx, b, nil, &reqRecord{id: 0, start: time.Now()})
}

func (w *probeQuery) tearDown() {
	w.svc.stop()
	w.svc = nil
}

func (w *probeQuery) request(ctx context.Context, b *bench, tr *tracer, rec *reqRecord) error {
	k := rec.id % queryBatches
	var out queryResult
	end, n, err := b.call(ctx, tr, rec, "POST /v1/query", http.MethodPost, w.svc.ep.url+"/v1/query", w.reqs[k], http.StatusOK, &out)
	rec.end, rec.resultBytes = end, n
	if err != nil {
		return err
	}
	rec.serverRun = time.Duration(out.WallMS * float64(time.Millisecond))
	if err := w.ans.check(&b.gate, fmt.Sprintf("batch %d", k), out.Values, w.refs[k], bitwise); err != nil {
		return err
	}
	w.mu.Lock()
	w.last = &out
	w.mu.Unlock()
	return nil
}

func (w *probeQuery) cacheCounts(b *bench) (uint64, uint64, error) {
	return b.cacheCounts(w.svc.ep.url)
}

func (w *probeQuery) replay(b *bench, lr *layerRun) error {
	return lr.replaySuite(replayInput{
		req:      0,
		meshBody: w.body,
		p:        queryP,
		boundary: core.Periodic,
		field:    w.field,
		fields:   pickFields(rngFor(w.seed, 3), 8),
		points:   w.batches[0],
		blocks:   16,
		body:     w.last,
	})
}

func (w *probeQuery) onPath() []string { return []string{"core.evalbatch", "server.encode"} }
