package main

import (
	"context"
	"net/http"

	"unstencil/internal/cluster"
	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
	"unstencil/internal/server"
)

// clusterDirect is the paper's per-element scheme over the overlapped
// tiling, served by a coordinator over two shards: one client, closed
// loop, each request a per-element job (one-point grid, as the paper-figure
// harness uses) on a graded high-variance mesh of ≈1k triangles at P1. It
// is the only workload that reaches tile reduction and the cluster fan-out
// and merge; the graded mesh makes the slower shard set the time.
type clusterDirect struct {
	seed   int64
	field  string
	body   []byte
	id     string
	ref    []float64
	ans    answers
	dir    string
	shards []*single
	co     *cluster.Coordinator
	coEP   *endpoint
	last   *jobResult
}

const (
	clusterTris    = 1000
	clusterGrading = 8
	clusterP       = 1
	clusterGrid    = -1 // one-point evaluation grid
	clusterBlocks  = 16
	clusterShards  = 2
)

func (w *clusterDirect) loop() loopSpec { return loopSpec{clients: 1} }

func (w *clusterDirect) prepare(b *bench) error {
	w.seed = b.opts.seed
	var err error
	if w.dir, err = workDir(b, "cluster-direct"); err != nil {
		return err
	}
	m, err := mesh.SizedHighVariance(clusterTris, clusterGrading, meshSeed)
	if err != nil {
		return err
	}
	if w.body, err = encodeMesh(m); err != nil {
		return err
	}
	w.id = m.ContentHash()
	w.field = pickFields(rngFor(w.seed, 5), 1)[0]
	ev, err := core.NewEvaluator(dg.Project(m, clusterP, server.FieldFuncs[w.field], 4),
		core.Options{P: clusterP, GridDegree: clusterGrid, Boundary: core.Periodic})
	if err != nil {
		return err
	}
	res, err := ev.RunPerElement(ev.NewTiling(clusterBlocks))
	if err != nil {
		return err
	}
	w.ref = perturbed(res.Solution, b.opts.perturb)
	return nil
}

// setUp starts the shards and the coordinator, uploads the mesh through the
// coordinator and runs the first job (evaluator and tiling builds on every
// shard).
func (w *clusterDirect) setUp(b *bench) error {
	urls := make([]string, 0, clusterShards)
	for i := 0; i < clusterShards; i++ {
		s, err := startSingle(w.dir)
		if err != nil {
			return err
		}
		w.shards = append(w.shards, s)
		urls = append(urls, s.ep.url)
	}
	co, err := cluster.New(cluster.Config{Shards: urls})
	if err != nil {
		return err
	}
	co.Start()
	w.co = co
	if w.coEP, err = listen(co); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if err := b.uploadMesh(ctx, nil, nil, w.coEP.url, w.body, w.id); err != nil {
		return err
	}
	return w.request(ctx, b, nil, &reqRecord{id: -1})
}

func (w *clusterDirect) tearDown() {
	if w.coEP != nil {
		w.coEP.close()
		w.coEP = nil
	}
	if w.co != nil {
		w.co.Close()
		w.co = nil
	}
	for _, s := range w.shards {
		s.stop()
	}
	w.shards = nil
}

func (w *clusterDirect) request(ctx context.Context, b *bench, tr *tracer, rec *reqRecord) error {
	spec := server.JobSpec{MeshID: w.id, Scheme: "per-element", P: clusterP, GridDegree: clusterGrid,
		Blocks: clusterBlocks, Field: w.field}
	var out jobResult
	if _, err := b.runJob(ctx, tr, rec, w.coEP.url, spec, &out); err != nil {
		return err
	}
	if err := w.ans.check(&b.gate, "per-element", out.Solution, w.ref, bitwise); err != nil {
		return err
	}
	w.last = &out
	return nil
}

func (w *clusterDirect) cacheCounts(b *bench) (uint64, uint64, error) {
	var hits, misses uint64
	for _, s := range w.shards {
		h, m, err := b.cacheCounts(s.ep.url)
		if err != nil {
			return 0, 0, err
		}
		hits += h
		misses += m
	}
	return hits, misses, nil
}

func (w *clusterDirect) replay(b *bench, lr *layerRun) error {
	err := lr.replaySuite(replayInput{
		req:        0,
		meshBody:   w.body,
		p:          clusterP,
		gridDegree: clusterGrid,
		boundary:   core.Periodic,
		field:      w.field,
		fields:     pickFields(rngFor(w.seed, 3), 8),
		points:     randomPoints(rngFor(w.seed, 1), 512),
		blocks:     clusterBlocks,
		body:       w.last,
	})
	if err != nil {
		return err
	}
	// The coordinator's share: its job span minus the same job's
	// single-process per-element time.
	var spans []float64
	for _, s := range lr.tr.snapshot() {
		if s.Name == "server.run" {
			spans = append(spans, ms(s.End.Sub(s.Start)))
		}
	}
	overhead := median(spans) - lr.stageMS("core.per_element")
	lr.setStage("cluster.overhead", "cluster", 0, overhead)

	var m struct {
		Cluster metrics.ClusterSnapshot `json:"cluster"`
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if _, _, err := b.call(ctx, nil, nil, "GET /debug/metrics", http.MethodGet, w.coEP.url+"/debug/metrics", nil, http.StatusOK, &m); err != nil {
		return err
	}
	jobs := float64(max(m.Cluster.JobsDistributed, 1))
	lr.set("cluster.shard_requests_per_job", float64(m.Cluster.ShardRequests)/jobs, "count")
	lr.set("cluster.retries", float64(m.Cluster.Retries), "count")
	lr.set("cluster.failovers", float64(m.Cluster.Failovers), "count")
	return nil
}

func (w *clusterDirect) onPath() []string {
	return []string{"core.per_element", "cluster.overhead", "server.encode"}
}
