package main

import (
	"context"
	"time"

	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/mesh"
	"unstencil/internal/server"
)

// coldMesh is a user bringing a new mesh: one client, closed loop, each
// request uploading a mesh to a server with cold memory, disk and signature
// caches and running an operator job on it. Requests cycle through three
// mesh classes in a seeded order, so the median stays inside one class
// instead of on a class boundary. It loads assembly (probe, signature,
// integrate, stamp), the evaluator build and the artifact write-through:
// the write side of the operator layer.
type coldMesh struct {
	seed    int64
	classes []*coldClass
	order   []int // class of request i is classes[order[i%3]]
	ans     answers
	svc     *single
	dir     string
	// Cache counters of servers already replaced.
	retiredHits, retiredMisses uint64
	last                       map[string]*jobResult
}

// coldClass is one mesh class of the cycle.
type coldClass struct {
	name     string
	m        *mesh.Mesh
	body     []byte
	id       string
	boundary core.Boundary
	field    string
	ref      []float64
}

const coldP = 1

func (w *coldMesh) loop() loopSpec { return loopSpec{clients: 1} }

func (w *coldMesh) prepare(b *bench) error {
	w.seed = b.opts.seed
	var err error
	if w.dir, err = workDir(b, "cold-mesh"); err != nil {
		return err
	}
	rng := rngFor(w.seed, 2)
	fields := pickFields(rng, 3)
	w.classes = []*coldClass{
		// ≈110 ms: the smallest class, one-sided kernels at the boundary.
		{name: "structured16-onesided", m: mesh.Structured(16), boundary: core.OneSided, field: fields[0]},
		// ≈300 ms: congruence-first assembly stamps most rows.
		{name: "structured32-periodic", m: mesh.Structured(32), boundary: core.Periodic, field: fields[1]},
		// ≈410 ms: the probe finds no repetition and assembly integrates
		// every row.
		{name: "jittered16-periodic", m: mesh.JitteredStructured(16, 0.3, meshSeed), boundary: core.Periodic, field: fields[2]},
	}
	w.order = rng.Perm(len(w.classes))
	w.last = map[string]*jobResult{}
	for _, c := range w.classes {
		if c.body, err = encodeMesh(c.m); err != nil {
			return err
		}
		c.id = c.m.ContentHash()
		ev, err := core.NewEvaluator(dg.Project(c.m, coldP, server.FieldFuncs[c.field], 4),
			core.Options{P: coldP, Boundary: c.boundary})
		if err != nil {
			return err
		}
		res, err := ev.RunPerPoint(16)
		if err != nil {
			return err
		}
		c.ref = res.Solution
	}
	perturbed(w.classes[0].ref, b.opts.perturb)
	return nil
}

func (w *coldMesh) classOf(i int) *coldClass {
	if i < 0 {
		return w.classes[-i-1]
	}
	return w.classes[w.order[i%len(w.order)]]
}

// setUp starts the server and runs one request of every class, in a fixed
// order so the set-up time does not depend on the seed.
func (w *coldMesh) setUp(b *bench) error {
	var err error
	if w.svc, err = startSingle(w.dir); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	for i := range w.classes {
		if err := w.request(ctx, b, nil, &reqRecord{id: -i - 1}); err != nil {
			return err
		}
	}
	return nil
}

func (w *coldMesh) tearDown() {
	w.svc.stop()
	w.svc = nil
}

// request replaces the server with a fresh one on an empty store (not
// timed: the latency starts at the upload), uploads the class's mesh and
// runs an operator job on it.
func (w *coldMesh) request(ctx context.Context, b *bench, tr *tracer, rec *reqRecord) error {
	h, m, err := b.cacheCounts(w.svc.ep.url)
	if err != nil {
		return err
	}
	w.retiredHits += h
	w.retiredMisses += m
	if err := w.svc.restart(w.dir, false); err != nil {
		return err
	}
	rec.start = time.Now()
	rec.due = rec.start

	c := w.classOf(rec.id)
	if err := b.uploadMesh(ctx, tr, rec, w.svc.ep.url, c.body, c.id); err != nil {
		return err
	}
	spec := server.JobSpec{MeshID: c.id, Scheme: "operator", P: coldP, Boundary: c.boundary.String(), Field: c.field}
	var out jobResult
	if _, err := b.runJob(ctx, tr, rec, w.svc.ep.url, spec, &out); err != nil {
		return err
	}
	if err := w.ans.check(&b.gate, c.name, out.Solution, c.ref, operatorTol); err != nil {
		return err
	}
	w.last[c.name] = &out
	return nil
}

func (w *coldMesh) cacheCounts(b *bench) (uint64, uint64, error) {
	h, m, err := b.cacheCounts(w.svc.ep.url)
	return w.retiredHits + h, w.retiredMisses + m, err
}

// replay replays the first traced request of each class.
func (w *coldMesh) replay(b *bench, lr *layerRun) error {
	for i := range w.classes {
		c := w.classOf(i)
		err := lr.replaySuite(replayInput{
			req:        i,
			meshBody:   c.body,
			p:          coldP,
			boundary:   c.boundary,
			field:      c.field,
			fields:     pickFields(rngFor(w.seed, 3), 8),
			pathFields: 1,
			points:     randomPoints(rngFor(w.seed, 1), 512),
			blocks:     16,
			body:       w.last[c.name],
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *coldMesh) onPath() []string {
	return []string{"mesh.decode", "dg.project", "core.evaluator_build", "core.assemble", "artifact.save", "operator.apply1", "server.encode"}
}
