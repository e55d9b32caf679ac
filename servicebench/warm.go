package main

import (
	"context"
	"fmt"
	"slices"

	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/mesh"
	"unstencil/internal/server"
)

// warmApply is a time-stepping solver post-processing every output step:
// one client, closed loop, each request an operator job with eight fields
// on a structured 16×16 mesh at P2 (periodic). The operator was assembled
// in set-up and the server restarted on its store, so the timed loop runs
// on the mmap-loaded operator like a restarted production server: it loads
// the operator kernel and result encoding, and skips assembly and the
// direct schemes.
type warmApply struct {
	seed     int64
	meshBody []byte
	meshID   string
	refs     map[string][]float64 // RunPerPoint answer per field
	ans      answers
	svc      *single
	dir      string
	last     *jobResult
}

const (
	warmN = 16
	warmP = 2
)

func (w *warmApply) loop() loopSpec { return loopSpec{clients: 1} }

// fieldsFor is request i's field list (i = -1 for the warm-up): a seeded
// order of a fixed mix, three each of the first two analytic fields and two
// of the third, so every request encodes the same amount of output.
func (w *warmApply) fieldsFor(i int) []string {
	kinds := server.FieldNames()
	mix := []string{kinds[0], kinds[0], kinds[0], kinds[1], kinds[1], kinds[1], kinds[2], kinds[2]}
	rng := rngFor(w.seed, int64(1000+i))
	rng.Shuffle(len(mix), func(a, b int) { mix[a], mix[b] = mix[b], mix[a] })
	return mix
}

func (w *warmApply) prepare(b *bench) error {
	w.seed = b.opts.seed
	m := mesh.Structured(warmN)
	var err error
	if w.meshBody, err = encodeMesh(m); err != nil {
		return err
	}
	w.meshID = m.ContentHash()
	if w.dir, err = workDir(b, "warm-apply"); err != nil {
		return err
	}
	w.refs = map[string][]float64{}
	for _, kind := range server.FieldNames() {
		ev, err := core.NewEvaluator(dg.Project(m, warmP, server.FieldFuncs[kind], 4),
			core.Options{P: warmP, Boundary: core.Periodic})
		if err != nil {
			return err
		}
		res, err := ev.RunPerPoint(16)
		if err != nil {
			return err
		}
		w.refs[kind] = res.Solution
	}
	perturbed(w.refs[server.FieldNames()[0]], b.opts.perturb)
	return nil
}

// setUp starts a server with a store, uploads the mesh, assembles the
// operator with the first job (written through to the store), restarts the
// server on that store and serves a second job from the disk tier.
func (w *warmApply) setUp(b *bench) error {
	var err error
	if w.svc, err = startSingle(w.dir); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if err := b.uploadMesh(ctx, nil, nil, w.svc.ep.url, w.meshBody, w.meshID); err != nil {
		return err
	}
	if _, err := w.job(ctx, b, nil, &reqRecord{id: -1}); err != nil {
		return err
	}
	if err := w.svc.restart(w.dir, true); err != nil {
		return err
	}
	st, err := w.job(ctx, b, nil, &reqRecord{id: -1})
	if err != nil {
		return err
	}
	if !slices.Contains(st, "operator-disk") {
		return fmt.Errorf("warm-up after restart did not load the operator from disk (cache hits %v)", st)
	}
	return nil
}

func (w *warmApply) tearDown() {
	w.svc.stop()
	w.svc = nil
}

func (w *warmApply) request(ctx context.Context, b *bench, tr *tracer, rec *reqRecord) error {
	_, err := w.job(ctx, b, tr, rec)
	return err
}

// job runs request rec.id's operator job, checks every field's answer and
// returns the job's cache hits.
func (w *warmApply) job(ctx context.Context, b *bench, tr *tracer, rec *reqRecord) ([]string, error) {
	fields := w.fieldsFor(rec.id)
	spec := server.JobSpec{MeshID: w.meshID, Scheme: "operator", P: warmP, Fields: fields}
	var out jobResult
	hits, err := b.runJob(ctx, tr, rec, w.svc.ep.url, spec, &out)
	if err != nil {
		return nil, err
	}
	if len(out.Solutions) != len(fields) {
		return nil, b.gate.fail("operator job returned %d solutions for %d fields: %w", len(out.Solutions), len(fields), errMismatch)
	}
	for i, kind := range fields {
		if err := w.ans.check(&b.gate, "field "+kind, out.Solutions[i], w.refs[kind], operatorTol); err != nil {
			return nil, err
		}
	}
	w.last = &out
	return hits, nil
}

func (w *warmApply) cacheCounts(b *bench) (uint64, uint64, error) {
	return b.cacheCounts(w.svc.ep.url)
}

func (w *warmApply) replay(b *bench, lr *layerRun) error {
	fields := w.fieldsFor(0)
	return lr.replaySuite(replayInput{
		req:        0,
		meshBody:   w.meshBody,
		p:          warmP,
		boundary:   core.Periodic,
		field:      fields[0],
		fields:     fields,
		pathFields: len(fields),
		points:     randomPoints(rngFor(w.seed, 1), 512),
		blocks:     16,
		body:       w.last,
	})
}

func (w *warmApply) onPath() []string { return []string{"operator.apply", "server.encode"} }
