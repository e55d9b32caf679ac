package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"unstencil/internal/artifact"
	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/operator"
	"unstencil/internal/server"
	"unstencil/internal/tile"
)

// declaredPerLayer are the per-layer metrics BENCHMARK.json declares. Every
// workload's traced run emits all of them: the replay times each layer's
// public function on the workload's own inputs, including layers its
// requests do not reach (the self-time table says which ones they reach).
// Workload-specific numbers — queue wait, polls, cluster fan-out — are
// printed and written to the trace file but not declared.
var declaredPerLayer = []struct{ name, unit string }{
	{"server.run_ms", "ms"},
	{"server.http_overhead_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.result_kb", "kB"},
	{"server.cache_hit_rate", "ratio"},
	{"mesh.decode_ms", "ms"},
	{"dg.project_ms", "ms"},
	{"core.evaluator_build_ms", "ms"},
	{"core.assemble_ms", "ms"},
	{"core.assemble.signature_ms", "ms"},
	{"core.assemble.probe_rows", "count"},
	{"core.assemble.stamp_rate", "ratio"},
	{"core.assemble.rows_integrated", "count"},
	{"core.assemble.rows_verified", "count"},
	{"core.assemble.rows_demoted", "count"},
	{"core.evalbatch_ms", "ms"},
	{"core.evalbatch_speedup", "x"},
	{"core.evalat_us", "us"},
	{"core.intersection_tests", "count"},
	{"core.hit_ratio", "ratio"},
	{"core.regions", "count"},
	{"core.quad_evals", "count"},
	{"core.per_element_ms", "ms"},
	{"core.per_element_speedup", "x"},
	{"core.model_gflops", "GFLOP/s"},
	{"tile.build_ms", "ms"},
	{"tile.reduce_ms", "ms"},
	{"tile.memory_overhead", "ratio"},
	{"operator.apply_ms", "ms"},
	{"operator.apply_speedup", "x"},
	{"operator.gbytes_per_s", "GB/s"},
	{"operator.resident_mb", "MB"},
	{"operator.template_hit_rate", "ratio"},
	{"artifact.save_ms", "ms"},
	{"artifact.load_ms", "ms"},
	{"artifact.encoded_mb", "MB"},
	{"trace.overhead_ms", "ms"},
}

// declaredLayers picks the declared metrics out of all, failing when the
// replay did not produce one or produced it in another unit.
func declaredLayers(all map[string]metric) (map[string]metric, error) {
	out := make(map[string]metric, len(declaredPerLayer))
	for _, d := range declaredPerLayer {
		m, ok := all[d.name]
		if !ok || m.Unit != d.unit {
			return nil, fmt.Errorf("per-layer metric %s (%s) not measured", d.name, d.unit)
		}
		out[d.name] = m
	}
	return out, nil
}

// stage is the samples of one replayed layer function, by request id.
type stage struct {
	layer   string
	samples map[int][]float64
}

// value is the median over every sample.
func (s *stage) value() float64 {
	var all []float64
	for _, v := range s.samples {
		all = append(all, v...)
	}
	return median(all)
}

// perRequest is the mean, over the replayed requests, of each request's
// median: workloads that cycle inputs weigh each input equally.
func (s *stage) perRequest() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.samples {
		sum += median(v)
	}
	return sum / float64(len(s.samples))
}

// layerRun replays request stages through the layers' public functions,
// recording one span per call under the replayed request's span.
type layerRun struct {
	b       *bench
	tr      *tracer
	reqSpan map[int]int
	stages  map[string]*stage
	derived map[string]*derivedValue
}

// derivedValue is a value computed from a replay (a count, ratio or rate),
// one sample per replay; the median is reported.
type derivedValue struct {
	unit string
	vals []float64
}

func newLayerRun(b *bench, tr *tracer) *layerRun {
	lr := &layerRun{b: b, tr: tr, reqSpan: map[int]int{}, stages: map[string]*stage{}, derived: map[string]*derivedValue{}}
	for _, s := range tr.snapshot() {
		if _, seen := lr.reqSpan[s.Req]; !seen && s.Name == "request" {
			lr.reqSpan[s.Req] = s.ID
		}
	}
	return lr
}

// time runs fn as stage name of layer, for request req: at least reps
// times and until stageMinTime has passed, at most stageMaxReps times. On
// a host whose speed drifts, one sample of a short stage says little.
func (lr *layerRun) time(name, layer string, req, reps int, fn func() error) error {
	st := lr.stages[name]
	if st == nil {
		st = &stage{layer: layer, samples: map[int][]float64{}}
		lr.stages[name] = st
	}
	begin := time.Now()
	for i := 0; i < stageMaxReps && (i < reps || time.Since(begin) < stageMinTime); i++ {
		start := time.Now()
		err := fn()
		end := time.Now()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		lr.tr.add(span{Parent: lr.reqSpan[req], Req: req, Name: name, Layer: layer, Start: start, End: end})
		st.samples[req] = append(st.samples[req], ms(end.Sub(start)))
	}
	return nil
}

// setStage records a stage derived from spans rather than timed by a
// replay.
func (lr *layerRun) setStage(name, layer string, req int, v float64) {
	lr.stages[name] = &stage{layer: layer, samples: map[int][]float64{req: {v}}}
}

// set records a derived value; values from several replays are kept and
// their median reported.
func (lr *layerRun) set(name string, v float64, unit string) {
	d := lr.derived[name]
	if d == nil {
		d = &derivedValue{unit: unit}
		lr.derived[name] = d
	}
	d.vals = append(d.vals, v)
}

// stageMS is the median of a stage's samples in ms.
func (lr *layerRun) stageMS(name string) float64 {
	if st, ok := lr.stages[name]; ok {
		return st.value()
	}
	return 0
}

// metrics assembles every per-layer metric: replayed stages (as <name>_ms),
// derived values, and the request-path numbers of the traced phase.
func (lr *layerRun) metrics(plain, traced *phase) map[string]metric {
	out := map[string]metric{}
	for name, st := range lr.stages {
		out[name+"_ms"] = metric{st.value(), "ms"}
	}
	for name, d := range lr.derived {
		out[name] = metric{median(d.vals), d.unit}
	}
	var run, queue, overhead, kb, polls []float64
	jobs := 0
	for _, r := range traced.recs {
		if r.err != nil {
			continue
		}
		run = append(run, ms(r.serverRun))
		lat := ms(r.end.Sub(r.due))
		kb = append(kb, float64(r.resultBytes)/1e3)
		if r.created.IsZero() {
			overhead = append(overhead, lat-ms(r.serverRun))
			continue
		}
		jobs++
		queue = append(queue, ms(r.started.Sub(r.created)))
		overhead = append(overhead, lat-ms(r.finished.Sub(r.created)))
		polls = append(polls, float64(r.polls))
	}
	out["server.run_ms"] = metric{median(run), "ms"}
	out["server.http_overhead_ms"] = metric{median(overhead), "ms"}
	out["server.result_kb"] = metric{median(kb), "kB"}
	out["server.cache_hit_rate"] = metric{max(traced.cacheRate, 0), "ratio"}
	if jobs > 0 {
		out["server.queue_wait_ms"] = metric{median(queue), "ms"}
		out["server.polls_per_job"] = metric{median(polls), "count"}
	}
	out["trace.overhead_ms"] = metric{traced.p50() - plain.p50(), "ms"}
	for _, pair := range [][3]string{
		{"operator.apply_speedup", "operator.apply", "operator.apply_serial"},
		{"core.evalbatch_speedup", "core.evalbatch", "core.evalbatch_serial"},
		{"core.per_element_speedup", "core.per_element", "core.per_element_serial"},
	} {
		if par := lr.stageMS(pair[1]); par > 0 {
			out[pair[0]] = metric{lr.stageMS(pair[2]) / par, "x"}
		}
	}
	return out
}

// replayInput is what one request's stages need to be replayed.
type replayInput struct {
	req        int
	meshBody   []byte
	p          int
	gridDegree int // as in the job spec: 0 = 2P, negative = one-point rule
	boundary   core.Boundary
	field      string   // the field the server's evaluator is built for
	fields     []string // the fields operator.apply applies in one block
	pathFields int      // fields the request itself applies (operator jobs), else 0
	points     []geom.Point
	blocks     int
	body       any // the response body the server encoded
}

// Stage repetitions: cheap stages and the per-element run at least
// replayReps times, assembly — the costliest stage — at least once; each
// stage for at least stageMinTime and at most stageMaxReps times.
const (
	replayReps   = 3
	stageMinTime = time.Second
	stageMaxReps = 25
)

// replaySuite times every layer's public function on one request's inputs.
func (lr *layerRun) replaySuite(in replayInput) error {
	var (
		m   *mesh.Mesh
		f   *dg.Field
		ev  *core.Evaluator
		err error
	)
	req := in.req
	if err := lr.time("mesh.decode", "mesh", req, replayReps, func() error {
		m, err = mesh.Decode(bytes.NewReader(in.meshBody))
		return err
	}); err != nil {
		return err
	}
	fn := server.FieldFuncs[in.field]
	if err := lr.time("dg.project", "dg", req, replayReps, func() error {
		f = dg.Project(m, in.p, fn, 4)
		return nil
	}); err != nil {
		return err
	}
	opt := core.Options{P: in.p, GridDegree: in.gridDegree, Boundary: in.boundary}
	if err := lr.time("core.evaluator_build", "core", req, replayReps, func() error {
		ev, err = core.NewEvaluator(f, opt)
		return err
	}); err != nil {
		return err
	}
	serialOpt := opt
	serialOpt.Workers = 1
	evSerial, err := core.NewEvaluator(f, serialOpt)
	if err != nil {
		return err
	}

	if err := lr.replayOperator(in, m, f, ev); err != nil {
		return err
	}
	if err := lr.replayDirect(in, ev, evSerial); err != nil {
		return err
	}
	return lr.time("server.encode", "server", req, replayReps, func() error {
		_, err := json.Marshal(in.body)
		return err
	})
}

// replayOperator assembles the workload mesh's operator, round-trips it
// through an artifact store and applies it.
func (lr *layerRun) replayOperator(in replayInput, m *mesh.Mesh, f *dg.Field, ev *core.Evaluator) error {
	req := in.req
	var op *operator.Operator
	if err := lr.time("core.assemble", "core", req, 1, func() error {
		var err error
		op, err = ev.AssembleOperator(core.AssembleOpts{Congruence: core.CongruenceTemplate})
		return err
	}); err != nil {
		return err
	}
	if cs := op.Congruence; cs != nil {
		lr.set("core.assemble.signature_ms", ms(cs.SignatureWall), "ms")
		lr.set("core.assemble.probe_rows", float64(cs.ProbeRows), "count")
		lr.set("core.assemble.stamp_rate", float64(cs.RowsStamped)/float64(max(cs.Rows, 1)), "ratio")
		lr.set("core.assemble.rows_integrated", float64(cs.RowsIntegrated), "count")
		lr.set("core.assemble.rows_verified", float64(cs.RowsVerified), "count")
		lr.set("core.assemble.rows_demoted", float64(cs.RowsDemoted), "count")
	}
	// What the server does before admitting an assembled operator.
	op = op.Templatize().ToBSR()

	store, err := artifact.NewStore(filepath.Join(lr.b.work, fmt.Sprintf("replay-%d", req)), nil)
	if err != nil {
		return err
	}
	defer os.RemoveAll(store.Dir())
	key := server.OpKey(m.ContentHash(), ev.Opt.P, ev.Opt.GridDegree, ev.Opt.Boundary)
	if err := lr.time("artifact.save", "artifact", req, replayReps, func() error {
		return store.SaveOperator(key, op)
	}); err != nil {
		return err
	}
	if st, err := os.Stat(store.Path(key)); err == nil {
		lr.set("artifact.encoded_mb", float64(st.Size())/1e6, "MB")
	}
	var loaded *operator.Operator
	if err := lr.time("artifact.load", "artifact", req, replayReps, func() error {
		var err error
		loaded, _, err = store.LoadOperator(key, true)
		return err
	}); err != nil {
		return err
	}
	loaded = loaded.ToBSR()

	coeffs := make([][]float64, len(in.fields))
	outs := make([][]float64, len(in.fields))
	projected := map[string][]float64{}
	for i, name := range in.fields {
		if projected[name] == nil {
			projected[name] = dg.Project(m, in.p, server.FieldFuncs[name], 4).Coeffs
		}
		coeffs[i] = projected[name]
		outs[i] = make([]float64, loaded.Rows)
	}
	if err := lr.time("operator.apply", "operator", req, replayReps, func() error {
		return loaded.ApplyBlock(coeffs, outs, ev.Opt.Workers)
	}); err != nil {
		return err
	}
	if err := lr.time("operator.apply_serial", "operator", req, replayReps, func() error {
		return loaded.ApplyBlock(coeffs, outs, 1)
	}); err != nil {
		return err
	}
	if in.pathFields == 1 {
		if err := lr.time("operator.apply1", "operator", req, replayReps, func() error {
			return loaded.ApplyInto(f, outs[0])
		}); err != nil {
			return err
		}
	}
	// Computed bytes: the operator's arrays stream once per tile of eight
	// fields (ApplyBlock's field tile); cache effects are not measured.
	st := loaded.Stats()
	tiles := (len(in.fields) + 7) / 8
	if sec := lr.stages["operator.apply"].samples[req]; len(sec) > 0 {
		lr.set("operator.gbytes_per_s", float64(st.Bytes)*float64(tiles)/1e9/(median(sec)/1e3), "GB/s")
	}
	lr.set("operator.resident_mb", float64(st.Bytes)/1e6, "MB")
	lr.set("operator.template_hit_rate", float64(st.TemplatedRows)/float64(max(st.Rows, 1)), "ratio")
	return nil
}

// replayDirect runs the direct schemes: batched point evaluation and the
// per-element scheme over the overlapped tiling, each also at one worker.
func (lr *layerRun) replayDirect(in replayInput, ev, evSerial *core.Evaluator) error {
	req := in.req
	var vals []float64
	if err := lr.time("core.evalbatch", "core", req, replayReps, func() error {
		var err error
		vals, _, err = ev.EvalBatch(in.points, 0)
		return err
	}); err != nil {
		return err
	}
	if err := lr.time("core.evalbatch_serial", "core", req, replayReps, func() error {
		var err error
		vals, _, err = evSerial.EvalBatch(in.points, 1)
		return err
	}); err != nil {
		return err
	}
	_, cnt, err := ev.EvalBatch(in.points, 0)
	if err != nil {
		return err
	}
	lr.set("core.intersection_tests", float64(cnt.IntersectionTests), "count")
	lr.set("core.hit_ratio", float64(cnt.TruePositives)/float64(max(cnt.IntersectionTests, 1)), "ratio")
	lr.set("core.regions", float64(cnt.Regions), "count")
	lr.set("core.quad_evals", float64(cnt.QuadEvals), "count")
	start := time.Now()
	for i, p := range in.points {
		v, err := evSerial.EvalAt(p)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	lr.set("core.evalat_us", float64(time.Since(start).Nanoseconds())/1e3/float64(len(in.points)), "us")

	var t *tile.Tiling
	if err := lr.time("tile.build", "tile", req, replayReps, func() error {
		t = ev.NewTiling(in.blocks)
		return nil
	}); err != nil {
		return err
	}
	lr.set("tile.memory_overhead", t.Overhead(), "ratio")
	patches := make([]int, t.K)
	for i := range patches {
		patches[i] = i
	}
	var parts []core.PatchPartial
	ctx := context.Background()
	// One untimed run first: the server's evaluator has its pooled workers
	// grown already, a freshly built one has not.
	if _, _, err := ev.EvalPatchesResilientCtx(ctx, t, patches, nil); err != nil {
		return err
	}
	if err := lr.time("core.per_element", "core", req, replayReps, func() error {
		var err error
		parts, _, err = ev.EvalPatchesResilientCtx(ctx, t, patches, nil)
		return err
	}); err != nil {
		return err
	}
	if err := lr.time("core.per_element_serial", "core", req, replayReps, func() error {
		_, _, err := evSerial.EvalPatchesResilientCtx(ctx, t, patches, nil)
		return err
	}); err != nil {
		return err
	}
	flops := 0.0
	bufs := make([][]float64, t.K)
	for _, pp := range parts {
		bufs[pp.Patch] = pp.Values
		flops += float64(pp.Counters.Flops)
	}
	if sec := lr.stages["core.per_element"].samples[req]; len(sec) > 0 {
		lr.set("core.model_gflops", flops/1e9/(median(sec)/1e3), "GFLOP/s")
	}
	out := make([]float64, t.NumPoints)
	return lr.time("tile.reduce", "tile", req, replayReps, func() error {
		t.Reduce(bufs, out)
		return nil
	})
}
