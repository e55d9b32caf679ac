// Command servicebench is unstencil's end-to-end service benchmark. It
// starts unstencild (internal/server) in process — and, for the
// cluster-direct workload, an unstencil-coordinator (internal/cluster) over
// two in-process shards — drives it over loopback HTTP from one load
// generator, checks every answer against references computed through the
// public direct-scheme functions, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// also repeats the timed phase with spans recorded, replays each request's
// stages through the layers' public functions, and reports the per-layer
// metrics instead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// commit is stamped by run.sh through -ldflags: the git commit, or outside a
// git checkout a digest of the Go sources.
var commit = "unknown"

const (
	// A run sets the system up at least setupMinReps times and until
	// setupMinTime has passed (at most setupMaxReps times); setup_s is the
	// median, so one slow start does not move it and cheap set-ups get
	// enough samples.
	setupMinReps = 3
	setupMaxReps = 50
	setupMinTime = 2 * time.Second
	// pollInterval is the client's job-status poll period. It bounds how
	// late a finished job is noticed, so it is part of every job latency.
	pollInterval = 5 * time.Millisecond
	// requestTimeout caps one request, polls included; a request that
	// exceeds it counts as failed.
	requestTimeout = 60 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	// perturb shifts one reference value by far more than any tolerance, so
	// the correctness gate must fail (the benchmark's own tests use it).
	perturb bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	res, err := runBench(opts, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "servicebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "servicebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "servicebench: correctness gate failed")
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("servicebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 16, "length of each timed phase")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "servicebench-out"),
		"directory for scratch stores and the trace file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		err := fmt.Errorf("unknown --workload %q (have %v)", o.workload, workloadNames())
		fmt.Fprintln(stderr, err)
		return o, err
	}
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		err := errors.New("--seconds must be positive and --trace 0 or 1")
		fmt.Fprintln(stderr, err)
		return o, err
	}
	o.trace = trace == 1
	return o, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runBench runs one workload: inputs and references, set-up (timed,
// repeatedly), the timed phase, and — traced — a second timed phase
// with spans plus the layer replay.
func runBench(o options, out io.Writer) (*result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	b := newBench(o, work)
	defer b.close()
	w := workloads[o.workload]()
	spec := w.loop()

	if err := w.prepare(b); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	var setups []float64
	for begin := time.Now(); len(setups) < setupMinReps ||
		(len(setups) < setupMaxReps && time.Since(begin) < setupMinTime); {
		if len(setups) > 0 {
			w.tearDown()
		}
		start := time.Now()
		if err := w.setUp(b); err != nil {
			w.tearDown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.tearDown()

	plain := b.runPhase(w, spec, nil)
	meta := b.metadata(spec, plain, len(setups))
	printJSONLine(out, "meta", meta)
	e2e := plain.endToEnd(median(setups))
	printMetrics(out, "end-to-end ("+o.workload+", untraced)", plain.extra(e2e))

	res := &result{
		Correct:   b.gate.ok(),
		Attempted: plain.attempted(),
		Failed:    plain.failed(),
		Metrics:   e2e,
	}
	if !o.trace {
		return res, nil
	}

	tr := &tracer{t0: time.Now()}
	traced := b.runPhase(w, spec, tr)
	printMetrics(out, "end-to-end ("+o.workload+", traced)", traced.extra(traced.endToEnd(median(setups))))
	lr := newLayerRun(b, tr)
	if err := w.replay(b, lr); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	layers := lr.metrics(plain, traced)
	printMetrics(out, "per-layer ("+o.workload+")", layers)
	self := selfTimes(tr, traced, lr, w.onPath())
	printSelfTimes(out, self, lr, w.onPath(), plain.p50())
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(path, meta, self); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "trace written to %s (%d spans)\n", path, tr.len())

	res.Correct = b.gate.ok()
	res.Attempted += traced.attempted()
	res.Failed += traced.failed()
	if res.Metrics, err = declaredLayers(layers); err != nil {
		return nil, err
	}
	return res, nil
}

// runMeta is the metadata every result carries.
type runMeta struct {
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	PollMS       float64 `json:"poll_interval_ms"`
	Clients      int     `json:"clients"`
	OfferedRate  float64 `json:"offered_rate_rps,omitempty"`
	Attempted    int     `json:"attempted"`
	Succeeded    int     `json:"succeeded"`
	Failed       int     `json:"failed"`
	SetupReps    int     `json:"setup_reps"`
	GateFailures int     `json:"gate_failures"`
}

func (b *bench) metadata(spec loopSpec, p *phase, setups int) runMeta {
	return runMeta{
		Commit:       commit,
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Workload:     b.opts.workload,
		Seed:         b.opts.seed,
		Seconds:      b.opts.seconds,
		PollMS:       float64(pollInterval) / float64(time.Millisecond),
		Clients:      spec.clients,
		OfferedRate:  spec.rate,
		Attempted:    p.attempted(),
		Succeeded:    p.attempted() - p.failed(),
		Failed:       p.failed(),
		SetupReps:    setups,
		GateFailures: b.gate.count(),
	}
}

func printJSONLine(out io.Writer, label string, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(out, "%s: %v\n", label, err)
		return
	}
	fmt.Fprintf(out, "%s %s\n", label, raw)
}

func printMetrics(out io.Writer, title string, ms map[string]metric) {
	fmt.Fprintf(out, "== %s\n", title)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
