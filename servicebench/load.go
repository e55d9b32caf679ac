package main

import (
	"bufio"
	"context"
	"math/rand"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loopSpec is how the load generator drives a workload: a closed loop of
// clients, or (rate > 0) an open loop at a fixed arrival rate with at most
// clients requests in flight.
type loopSpec struct {
	clients int
	rate    float64 // requests per second; 0 = closed loop
}

// phase is one timed phase: every request record plus the process
// resources the phase used.
type phase struct {
	recs       []*reqRecord
	start, end time.Time // end = last response received
	cpu        time.Duration
	peakRSS    float64 // MB
	lateness   []float64
	cacheRate  float64 // artifact-cache hit rate over the phase, -1 if unknown
}

// runPhase drives the workload for opts.seconds and returns what it saw.
// Request i always carries the same inputs, so a traced phase issues the
// same requests as the untraced one.
func (b *bench) runPhase(w workload, spec loopSpec, tr *tracer) *phase {
	p := &phase{cacheRate: -1}
	hits0, misses0, cacheErr := w.cacheCounts(b)
	// Return set-up and reference garbage to the OS first, so the peak
	// belongs to the phase and not to what preceded it.
	debug.FreeOSMemory()
	resetPeakRSS()
	cpu0 := processCPU()
	p.start = time.Now()
	deadline := p.start.Add(time.Duration(b.opts.seconds * float64(time.Second)))

	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	issue := func(i int, due time.Time) {
		rec := &reqRecord{id: i, due: due, start: time.Now()}
		if !due.IsZero() {
			mu.Lock()
			p.lateness = append(p.lateness, ms(rec.start.Sub(due)))
			mu.Unlock()
		} else {
			rec.due = rec.start
		}
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		if tr != nil {
			rec.span = tr.reserve()
		}
		rec.err = w.request(ctx, b, tr, rec)
		cancel()
		if rec.end.IsZero() {
			rec.end = time.Now()
		}
		if tr != nil {
			tr.set(rec.span, span{Req: rec.id, Name: "request", Layer: layerClient, Start: rec.due, End: rec.end})
			tr.addServerSpans(rec)
		}
		mu.Lock()
		p.recs = append(p.recs, rec)
		mu.Unlock()
	}

	if spec.rate > 0 {
		due := arrivals(b.opts.seed, spec.rate, b.opts.seconds)
		for c := 0; c < spec.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(due) {
						return
					}
					at := p.start.Add(due[i])
					time.Sleep(time.Until(at))
					issue(i, at)
				}
			}()
		}
	} else {
		for c := 0; c < spec.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					issue(int(next.Add(1)-1), time.Time{})
				}
			}()
		}
	}
	wg.Wait()
	p.cpu = processCPU() - cpu0
	p.peakRSS = peakRSSMB()
	sort.Slice(p.recs, func(i, j int) bool { return p.recs[i].id < p.recs[j].id })
	p.end = p.start
	for _, r := range p.recs {
		if r.end.After(p.end) {
			p.end = r.end
		}
	}
	if hits1, misses1, err := w.cacheCounts(b); err == nil && cacheErr == nil {
		if d := (hits1 - hits0) + (misses1 - misses0); d > 0 {
			p.cacheRate = float64(hits1-hits0) / float64(d)
		}
	}
	return p
}

// arrivals is the open-loop schedule: one arrival per 1/rate slot, at a
// seeded uniform offset inside its slot. The count is fixed by the rate and
// the run length, so the offered load never varies between seeds.
func arrivals(seed int64, rate, seconds float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	n := int(rate * seconds)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))
	}
	return out
}

func (p *phase) attempted() int { return len(p.recs) }

func (p *phase) failed() int {
	n := 0
	for _, r := range p.recs {
		if r.err != nil {
			n++
		}
	}
	return n
}

// latencies returns the successful requests' latencies in ms, sorted.
func (p *phase) latencies() []float64 {
	var out []float64
	for _, r := range p.recs {
		if r.err == nil {
			out = append(out, ms(r.end.Sub(r.due)))
		}
	}
	sort.Float64s(out)
	return out
}

func (p *phase) p50() float64 { return quantile(p.latencies(), 0.5) }

// endToEnd returns the metrics BENCHMARK.json declares as end_to_end.
func (p *phase) endToEnd(setup float64) map[string]metric {
	done := p.attempted() - p.failed()
	m := map[string]metric{
		"latency_p50_ms": {p.p50(), "ms"},
		"throughput_rps": {0, "1/s"},
		"cpu_ms_per_req": {0, "ms"},
		"peak_rss_mb":    {p.peakRSS, "MB"},
		"setup_s":        {setup, "s"},
	}
	if done > 0 {
		m["throughput_rps"] = metric{float64(done) / p.end.Sub(p.start).Seconds(), "1/s"}
		m["cpu_ms_per_req"] = metric{ms(p.cpu) / float64(done), "ms"}
	}
	return m
}

// minP90Samples is the sample count p90 needs: ten samples beyond it.
const minP90Samples = 100

// extra adds the metrics that are printed but not declared: p90 (only when
// the sample count supports it), sample count, failed fraction and, for the
// open loop, how late the generator ran.
func (p *phase) extra(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(m)+6)
	for k, v := range m {
		out[k] = v
	}
	lat := p.latencies()
	out["latency_samples"] = metric{float64(len(lat)), "count"}
	if len(lat) >= minP90Samples {
		out["latency_p90_ms"] = metric{quantile(lat, 0.9), "ms"}
	}
	out["failed_frac"] = metric{0, "ratio"}
	if n := p.attempted(); n > 0 {
		out["failed_frac"] = metric{float64(p.failed()) / float64(n), "ratio"}
	}
	if len(p.lateness) > 0 {
		l := append([]float64(nil), p.lateness...)
		sort.Float64s(l)
		out["generator_late_p50_ms"] = metric{quantile(l, 0.5), "ms"}
		out["generator_late_max_ms"] = metric{l[len(l)-1], "ms"}
	}
	return out
}

// quantile is the linearly interpolated q-quantile of sorted xs (0 when
// empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// processCPU is the process's user + system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) accounting, so the
// peak read after a phase belongs to that phase. Where the reset is not
// available the peak covers the whole process lifetime.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads VmHWM from /proc/self/status, in MB (10^6 bytes); 0 where
// it is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			break
		}
		return kb * 1024 / 1e6
	}
	return 0
}
