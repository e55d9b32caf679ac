package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// newDecodeFuzzServer builds a server with no resident mesh: a request
// that passes validation answers 404 (mesh not resident) without running
// anything, so every fuzz input costs only its decode and validation.
func newDecodeFuzzServer(f *testing.F) *Server {
	srv, err := New(Config{Workers: 1, QueueSize: 1, Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Manager().Shutdown(ctx)
		_ = srv.Close()
	})
	return srv
}

// serveFuzzBody POSTs body to path and checks the response is a JSON error
// envelope with status 400 (invalid) or 404 (valid, mesh not resident).
func serveFuzzBody(t *testing.T, srv *Server, path string, body []byte, valid bool) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	want := http.StatusBadRequest
	if valid {
		want = http.StatusNotFound
	}
	if rec.Code != want {
		t.Fatalf("%s %q: status %d, want %d (body %s)", path, body, rec.Code, want, rec.Body.Bytes())
	}
	var env errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == "" {
		t.Fatalf("%s %q: response %q is not a JSON error envelope", path, body, rec.Body.Bytes())
	}
}

// FuzzDecodeQueryRequest: any /v1/query body either fails decoding or
// validation with a 400, or yields a request inside every documented bound
// (and, with no mesh resident, a 404) — never a panic or a 5xx.
func FuzzDecodeQueryRequest(f *testing.F) {
	for _, s := range []string{
		`{"mesh_id":"m","p":1,"points":[[0.5,0.5]]}`,
		`{"mesh_id":"m","p":4,"boundary":"one-sided","field":"sincos","points":[[0,0],[1,1]],"workers":2}`,
		`{"mesh_id":"m","p":2,"use_operator":true,"fields":["sincos","sincos"],"points":[[0.1,0.2]]}`,
		`{"mesh_id":"m","p":2,"fields":["sincos"],"points":[[0.1,0.2]]}`,
		`{"mesh_id":"m","p":0,"points":[[0.5,0.5]]}`,
		`{"mesh_id":"m","p":5,"points":[[0.5,0.5]]}`,
		`{"mesh_id":"m","p":1,"points":[]}`,
		`{"mesh_id":"m","p":1,"points":[[1e999,0]]}`,
		`{"mesh_id":"m","p":1,"grid_degree":33,"points":[[0.5,0.5]]}`,
		`{"mesh_id":"m","p":1,"boundary":"mirror","points":[[0.5,0.5]]}`,
		`{"mesh_id":"m","p":1,"points":[[0.5,0.5]],"workers":-1}`,
		`{"mesh_id":"m","p":1,"points":[[0.5,0.5]],"extra":1}`,
		`{"mesh_id":"","p":1,"points":[[0.5,0.5]]}`,
		`{"mesh_id":"m","p":1,"points":[[0.5]]}`,
		`{"mesh_id":"m","p":"1","points":[[0.5,0.5]]}`,
		`null`, `[]`, `{}`, ``, `{"mesh_id":"m"`, `{"mesh_id":"m","p":1,"points":[[0.5,0.5]]} trailing`,
	} {
		f.Add([]byte(s))
	}
	srv := newDecodeFuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var q QueryRequest
		err := decodeStrict(bytes.NewReader(body), &q)
		if err == nil {
			err = q.normalize()
		}
		if err == nil {
			switch {
			case q.MeshID == "" || q.P < 1 || q.P > 4 || q.GridDegree > MaxGridDegree:
				t.Fatalf("accepted out-of-range query %+v", q)
			case len(q.Points) == 0 || len(q.Points) > MaxQueryPoints || q.Workers < 0:
				t.Fatalf("accepted query with %d points, workers %d", len(q.Points), q.Workers)
			case len(q.Fields) > MaxJobFields || (len(q.Fields) > 0 && !q.UseOperator):
				t.Fatalf("accepted fields %v (use_operator %v)", q.Fields, q.UseOperator)
			}
			if _, ok := FieldFuncs[q.Field]; !ok {
				t.Fatalf("accepted unknown field %q", q.Field)
			}
			if _, perr := parseBoundary(q.Boundary); perr != nil {
				t.Fatalf("accepted boundary %q: %v", q.Boundary, perr)
			}
			for _, p := range q.Points {
				if math.IsNaN(p[0]+p[1]) || math.IsInf(p[0]+p[1], 0) {
					t.Fatalf("accepted non-finite point %v", p)
				}
			}
		}
		serveFuzzBody(t, srv, "/v1/query", body, err == nil)
	})
}

// FuzzDecodeJobSpec: any /v1/jobs body either fails decoding or
// validation with a 400, or yields a spec inside every documented bound
// (and, with no mesh resident, a 404) — never a panic or a 5xx.
func FuzzDecodeJobSpec(f *testing.F) {
	for _, s := range []string{
		`{"mesh_id":"m","scheme":"per-element","p":1}`,
		`{"mesh_id":"m","scheme":"per-point","p":3,"blocks":8,"boundary":"one-sided","timeout_ms":100}`,
		`{"mesh_id":"m","scheme":"operator","p":2,"fields":["sincos","sincos"],"allow_partial":true}`,
		`{"mesh_id":"m","scheme":"per-element","p":2,"fields":["sincos"]}`,
		`{"mesh_id":"m","scheme":"direct","p":1}`,
		`{"mesh_id":"m","scheme":"per-element","p":9}`,
		`{"mesh_id":"m","scheme":"per-element","p":1,"blocks":-3}`,
		`{"mesh_id":"m","scheme":"per-element","p":1,"blocks":65537}`,
		`{"mesh_id":"m","scheme":"per-element","p":1,"grid_degree":-7}`,
		`{"mesh_id":"m","scheme":"per-element","p":1,"grid_degree":99}`,
		`{"mesh_id":"m","scheme":"per-element","p":1,"field":"nope"}`,
		`{"mesh_id":"m","scheme":"per-element","p":1,"timeout_ms":-1}`,
		`{"mesh_id":"m","scheme":"per-element","p":1,"unknown":true}`,
		`{"mesh_id":"m","scheme":"per-element","p":1.5}`,
		`{"mesh_id":"m","scheme":"per-element","p":1e30}`,
		`null`, `[]`, `{}`, ``, `{"mesh_id":`, `"string"`,
	} {
		f.Add([]byte(s))
	}
	srv := newDecodeFuzzServer(f)
	defBlocks := srv.cfg.DefaultBlocks
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		err := decodeStrict(bytes.NewReader(body), &spec)
		if err == nil {
			err = spec.normalize(defBlocks)
		}
		if err == nil {
			switch spec.Scheme {
			case "per-point", "per-element", "operator":
			default:
				t.Fatalf("accepted scheme %q", spec.Scheme)
			}
			switch {
			case spec.MeshID == "" || spec.P < 1 || spec.P > 4 || spec.GridDegree > MaxGridDegree:
				t.Fatalf("accepted out-of-range spec %+v", spec)
			case spec.Blocks < 1 || spec.Blocks > MaxBlocks || spec.TimeoutMS < 0:
				t.Fatalf("accepted blocks %d, timeout %d", spec.Blocks, spec.TimeoutMS)
			case len(spec.Fields) > MaxJobFields || (len(spec.Fields) > 0 && spec.Scheme != "operator"):
				t.Fatalf("accepted fields %v with scheme %q", spec.Fields, spec.Scheme)
			}
			if _, ok := FieldFuncs[spec.Field]; !ok {
				t.Fatalf("accepted unknown field %q", spec.Field)
			}
			if _, perr := parseBoundary(spec.Boundary); perr != nil {
				t.Fatalf("accepted boundary %q: %v", spec.Boundary, perr)
			}
		}
		serveFuzzBody(t, srv, "/v1/jobs", body, err == nil)
	})
}
