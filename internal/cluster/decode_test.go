package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"unstencil/internal/server"
)

// patchResponse16 encodes a shard response of 16 patches × 384 points, the
// shape of one shard's answer in a cluster per-element job.
func patchResponse16(t testing.TB) []byte {
	t.Helper()
	resp := server.ShardEvalResponse{MeshID: "m", K: 32, NumPoints: 16 * 384 * 2}
	for p := 0; p < 16; p++ {
		pp := server.ShardPatchPartial{Patch: 2 * p}
		for i := 0; i < 384; i++ {
			pp.Points = append(pp.Points, int32(p*384+i))
			pp.Values = append(pp.Values, 0.1234567890123*float64(i)-float64(p)/3)
		}
		resp.Patches = append(resp.Patches, pp)
	}
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// decodeOnce decodes raw as a response body, sized (Content-Length set)
// or chunked (length unknown).
func decodeOnce(raw []byte, sized bool) (server.ShardEvalResponse, error) {
	resp := &http.Response{Body: io.NopCloser(bytes.NewReader(raw)), ContentLength: -1}
	if sized {
		resp.ContentLength = int64(len(raw))
	}
	var out server.ShardEvalResponse
	err := decodeBody(resp, &out)
	return out, err
}

// allocBytesPerDecode reports the heap bytes one decode allocates.
func allocBytesPerDecode(raw []byte, sized bool, runs int) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, _ = decodeOnce(raw, sized)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestDecodeShardResponseAllocBytes: a sized 16-patch shard response
// decodes to the same value as the chunked path while allocating fewer
// bytes — one exact-size body buffer replaces json.Decoder's regrown one.
func TestDecodeShardResponseAllocBytes(t *testing.T) {
	raw := patchResponse16(t)
	sized, err := decodeOnce(raw, true)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := decodeOnce(raw, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sized, chunked) || len(sized.Patches) != 16 {
		t.Fatal("sized and chunked decodes differ")
	}
	sb := allocBytesPerDecode(raw, true, 20)
	cb := allocBytesPerDecode(raw, false, 20)
	t.Logf("16-patch response %d B: sized decode %d B/op, chunked %d B/op", len(raw), sb, cb)
	if sb >= cb {
		t.Fatalf("sized decode allocates %d B/op, chunked %d B/op: the sized read saved nothing", sb, cb)
	}
}

// TestDecodeShardResponseErrors: a body shorter than its Content-Length or
// not JSON fails through Client with "decoding shard response", and a
// chunked shard response still decodes.
func TestDecodeShardResponseErrors(t *testing.T) {
	raw := patchResponse16(t)
	if _, err := decodeOnce(raw[:len(raw)/2], false); err == nil {
		t.Fatal("truncated chunked body decoded")
	}
	short := &http.Response{Body: io.NopCloser(bytes.NewReader(raw[:100])), ContentLength: int64(len(raw))}
	var out server.ShardEvalResponse
	if err := decodeBody(short, &out); err == nil {
		t.Fatal("body shorter than its Content-Length decoded")
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/sized-bad", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "9")
		_, _ = w.Write([]byte("not json!"))
	})
	mux.HandleFunc("/chunked", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(raw[:4096])
		w.(http.Flusher).Flush()
		_, _ = w.Write(raw[4096:])
	})
	mux.HandleFunc("/sized", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
		_, _ = w.Write(raw)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := NewClient(nil, 0, server.RetryPolicy{Attempts: 1}, nil, nil)
	ctx := context.Background()
	if err := c.GetJSON(ctx, ts.URL, "/sized-bad", &out); err == nil ||
		!strings.Contains(err.Error(), "decoding shard response") {
		t.Fatalf("bad sized body: err = %v, want a decoding shard response error", err)
	}
	want, _ := decodeOnce(raw, false)
	for _, path := range []string{"/chunked", "/sized"} {
		var got server.ShardEvalResponse
		if err := c.GetJSON(ctx, ts.URL, path, &got); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded response differs", path)
		}
	}
}

// BenchmarkDecodeShardResponse reports time and bytes per decode of a
// 16-patch shard response, sized and chunked.
func BenchmarkDecodeShardResponse(b *testing.B) {
	raw := patchResponse16(b)
	for _, sized := range []bool{true, false} {
		name := map[bool]string{true: "sized", false: "chunked"}[sized]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if _, err := decodeOnce(raw, sized); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
