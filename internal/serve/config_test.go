package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"streamkm/internal/govern"
)

// TestSessionConfigEstimateOverflow: a create request whose memory
// estimate does not fit in int64 is refused as a bad request. Wrapped,
// the estimate could read a few bytes and pass any budget while the
// session buffers everything it ingests.
func TestSessionConfigEstimateOverflow(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Budget = govern.Budget{MemoryBytes: 1 << 20}
	})
	defer s.Drain(context.Background())
	for _, tc := range []struct {
		name string
		cfg  SessionConfig
		want error
	}{
		{"2^60 chunk points", SessionConfig{Dim: 16, K: 4, ChunkPoints: 1 << 60, WindowChunks: 3}, ErrBadRequest},
		{"huge window_chunks", SessionConfig{Dim: 3, K: 4, ChunkPoints: 40, WindowChunks: math.MaxInt}, ErrBadRequest},
		{"huge k and chunk_points", SessionConfig{Kind: KindStream, Dim: 1, K: 1 << 60, ChunkPoints: 1 << 60}, ErrBadRequest},
		{"2^40 chunk points fits, over budget", SessionConfig{Dim: 3, K: 4, ChunkPoints: 1 << 40, WindowChunks: 3}, ErrMemory},
	} {
		if _, err := s.CreateSession(tc.cfg); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestSessionMetaFromOlderBuild: older builds accepted an
// "accelerate" key that selected another Lloyd iteration. A session
// whose meta.json carries it recovers and continues on the one kept
// iteration; a new create body carrying it is refused.
func TestSessionMetaFromOlderBuild(t *testing.T) {
	root := t.TempDir()
	cfg := testWindowedConfig("old")
	pts := servePoints(300, cfg.Dim, 5)
	a, err := New(Config{Root: root, FsyncEvery: 1, CheckpointEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, a, cfg)
	mustIngest(t, a, "old", pts, 50)
	if err := a.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	metaPath := filepath.Join(root, sessionsDirName, "old", metaFileName)
	raw, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	meta["accelerate"] = true
	if raw, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := New(Config{Root: root, FsyncEvery: 1, CheckpointEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Drain(context.Background())
	res, err := b.Clusters(context.Background(), "old")
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, res, cfg, pts)

	ts := httptest.NewServer(b.Handler())
	defer ts.Close()
	body := []byte(`{"id":"new","dim":3,"k":4,"chunk_points":40,"window_chunks":3,"seed":1,"accelerate":true}`)
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("create with accelerate: status %d, want 400", resp.StatusCode)
	}
}

// FuzzSessionConfig runs a create body through the request decoder,
// validate, the clusterer constructor and the admission estimate, as
// CreateSession does. Every body is either refused as a bad request or
// estimated at no less than its exact cost; none panics.
func FuzzSessionConfig(f *testing.F) {
	f.Add([]byte(`{"dim":3,"k":4,"chunk_points":40,"window_chunks":3,"seed":1}`))
	f.Add([]byte(`{"kind":"stream","dim":6,"k":8,"chunk_points":256,"summarizer":"coreset","seed":2}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var cfg SessionConfig
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))
		err := decodeBody(httptest.NewRecorder(), req, &cfg)
		if err == nil {
			err = cfg.validate()
		}
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("refused without ErrBadRequest: %v", err)
			}
			return
		}
		probe := &session{cfg: cfg}
		if probe.win, probe.str, err = cfg.newClusterer(); err != nil {
			return // CreateSession wraps this in ErrBadRequest
		}
		summaries := big.NewInt(2)
		if probe.win != nil {
			summaries.Add(big.NewInt(int64(cfg.WindowChunks)), big.NewInt(3))
		}
		exact := new(big.Int).Mul(big.NewInt(int64(cfg.ChunkPoints)), big.NewInt(8*int64(cfg.Dim)))
		retained := new(big.Int).Mul(summaries, big.NewInt(int64(cfg.K)))
		exact.Add(exact, retained.Mul(retained, big.NewInt(8*int64(cfg.Dim+1))))
		got := probe.liveCost()
		if got < 0 || big.NewInt(got).Cmp(exact) < 0 {
			t.Fatalf("estimate %d for exact cost %s (%+v)", got, exact, cfg)
		}
		// A new session is charged the exported admission estimate.
		if admit, _ := cfg.AdmissionCost(); admit != got {
			t.Fatalf("AdmissionCost %d, but a new session is charged %d (%+v)", admit, got, cfg)
		}
	})
}
