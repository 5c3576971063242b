package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// End-to-end crash test against the real binary: build cmd/streamkmd,
// ingest over HTTP with per-point fsync, kill -9 mid-conversation,
// restart on the same state directory, and require the recovered
// answer to be byte-identical across a further graceful SIGTERM
// restart. This is the paper's "one pass, resumable" contract pushed
// all the way out to the process boundary.

// daemon wraps a running streamkmd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "streamkmd")
	cmd := exec.Command("go", "build", "-o", bin, "streamkm/cmd/streamkmd")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building streamkmd: %v\n%s", err, out)
	}
	return bin
}

func startDaemon(t *testing.T, bin, state string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-listen", "127.0.0.1:0", "-state", state}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The first stdout line announces the bound address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("daemon exited before announcing its address: %v", sc.Err())
	}
	line := sc.Text()
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[1] != "listening" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("unexpected startup line: %q", line)
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained
	return &daemon{cmd: cmd, addr: fields[3]}
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func (d *daemon) post(t *testing.T, path string, body any) []byte {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.url(path), "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		t.Fatalf("POST %s: %d %s", path, resp.StatusCode, out)
	}
	return out
}

func (d *daemon) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get(d.url(path))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		t.Fatalf("GET %s: %d %s", path, resp.StatusCode, out)
	}
	return out
}

// sigterm asks for a graceful drain and requires exit code 0.
func (d *daemon) sigterm(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM drain must exit 0: %v", err)
		}
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		t.Fatal("daemon did not drain within 30s of SIGTERM")
	}
}

// sigkill is the crash: no drain, no flush, no goodbye.
func (d *daemon) sigkill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()
}

func TestDaemonSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and crashes a subprocess")
	}
	bin := buildDaemon(t)
	state := t.TempDir()
	pts := servePoints(300, 3, 70)

	d := startDaemon(t, bin, state)
	cfg := testWindowedConfig("crash")
	cfg.FsyncEvery = 1 // every acknowledged point is durable
	d.post(t, "/v1/sessions", cfg)
	var durable uint64
	for i := 0; i < 200; i += 25 {
		var res IngestResult
		out := d.post(t, "/v1/sessions/crash/points", map[string]any{"points": pts[i : i+25]})
		if err := json.Unmarshal(out, &res); err != nil {
			t.Fatal(err)
		}
		durable = res.Durable
	}
	if durable != 200 {
		t.Fatalf("durable = %d after 200 acknowledged points with fsync-every 1", durable)
	}
	d.sigkill(t)

	// Restart 1: recover, verify position, keep ingesting, then
	// record the answer.
	d = startDaemon(t, bin, state)
	var info SessionInfo
	if err := json.Unmarshal(d.get(t, "/v1/sessions/crash"), &info); err != nil {
		t.Fatal(err)
	}
	if info.Consumed < 200 {
		t.Fatalf("recovered %d points; 200 were acknowledged durable", info.Consumed)
	}
	for i := int(info.Consumed); i < 300; i += 25 {
		d.post(t, "/v1/sessions/crash/points", map[string]any{"points": pts[i : i+25]})
	}
	first := d.get(t, "/v1/sessions/crash/clusters")
	var firstRes ClustersResult
	if err := json.Unmarshal(first, &firstRes); err != nil {
		t.Fatal(err)
	}
	if firstRes.Consumed != 300 {
		t.Fatalf("consumed %d, want 300", firstRes.Consumed)
	}
	// The daemon's answer must equal an uninterrupted in-process run.
	assertMatchesReference(t, &firstRes, cfg, pts)
	d.sigterm(t)

	// Restart 2 (after the graceful drain): the answer must be
	// byte-identical to the pre-restart one.
	d = startDaemon(t, bin, state)
	second := d.get(t, "/v1/sessions/crash/clusters")
	if !bytes.Equal(first, second) {
		t.Fatalf("clusters JSON changed across graceful restart:\n %s\n %s", first, second)
	}
	// Health endpoint carries the build identity even for "dev" builds.
	var hz map[string]any
	if err := json.Unmarshal(d.get(t, "/healthz"), &hz); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"version", "revision", "go", "sessions"} {
		if _, ok := hz[k]; !ok {
			t.Fatalf("/healthz missing %q: %v", k, hz)
		}
	}
	d.sigterm(t)
}

// TestDaemonVersionFlag checks -version prints the stamp and exits 0.
func TestDaemonVersionFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a subprocess")
	}
	bin := buildDaemon(t)
	out, err := exec.Command(bin, "-version").CombinedOutput()
	if err != nil {
		t.Fatalf("-version: %v\n%s", err, out)
	}
	if !strings.HasPrefix(string(out), "streamkmd ") {
		t.Fatalf("unexpected -version output: %q", out)
	}
}

// TestDaemonSIGTERMRightAfterAnnounce sends SIGTERM the moment the
// listen line is read, before any request: the drain handler must
// already be installed, so every run exits 0 instead of dying to the
// default signal action.
func TestDaemonSIGTERMRightAfterAnnounce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a subprocess")
	}
	bin := buildDaemon(t)
	for i := 0; i < 20; i++ {
		d := startDaemon(t, bin, t.TempDir())
		d.sigterm(t)
	}
}
