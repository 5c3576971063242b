package loadgen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// DaemonConfig shapes a DaemonDriver. Exactly one of BaseURL (an
// already-running server, which Crash/Recover refuse to touch) or Bin
// (a streamkmd binary the driver spawns, kills, and respawns itself)
// must be set.
type DaemonConfig struct {
	// BaseURL points at an existing HTTP API, e.g. an httptest server
	// in unit tests. No process management happens in this mode.
	BaseURL string
	// Bin is the streamkmd binary to spawn against StateDir.
	Bin string
	// StateDir is the spawned daemon's state directory (required with
	// Bin; the driver never deletes it — recovery needs it).
	StateDir string
	// MemBudget and MaxSessions are passed to the spawned daemon
	// (-mem-budget / -max-sessions); zero means the daemon default.
	MemBudget   int64
	MaxSessions int
	// StartTimeout bounds waiting for the spawned daemon to announce
	// its address (0 = 30s).
	StartTimeout time.Duration
	// Logf receives driver log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c DaemonConfig) startTimeout() time.Duration {
	if c.StartTimeout <= 0 {
		return 30 * time.Second
	}
	return c.StartTimeout
}

func (c DaemonConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// DaemonDriver drives a streamkmd daemon over its HTTP API: the full
// serving path — JSON decode, admission control, ingest queue, WAL
// fsync — is on the measured path, which is exactly the point.
type DaemonDriver struct {
	cfg    DaemonConfig
	client *http.Client

	mu       sync.Mutex
	base     string // current API base URL, e.g. http://127.0.0.1:41234
	cmd      *exec.Cmd
	spec     SessionSpec
	admitted int
	crashed  bool
}

// NewDaemonDriver validates the config and, in Bin mode, spawns the
// daemon.
func NewDaemonDriver(cfg DaemonConfig) (*DaemonDriver, error) {
	if (cfg.BaseURL == "") == (cfg.Bin == "") {
		return nil, errors.New("loadgen: set exactly one of DaemonConfig.BaseURL or DaemonConfig.Bin")
	}
	if cfg.Bin != "" && cfg.StateDir == "" {
		return nil, errors.New("loadgen: DaemonConfig.Bin requires StateDir")
	}
	// The default transport keeps only 2 idle conns per host; a load
	// generator running dozens of concurrent sessions against one
	// daemon would churn through ephemeral ports and measure its own
	// connection setup instead of the server.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = 512
	transport.MaxIdleConnsPerHost = 512
	d := &DaemonDriver{
		cfg:    cfg,
		client: &http.Client{Timeout: 60 * time.Second, Transport: transport},
		base:   strings.TrimRight(cfg.BaseURL, "/"),
	}
	if cfg.Bin != "" {
		if err := d.spawn(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Name identifies the driver in reports.
func (d *DaemonDriver) Name() string { return "daemon" }

// spawn starts the daemon and parses its bound address off stdout
// (the same announcement scripts/daemon_chaos.sh keys on).
func (d *DaemonDriver) spawn() error {
	args := []string{"-listen", "127.0.0.1:0", "-state", d.cfg.StateDir}
	if d.cfg.MemBudget > 0 {
		args = append(args, "-mem-budget", fmt.Sprint(d.cfg.MemBudget))
	}
	if d.cfg.MaxSessions > 0 {
		args = append(args, "-max-sessions", fmt.Sprint(d.cfg.MaxSessions))
	}
	cmd := exec.Command(d.cfg.Bin, args...)
	cmd.Stderr = io.Discard
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	addrc := make(chan string, 1)
	go func() {
		defer io.Copy(io.Discard, stdout) // keep draining after the announcement
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			// "streamkmd listening on 127.0.0.1:41234 (state ..., ...)"
			for i, f := range fields {
				if f == "on" && i+1 < len(fields) {
					addrc <- fields[i+1]
					return
				}
			}
		}
		close(addrc)
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			cmd.Process.Kill()
			cmd.Wait()
			return errors.New("loadgen: daemon exited before announcing its address")
		}
		d.mu.Lock()
		d.base = "http://" + addr
		d.cmd = cmd
		d.mu.Unlock()
		d.cfg.logf("loadgen: daemon up at http://%s (pid %d)", addr, cmd.Process.Pid)
		return nil
	case <-time.After(d.cfg.startTimeout()):
		cmd.Process.Kill()
		cmd.Wait()
		return errors.New("loadgen: daemon never announced its address")
	}
}

// do issues one JSON request and maps the daemon's refusal statuses
// onto the harness sentinels.
func (d *DaemonDriver) do(method, path string, body any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	d.mu.Lock()
	base := d.base
	d.mu.Unlock()
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	switch {
	case resp.StatusCode < 300:
		return nil
	case resp.StatusCode == http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s", ErrBackpressure, strings.TrimSpace(string(msg)))
	case resp.StatusCode == http.StatusConflict && bytes.Contains(msg, []byte("not enough data")):
		return ErrNotReady
	default:
		return fmt.Errorf("loadgen: %s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
}

func loadSessionID(i int) string { return fmt.Sprintf("load-%06d", i) }

// Open creates up to n windowed sessions, stopping at the first 503
// (the daemon's admission control refusing) and reporting how many
// were admitted.
func (d *DaemonDriver) Open(spec SessionSpec, n int) (int, error) {
	d.mu.Lock()
	d.spec = spec
	d.admitted = 0
	d.mu.Unlock()
	admitted := 0
	for i := 0; i < n; i++ {
		err := d.do(http.MethodPost, "/v1/sessions", spec.SessionConfig(i))
		if errors.Is(err, ErrBackpressure) {
			break
		}
		if err != nil {
			return admitted, err
		}
		admitted++
	}
	d.mu.Lock()
	d.admitted = admitted
	d.mu.Unlock()
	return admitted, nil
}

// Ingest posts one batch to a session.
func (d *DaemonDriver) Ingest(session int, points [][]float64) error {
	return d.do(http.MethodPost, "/v1/sessions/"+loadSessionID(session)+"/points",
		map[string]any{"points": points})
}

// Query reads a session's windowed snapshot.
func (d *DaemonDriver) Query(session int) error {
	return d.do(http.MethodGet, "/v1/sessions/"+loadSessionID(session)+"/clusters", nil)
}

// Crash SIGKILLs the spawned daemon — no drain, no flush.
func (d *DaemonDriver) Crash() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cmd == nil {
		return errors.New("loadgen: Crash requires a spawned daemon (DaemonConfig.Bin)")
	}
	if err := d.cmd.Process.Kill(); err != nil {
		return err
	}
	d.cmd.Wait()
	d.cmd = nil
	d.crashed = true
	return nil
}

// Recover respawns the daemon on the same state directory and times
// the climb back: ReadySeconds until /readyz answers 200 (WAL replay
// and checkpoint decode happen before the listener exists, so this is
// the real recovery cost), QuerySeconds until every admitted session
// answers a snapshot query again.
func (d *DaemonDriver) Recover() (RecoveryTiming, error) {
	var t RecoveryTiming
	d.mu.Lock()
	if !d.crashed {
		d.mu.Unlock()
		return t, errors.New("loadgen: Recover without Crash")
	}
	d.crashed = false
	d.mu.Unlock()
	start := time.Now()
	if err := d.spawn(); err != nil {
		return t, err
	}
	deadline := start.Add(d.cfg.startTimeout())
	for {
		if err := d.do(http.MethodGet, "/readyz", nil); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return t, errors.New("loadgen: recovered daemon never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.ReadySeconds = time.Since(start).Seconds()
	d.mu.Lock()
	admitted := d.admitted
	d.mu.Unlock()
	for i := 0; i < admitted; i++ {
		for {
			err := d.Query(i)
			if err == nil || errors.Is(err, ErrNotReady) {
				break
			}
			if time.Now().After(deadline) {
				return t, fmt.Errorf("loadgen: session %d not answering after recovery: %v", i, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	t.QuerySeconds = time.Since(start).Seconds()
	t.Sessions = admitted
	return t, nil
}

// Close drains the spawned daemon with SIGTERM (falling back to
// SIGKILL if it will not die); BaseURL mode is a no-op.
func (d *DaemonDriver) Close() error {
	d.mu.Lock()
	cmd := d.cmd
	d.cmd = nil
	d.mu.Unlock()
	if cmd == nil {
		return nil
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-done
		return errors.New("loadgen: daemon ignored SIGTERM; killed")
	}
}

// BaseURL returns the driver's current API base (tests and logging).
func (d *DaemonDriver) BaseURL() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.base
}

// BuildDaemon compiles cmd/streamkmd into dir and returns the binary
// path — the same `go build` idiom scripts/daemon_chaos.sh uses, so
// cmd/loadgen and check.sh need no pre-built artifact.
func BuildDaemon(dir string) (string, error) {
	bin := dir + string(os.PathSeparator) + "streamkmd"
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/streamkmd")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("loadgen: building streamkmd: %v\n%s", err, out)
	}
	return bin, nil
}
