package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"streamkm/internal/loadgen"
	"streamkm/internal/obs"
)

// daemon is one streamkmd process, spawned, announced and drained by
// the load harness's DaemonDriver. Requests go through a client of its
// own because the benchmark needs the response bodies (answers to
// check, /metrics to read), which DaemonDriver's Ingest and Query drop.
type daemon struct {
	drv    *loadgen.DaemonDriver
	base   string
	client *http.Client
}

// startDaemon spawns streamkmd on a fresh state directory and waits
// until /readyz answers.
func startDaemon(bin, state string, maxSessions int) (*daemon, error) {
	drv, err := loadgen.NewDaemonDriver(loadgen.DaemonConfig{Bin: bin, StateDir: state, MaxSessions: maxSessions})
	if err != nil {
		return nil, fmt.Errorf("start streamkmd: %w", err)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = clients + 4
	d := &daemon{drv: drv, base: drv.BaseURL(), client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
	for deadline := time.Now().Add(30 * time.Second); ; {
		if _, err := d.call(http.MethodGet, "/readyz", nil); err == nil {
			return d, nil
		} else if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("streamkmd not ready: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// call issues one request and returns the response body; any status
// other than 2xx is an error.
func (d *daemon) call(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit; a
// failed drain is an error.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.drv.Close(); err != nil {
		return fmt.Errorf("streamkmd drain: %w", err)
	}
	return nil
}

// kill stops the daemon with SIGKILL and waits for it to exit.
func (d *daemon) kill() error {
	d.client.CloseIdleConnections()
	return d.drv.Crash()
}

// metrics reads the daemon's own counters and histograms.
func (d *daemon) metrics() (obs.Snapshot, error) {
	body, err := d.call(http.MethodGet, "/metrics", nil)
	if err != nil {
		return obs.Snapshot{}, err
	}
	var rep obs.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return obs.Snapshot{}, fmt.Errorf("decode /metrics: %w", err)
	}
	return rep.Metrics, nil
}
