// Command loadgen is the production-scale load harness CLI: it replays
// deterministic corpora against the in-process engine and/or a spawned
// streamkmd daemon through four capacity scenarios — throughput
// ceiling, latency under load, governor degradation, and crash
// recovery — and writes a versioned streamkm.load-report/v1 JSON
// document whose gates scripts/load_gate.sh compares against the
// committed baseline.
//
// Usage:
//
//	go run ./cmd/loadgen -profile smoke -out load-smoke.json
//	go run ./cmd/loadgen -profile ci -driver daemon -out load-ci.json
//	go run ./cmd/loadgen -scenarios throughput,latency -driver engine
//
// Profiles fix every knob so runs are comparable: the committed
// LOAD_PR10.json baseline and the CI load job both use -profile ci.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"streamkm/internal/loadgen"
)

// profile bundles every scenario knob. Two runs with the same profile
// measure the same workload, which is what makes gate comparisons
// against a committed baseline meaningful.
type profile struct {
	name    string
	corpus  loadgen.CorpusSpec
	session loadgen.SessionSpec

	sessions int // throughput/latency/recovery session count
	batch    int // points per ingest batch

	tpStartRate float64
	tpMaxRate   float64
	tpStep      time.Duration

	latRate       float64
	latDuration   time.Duration
	latQueryEvery int

	degSessions int // offered; the budget admits degAdmit of them
	degAdmit    int
	degRate     float64
	degDuration time.Duration

	recPrefill int // points per session before the crash
}

func profiles() map[string]profile {
	base := loadgen.CorpusSpec{Shape: loadgen.ShapeMixture, Dim: 6, Clusters: 8, Seed: 1}
	return map[string]profile{
		// smoke: seconds end-to-end; wired into scripts/check.sh. Not
		// gated — it proves the harness runs, not what the host can do.
		"smoke": {
			name:    "smoke",
			corpus:  base,
			session: loadgen.SessionSpec{Dim: 6, K: 4, ChunkPoints: 64, WindowChunks: 3, Seed: 1},

			sessions: 2,
			batch:    32,

			tpStartRate: 2000,
			tpMaxRate:   32000,
			tpStep:      300 * time.Millisecond,

			latRate:       2000,
			latDuration:   600 * time.Millisecond,
			latQueryEvery: 4,

			degSessions: 4,
			degAdmit:    2,
			degRate:     2000,
			degDuration: 400 * time.Millisecond,

			recPrefill: 128,
		},
		// ci: the gated profile. Minutes end-to-end; enough sessions and
		// rate to reach the daemon's real saturation behavior.
		"ci": {
			name:    "ci",
			corpus:  base,
			session: loadgen.SessionSpec{Dim: 6, K: 8, ChunkPoints: 256, WindowChunks: 4, Seed: 1},

			sessions: 64,
			batch:    64,

			tpStartRate: 8000,
			tpMaxRate:   17e6, // 8000 * 2^11; the engine saturates well below this
			tpStep:      1500 * time.Millisecond,

			latRate:       16000,
			latDuration:   5 * time.Second,
			latQueryEvery: 8,

			degSessions: 128,
			degAdmit:    64,
			degRate:     16000,
			degDuration: 3 * time.Second,

			recPrefill: 512,
		},
	}
}

func main() {
	var (
		profileName = flag.String("profile", "ci", "workload profile: smoke or ci")
		driverSel   = flag.String("driver", "both", "system under test: engine, daemon, or both")
		scenarioSel = flag.String("scenarios", "all", "comma-separated subset of throughput,latency,degradation,recovery (or all)")
		outPath     = flag.String("out", "", "write the load report JSON here (default: print to stdout)")
		shape       = flag.String("shape", "", "override the corpus shape: mixture, drift, burst, adversarial")
		seed        = flag.Uint64("seed", 0, "override the corpus/session seed (0 = profile default)")
		sessions    = flag.Int("sessions", 0, "override the session count (0 = profile default)")
		daemonBin   = flag.String("daemon-bin", "", "streamkmd binary to drive (default: go build ./cmd/streamkmd into a temp dir)")
		verbose     = flag.Bool("v", false, "log each throughput step and daemon spawn")
	)
	flag.Parse()

	prof, ok := profiles()[*profileName]
	if !ok {
		fatalf("unknown profile %q (want smoke or ci)", *profileName)
	}
	if *shape != "" {
		prof.corpus.Shape = *shape
	}
	if *seed != 0 {
		prof.corpus.Seed = *seed
		prof.session.Seed = *seed
	}
	if *sessions > 0 {
		prof.sessions = *sessions
	}
	scenarios, err := parseScenarios(*scenarioSel)
	if err != nil {
		fatalf("%v", err)
	}
	drivers, err := parseDrivers(*driverSel)
	if err != nil {
		fatalf("%v", err)
	}

	corpus, err := loadgen.NewCorpus(prof.corpus)
	if err != nil {
		fatalf("%v", err)
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}

	run := runner{
		prof:      prof,
		corpus:    corpus,
		scenarios: scenarios,
		daemonBin: *daemonBin,
		logf:      logf,
	}

	report := &loadgen.Report{
		Schema:  loadgen.ReportSchema,
		Profile: prof.name,
		Corpus:  corpus.Spec(),
		Session: prof.session,
	}
	for _, name := range drivers {
		start := time.Now()
		dr, err := run.driver(name)
		if err != nil {
			fatalf("driver %s: %v", name, err)
		}
		report.Drivers = append(report.Drivers, dr)
		fmt.Fprintf(os.Stderr, "loadgen: driver %s done in %.1fs\n", name, time.Since(start).Seconds())
	}
	report.BuildGates()
	if err := report.Validate(); err != nil {
		fatalf("%v", err)
	}

	printSummary(report)
	blob, err := report.JSON()
	if err != nil {
		fatalf("%v", err)
	}
	if *outPath == "" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(*outPath, blob, 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: report written to %s\n", *outPath)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}

func parseScenarios(sel string) (map[string]bool, error) {
	all := map[string]bool{
		loadgen.ScenarioThroughput:  true,
		loadgen.ScenarioLatency:     true,
		loadgen.ScenarioDegradation: true,
		loadgen.ScenarioRecovery:    true,
	}
	if sel == "all" || sel == "" {
		return all, nil
	}
	out := map[string]bool{}
	for _, s := range strings.Split(sel, ",") {
		s = strings.TrimSpace(s)
		if !all[s] {
			return nil, fmt.Errorf("unknown scenario %q", s)
		}
		out[s] = true
	}
	return out, nil
}

func parseDrivers(sel string) ([]string, error) {
	switch sel {
	case "engine":
		return []string{"engine"}, nil
	case "daemon":
		return []string{"daemon"}, nil
	case "both", "":
		return []string{"engine", "daemon"}, nil
	default:
		return nil, fmt.Errorf("unknown driver %q (want engine, daemon, or both)", sel)
	}
}

// runner executes the selected scenarios against one driver kind. Each
// scenario gets a fresh system under test: a new EngineDriver, or a
// daemon spawned onto a fresh state directory, so scenarios cannot
// contaminate each other.
type runner struct {
	prof      profile
	corpus    *loadgen.Corpus
	scenarios map[string]bool
	daemonBin string
	logf      func(format string, args ...any)

	tmpRoot string // lazily created scratch space for daemon state dirs
}

func (r *runner) driver(name string) (loadgen.DriverReport, error) {
	switch name {
	case "engine":
		return r.engine()
	case "daemon":
		return r.daemon()
	default:
		return loadgen.DriverReport{}, fmt.Errorf("unknown driver %q", name)
	}
}

// degBudget sizes the induced governor budget so that of degSessions
// offered, only degAdmit fit — the degradation scenario's premise. Each
// session costs the daemon's own admission estimate.
func (r *runner) degBudget() (int64, error) {
	cost, ok := r.prof.session.SessionConfig(0).AdmissionCost()
	if !ok || cost > math.MaxInt64/int64(r.prof.degAdmit) {
		return 0, fmt.Errorf("degradation budget for %d sessions of %+v is beyond int64", r.prof.degAdmit, r.prof.session)
	}
	return cost * int64(r.prof.degAdmit), nil
}

func (r *runner) engine() (loadgen.DriverReport, error) {
	p := r.prof
	rep := loadgen.DriverReport{Driver: "engine"}
	if r.scenarios[loadgen.ScenarioThroughput] {
		d := loadgen.NewEngineDriver(nil)
		res, err := loadgen.RunThroughput(d, r.corpus, loadgen.ThroughputOptions{
			Sessions: p.sessions, BatchPoints: p.batch,
			StartRate: p.tpStartRate, MaxRate: p.tpMaxRate, StepDuration: p.tpStep,
			Spec: p.session, Logf: r.logf,
		})
		d.Close()
		if err != nil {
			return rep, err
		}
		rep.Throughput = res
	}
	if r.scenarios[loadgen.ScenarioLatency] {
		d := loadgen.NewEngineDriver(nil)
		res, err := loadgen.RunLatency(d, r.corpus, loadgen.LatencyOptions{
			Sessions: p.sessions, BatchPoints: p.batch,
			RatePPS: p.latRate, Duration: p.latDuration, QueryEveryBatches: p.latQueryEvery,
			Spec: p.session,
		})
		d.Close()
		if err != nil {
			return rep, err
		}
		rep.Latency = res
	}
	if r.scenarios[loadgen.ScenarioDegradation] {
		budget, err := r.degBudget()
		if err != nil {
			return rep, err
		}
		d := loadgen.NewEngineDriver(nil)
		d.MemoryBudget = budget
		res, err := loadgen.RunDegradation(d, r.corpus, loadgen.DegradationOptions{
			Sessions: p.degSessions, BatchPoints: p.batch,
			RatePPS: p.degRate, Duration: p.degDuration,
			Spec: p.session,
		})
		d.Close()
		if err != nil {
			return rep, err
		}
		rep.Degradation = res
	}
	if r.scenarios[loadgen.ScenarioRecovery] {
		d := loadgen.NewEngineDriver(nil)
		res, err := loadgen.RunRecovery(d, r.corpus, loadgen.RecoveryOptions{
			Sessions: p.sessions, BatchPoints: p.batch,
			PrefillPoints: p.recPrefill,
			Spec:          p.session,
		})
		d.Close()
		if err != nil {
			return rep, err
		}
		rep.Recovery = res
	}
	return rep, nil
}

// ensureDaemonBin builds streamkmd once per process unless -daemon-bin
// supplied one.
func (r *runner) ensureDaemonBin() (string, error) {
	if r.daemonBin != "" {
		return r.daemonBin, nil
	}
	root, err := r.scratch()
	if err != nil {
		return "", err
	}
	bin, err := loadgen.BuildDaemon(root)
	if err != nil {
		return "", err
	}
	r.daemonBin = bin
	return bin, nil
}

func (r *runner) scratch() (string, error) {
	if r.tmpRoot != "" {
		return r.tmpRoot, nil
	}
	root, err := os.MkdirTemp("", "loadgen-*")
	if err != nil {
		return "", err
	}
	r.tmpRoot = root
	return root, nil
}

// spawnDaemon starts a fresh daemon on its own state directory; the
// caller must Close it.
func (r *runner) spawnDaemon(label string, memBudget int64) (*loadgen.DaemonDriver, error) {
	bin, err := r.ensureDaemonBin()
	if err != nil {
		return nil, err
	}
	root, err := r.scratch()
	if err != nil {
		return nil, err
	}
	state, err := os.MkdirTemp(root, "state-"+label+"-*")
	if err != nil {
		return nil, err
	}
	return loadgen.NewDaemonDriver(loadgen.DaemonConfig{
		Bin:      bin,
		StateDir: state,
		// Session admission is governed by memory in the degradation
		// scenario; elsewhere leave generous headroom so the session
		// limit is never the variable under test.
		MaxSessions: r.prof.degSessions + r.prof.sessions,
		MemBudget:   memBudget,
		Logf:        r.logf,
	})
}

func (r *runner) daemon() (loadgen.DriverReport, error) {
	p := r.prof
	rep := loadgen.DriverReport{Driver: "daemon"}
	if r.scenarios[loadgen.ScenarioThroughput] {
		d, err := r.spawnDaemon(loadgen.ScenarioThroughput, 0)
		if err != nil {
			return rep, err
		}
		res, err := loadgen.RunThroughput(d, r.corpus, loadgen.ThroughputOptions{
			Sessions: p.sessions, BatchPoints: p.batch,
			StartRate: p.tpStartRate, MaxRate: p.tpMaxRate, StepDuration: p.tpStep,
			Spec: p.session, Logf: r.logf,
		})
		d.Close()
		if err != nil {
			return rep, err
		}
		rep.Throughput = res
	}
	if r.scenarios[loadgen.ScenarioLatency] {
		d, err := r.spawnDaemon(loadgen.ScenarioLatency, 0)
		if err != nil {
			return rep, err
		}
		res, err := loadgen.RunLatency(d, r.corpus, loadgen.LatencyOptions{
			Sessions: p.sessions, BatchPoints: p.batch,
			RatePPS: p.latRate, Duration: p.latDuration, QueryEveryBatches: p.latQueryEvery,
			Spec: p.session,
		})
		d.Close()
		if err != nil {
			return rep, err
		}
		rep.Latency = res
	}
	if r.scenarios[loadgen.ScenarioDegradation] {
		budget, err := r.degBudget()
		if err != nil {
			return rep, err
		}
		d, err := r.spawnDaemon(loadgen.ScenarioDegradation, budget)
		if err != nil {
			return rep, err
		}
		res, err := loadgen.RunDegradation(d, r.corpus, loadgen.DegradationOptions{
			Sessions: p.degSessions, BatchPoints: p.batch,
			RatePPS: p.degRate, Duration: p.degDuration,
			Spec: p.session,
		})
		d.Close()
		if err != nil {
			return rep, err
		}
		rep.Degradation = res
	}
	if r.scenarios[loadgen.ScenarioRecovery] {
		d, err := r.spawnDaemon(loadgen.ScenarioRecovery, 0)
		if err != nil {
			return rep, err
		}
		res, err := loadgen.RunRecovery(d, r.corpus, loadgen.RecoveryOptions{
			Sessions: p.sessions, BatchPoints: p.batch,
			PrefillPoints: p.recPrefill,
			Spec:          p.session,
		})
		d.Close()
		if err != nil {
			return rep, err
		}
		rep.Recovery = res
	}
	return rep, nil
}

// printSummary writes the human-readable capacity table to stderr so
// stdout stays clean for the JSON report.
func printSummary(r *loadgen.Report) {
	fmt.Fprintf(os.Stderr, "\nload report (%s, profile %s, shape %s)\n",
		r.Schema, r.Profile, r.Corpus.Shape)
	for _, d := range r.Drivers {
		fmt.Fprintf(os.Stderr, "  driver %s\n", d.Driver)
		if t := d.Throughput; t != nil {
			fmt.Fprintf(os.Stderr, "    throughput: ceiling %.0f pts/s over %d sessions (saturated=%t, %d steps)\n",
				t.CeilingPPS, t.Sessions, t.Saturated, len(t.Steps))
		}
		if l := d.Latency; l != nil {
			fmt.Fprintf(os.Stderr, "    latency:    ingest p50=%.2fms p99=%.2fms; query p50=%.2fms p99=%.2fms (%d queries)\n",
				l.Ingest.P50Ms, l.Ingest.P99Ms, l.Query.P50Ms, l.Query.P99Ms, l.Queries)
		}
		if g := d.Degradation; g != nil {
			fmt.Fprintf(os.Stderr, "    degraded:   %d/%d sessions admitted, %.0f pts/s sustained, %.1f%% ingest rejected\n",
				g.AdmittedSessions, g.OfferedSessions, g.AchievedPPS, 100*g.RejectFrac)
		}
		if rec := d.Recovery; rec != nil {
			fmt.Fprintf(os.Stderr, "    recovery:   ready in %.2fs, all %d sessions answering in %.2fs\n",
				rec.ReadySeconds, rec.Sessions, rec.QuerySeconds)
		}
	}
	fmt.Fprintln(os.Stderr)
}
