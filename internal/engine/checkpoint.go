package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"streamkm/internal/core"
	"streamkm/internal/dataset"
)

// The execution journal is the engine's answer to Conquest's query
// migration (§4): it records every completed partial-operator output
// keyed by (cell, chunk), so a crashed physical plan can restart — in
// this process or, via Encode/Decode, in another one — re-running only
// the chunks whose results were lost in flight. Merges are *not*
// journaled: they are deterministic given the journaled partials (each
// cell's merge RNG is pre-derived from the query seed), so recovery
// re-derives them, keeping the snapshot small and the format simple.
//
// Layout (SKMJ v4, little-endian):
//
//	magic    [4]byte "SKMJ"
//	version  uint16 = 4
//	operator uint16 length + canonical core.SummarizerSpec encoding
//	seed     uint64 query seed
//	strategy uint8  slicing strategy (dataset.SplitStrategy)
//	chunk    uint32 admitted chunk size in points
//	entries  uint32, then entries x { cell uint32, chunk uint32,
//	                   total uint32, elapsedNs int64, weighted-set block }
//	leases   uint32 (may be 0), then leases x { cell uint32,
//	                   chunk uint32, attempt uint32, workerLen uint16,
//	                   worker bytes, errLen uint16, err bytes }
//
// The operator, seed, strategy and chunk size name the run that filled
// the journal: together they fix every chunk's points and random
// stream (core.SliceCell), so a resume under any other values would
// merge summaries of different chunks. Versions 1–3 recorded only the
// operator and are refused.
const (
	journalMagic      = "SKMJ"
	journalVersion    = 4
	journalMaxStrLen  = 1 << 12
	journalMaxEntries = 1 << 24
)

// ErrBadJournal is wrapped by journal decoding errors.
var ErrBadJournal = errors.New("engine: malformed execution journal")

// ErrJournalMismatch is returned when an execution tries to resume a
// journal that a different run filled — another summarizer operator,
// seed, slicing strategy or admitted chunk size. Merging its summaries
// would be silently wrong, so the resume is refused up front.
var ErrJournalMismatch = errors.New("engine: journal belongs to another run")

// runIdentity is what a journal records about the run that filled it.
type runIdentity struct {
	// operator is the canonical spec encoding of the summarizer.
	operator    string
	seed        uint64
	strategy    dataset.SplitStrategy
	chunkPoints int
}

type journalKey struct{ cell, chunk int }

type journalEntry struct {
	total     int
	elapsed   time.Duration
	centroids *dataset.WeightedSet
}

// LeaseRecord audits one assignment of a chunk to a remote worker: the
// exactly-once ledger of a distributed execution. A chunk computed on
// the first try has one record with an empty Err; a chunk re-leased
// after a worker death has one record per failed lease (Err set)
// followed by the surviving worker's completing record. Attempt is the
// 1-based position in the chunk's assignment trail.
type LeaseRecord struct {
	Cell, Chunk int
	Worker      string
	Attempt     int
	// Err is the failure that ended the lease ("" = completed).
	Err string
}

// Journal accumulates completed partial outputs during an execution.
// It is safe for concurrent use. Every execution records through a
// journal (the unified executor merges cells straight out of it); a
// per-cell done/total index keeps the readiness check O(1) per record
// instead of a scan over all journaled chunks.
type Journal struct {
	mu     sync.Mutex
	parts  map[journalKey]journalEntry
	done   map[int]int // cell -> journaled chunk count
	totals map[int]int // cell -> total chunk count
	leases []LeaseRecord
	// run names the run that filled the journal (operator "" until the
	// first execution binds one).
	run runIdentity
}

// NewJournal returns an empty journal.
func NewJournal() *Journal {
	return &Journal{
		parts:  map[journalKey]journalEntry{},
		done:   map[int]int{},
		totals: map[int]int{},
	}
}

// put stores one entry and maintains the per-cell index; j.mu must be
// held. It reports false for a duplicate key (nothing stored).
func (j *Journal) put(k journalKey, e journalEntry) bool {
	if _, ok := j.parts[k]; ok {
		return false
	}
	j.parts[k] = e
	j.done[k.cell]++
	j.totals[k.cell] = e.total
	return true
}

// record stores one completed partial output. It reports false for a
// duplicate (cell, chunk) — an already-journaled chunk delivered again,
// e.g. by an at-least-once network retry — which is counted but never
// stored twice: the journal is the last line of defense against
// double-counting a chunk into a merge.
func (j *Journal) record(p partialOut) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.put(journalKey{p.cellIdx, p.chunkIdx}, journalEntry{
		total:     p.total,
		elapsed:   p.res.Elapsed,
		centroids: p.res.Centroids,
	})
}

// Operator returns the canonical spec encoding of the summarizer bound
// to the journal ("" when no execution has bound one yet).
func (j *Journal) Operator() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.run.operator
}

// operatorIdentity normalizes a spec encoding for resume-compatibility
// comparison: the restart fan-out (workers), which never changes the
// summary bits, is dropped, so a checkpoint taken on an 8-core worker
// pool resumes on a laptop.
func operatorIdentity(enc string) string {
	spec, err := core.ParseSummarizerSpec(enc)
	if err != nil {
		return enc
	}
	delete(spec.Params, "workers")
	return spec.Encode()
}

// bind ties the journal to the executing run. The first binding
// records it; later bindings must name the same seed, strategy and
// chunk size and an identity-compatible operator, or the resume is
// refused with ErrJournalMismatch.
func (j *Journal) bind(run runIdentity) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := j.run
	if rec.operator == "" {
		j.run = run
		return nil
	}
	var diff string
	switch {
	case operatorIdentity(rec.operator) != operatorIdentity(run.operator):
		diff = fmt.Sprintf("operator %q, query runs %q", rec.operator, run.operator)
	case rec.seed != run.seed:
		diff = fmt.Sprintf("seed %d, query runs %d", rec.seed, run.seed)
	case rec.strategy != run.strategy:
		diff = fmt.Sprintf("strategy %v, query runs %v", rec.strategy, run.strategy)
	case rec.chunkPoints != run.chunkPoints:
		diff = fmt.Sprintf("chunk size %d, query runs %d", rec.chunkPoints, run.chunkPoints)
	default:
		j.run.operator = run.operator
		return nil
	}
	return fmt.Errorf("%w: journal was written with %s", ErrJournalMismatch, diff)
}

// recordLeases appends a chunk's assignment trail — one record per
// worker that held its lease, in order — to the lease ledger.
func (j *Journal) recordLeases(cell, chunk int, trail []Assignment) {
	if len(trail) == 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, a := range trail {
		j.leases = append(j.leases, LeaseRecord{
			Cell: cell, Chunk: chunk, Worker: a.Worker, Attempt: i + 1, Err: a.Err,
		})
	}
}

// Leases returns a snapshot of the lease ledger in deterministic
// (cell, chunk, attempt) order.
func (j *Journal) Leases() []LeaseRecord {
	j.mu.Lock()
	out := make([]LeaseRecord, len(j.leases))
	copy(out, j.leases)
	j.mu.Unlock()
	sortLeases(out)
	return out
}

// sortLeases orders records by (cell, chunk, attempt, worker, err) — the
// canonical order for Encode and Leases, making equal ledgers compare
// (and serialize) identically even though clones append concurrently.
func sortLeases(ls []LeaseRecord) {
	sort.Slice(ls, func(a, b int) bool {
		if ls[a].Cell != ls[b].Cell {
			return ls[a].Cell < ls[b].Cell
		}
		if ls[a].Chunk != ls[b].Chunk {
			return ls[a].Chunk < ls[b].Chunk
		}
		if ls[a].Attempt != ls[b].Attempt {
			return ls[a].Attempt < ls[b].Attempt
		}
		if ls[a].Worker != ls[b].Worker {
			return ls[a].Worker < ls[b].Worker
		}
		return ls[a].Err < ls[b].Err
	})
}

// dropCell forgets a cell's journaled chunks — called after the cell is
// merged when the journal is internal to one execution, so a plain run
// doesn't accumulate every partial result for the whole plan.
func (j *Journal) dropCell(cell int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	total := j.totals[cell]
	for c := 0; c < total; c++ {
		delete(j.parts, journalKey{cell, c})
	}
	delete(j.done, cell)
	delete(j.totals, cell)
}

// has reports whether the chunk's output is journaled.
func (j *Journal) has(cell, chunk int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.parts[journalKey{cell, chunk}]
	return ok
}

// Chunks returns the number of journaled partial outputs.
func (j *Journal) Chunks() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.parts)
}

// CellProgress returns how many of the cell's chunks are journaled and
// the cell's total chunk count (0, 0 when nothing is journaled for it).
func (j *Journal) CellProgress(cell int) (done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done[cell], j.totals[cell]
}

// cellParts returns the cell's partial results in chunk order, or
// ok=false when the cell is not yet complete.
func (j *Journal) cellParts(cell int) (parts []*dataset.WeightedSet, elapsed time.Duration, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	total, have := j.totals[cell]
	if !have || j.done[cell] < total {
		return nil, 0, false
	}
	parts = make([]*dataset.WeightedSet, total)
	for c := 0; c < total; c++ {
		e, have := j.parts[journalKey{cell, c}]
		if !have {
			return nil, 0, false
		}
		parts[c] = e.centroids
		elapsed += e.elapsed
	}
	return parts, elapsed, true
}

// availableParts returns whichever of the cell's partial results the
// journal holds, in chunk order, plus the chunk indices that are
// missing — the degraded finalizer's view of a cell that will never
// complete. total is the cell's planned chunk count (the journal may
// not know it when no chunk ever landed).
func (j *Journal) availableParts(cell, total int) (parts []*dataset.WeightedSet, elapsed time.Duration, missing []int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for c := 0; c < total; c++ {
		e, have := j.parts[journalKey{cell, c}]
		if !have {
			missing = append(missing, c)
			continue
		}
		parts = append(parts, e.centroids)
		elapsed += e.elapsed
	}
	return parts, elapsed, missing
}

// The fixed-size records of the v4 layout, written and read whole by
// encoding/binary (packed, little-endian).
type (
	journalRunRecord struct {
		Seed     uint64
		Strategy uint8
		Chunk    uint32
		Entries  uint32
	}
	journalEntryRecord struct {
		Cell, Chunk, Total uint32
		ElapsedNs          int64
	}
	journalLeaseRecord struct{ Cell, Chunk, Attempt uint32 }
)

// Encode serializes the journal — the engine's migration checkpoint.
// Entries are written in (cell, chunk) order so equal journals produce
// identical bytes. A journal no execution has bound yet names no run
// and cannot be encoded.
func (j *Journal) Encode(w io.Writer) error {
	j.mu.Lock()
	keys := make([]journalKey, 0, len(j.parts))
	entries := make(map[journalKey]journalEntry, len(j.parts))
	for k, e := range j.parts {
		keys = append(keys, k)
		entries[k] = e
	}
	leases := make([]LeaseRecord, len(j.leases))
	copy(leases, j.leases)
	run := j.run
	j.mu.Unlock()
	if run.operator == "" {
		return errors.New("engine: journal is not bound to a run")
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].cell != keys[b].cell {
			return keys[a].cell < keys[b].cell
		}
		return keys[a].chunk < keys[b].chunk
	})
	sortLeases(leases)

	// The first error stops all further writes and is returned.
	bw := bufio.NewWriter(w)
	var err error
	put := func(v any) {
		if err == nil {
			err = binary.Write(bw, binary.LittleEndian, v)
		}
	}
	putString := func(s string) {
		if err == nil {
			err = writeJournalString(bw, s)
		}
	}
	put([]byte(journalMagic))
	put(uint16(journalVersion))
	putString(run.operator)
	put(journalRunRecord{run.seed, uint8(run.strategy), uint32(run.chunkPoints), uint32(len(keys))})
	for _, k := range keys {
		e := entries[k]
		put(journalEntryRecord{uint32(k.cell), uint32(k.chunk), uint32(e.total), int64(e.elapsed)})
		if err == nil {
			err = dataset.EncodeWeightedSet(bw, e.centroids)
		}
	}
	put(uint32(len(leases)))
	for _, l := range leases {
		put(journalLeaseRecord{uint32(l.Cell), uint32(l.Chunk), uint32(l.Attempt)})
		putString(l.Worker)
		putString(l.Err)
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// writeJournalString writes a length-prefixed string (uint16 length).
func writeJournalString(w io.Writer, s string) error {
	if len(s) > journalMaxStrLen {
		s = s[:journalMaxStrLen]
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// readJournalString reads a string written by writeJournalString.
func readJournalString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if int(n) > journalMaxStrLen {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// DecodeJournal reconstructs a journal from its serialized form.
// Journals older than SKMJ v4 do not name their run and are refused.
func DecodeJournal(r io.Reader) (*Journal, error) {
	br := bufio.NewReader(r)
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadJournal, fmt.Sprintf(format, args...))
	}
	get := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, bad("short header: %v", err)
	}
	if string(magic) != journalMagic {
		return nil, bad("bad magic %q", magic)
	}
	var version uint16
	if err := get(&version); err != nil {
		return nil, bad("%v", err)
	}
	if version != journalVersion {
		return nil, bad("unsupported version %d (want %d)", version, journalVersion)
	}
	operator, err := readJournalString(br)
	if err != nil {
		return nil, bad("operator record: %v", err)
	}
	var run journalRunRecord
	if err := get(&run); err != nil {
		return nil, bad("run record: %v", err)
	}
	switch {
	case operator == "":
		return nil, bad("empty operator record")
	case dataset.SplitStrategy(run.Strategy) > dataset.SplitSpatial:
		return nil, bad("unknown strategy %d", run.Strategy)
	case run.Chunk == 0 || run.Chunk > math.MaxInt32:
		return nil, bad("implausible chunk size %d", run.Chunk)
	case run.Entries > journalMaxEntries:
		return nil, bad("implausible entry count %d", run.Entries)
	}
	j := NewJournal()
	j.run = runIdentity{operator: operator, seed: run.Seed,
		strategy: dataset.SplitStrategy(run.Strategy), chunkPoints: int(run.Chunk)}
	for i := uint32(0); i < run.Entries; i++ {
		var e journalEntryRecord
		if err := get(&e); err != nil {
			return nil, bad("entry %d: %v", i, err)
		}
		if e.Cell > math.MaxInt32 || e.Total > math.MaxInt32 || e.Chunk >= e.Total {
			return nil, bad("entry %d has implausible indices (cell %d chunk %d total %d)", i, e.Cell, e.Chunk, e.Total)
		}
		set, err := dataset.DecodeWeightedSet(br)
		if err != nil {
			return nil, bad("entry %d: %v", i, err)
		}
		k := journalKey{int(e.Cell), int(e.Chunk)}
		if !j.put(k, journalEntry{total: int(e.Total), elapsed: time.Duration(e.ElapsedNs), centroids: set}) {
			return nil, bad("duplicate entry for cell %d chunk %d", e.Cell, e.Chunk)
		}
	}
	var leases uint32
	if err := get(&leases); err != nil {
		return nil, bad("lease count: %v", err)
	}
	if leases > journalMaxEntries {
		return nil, bad("implausible lease count %d", leases)
	}
	for i := uint32(0); i < leases; i++ {
		var l journalLeaseRecord
		if err := get(&l); err != nil {
			return nil, bad("lease %d: %v", i, err)
		}
		if l.Cell > math.MaxInt32 || l.Chunk > math.MaxInt32 || l.Attempt > math.MaxInt32 {
			return nil, bad("lease %d has implausible indices", i)
		}
		worker, err := readJournalString(br)
		if err != nil {
			return nil, bad("lease %d worker: %v", i, err)
		}
		leaseErr, err := readJournalString(br)
		if err != nil {
			return nil, bad("lease %d err: %v", i, err)
		}
		j.leases = append(j.leases, LeaseRecord{
			Cell: int(l.Cell), Chunk: int(l.Chunk), Attempt: int(l.Attempt), Worker: worker, Err: leaseErr,
		})
	}
	return j, nil
}
