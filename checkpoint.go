package streamkm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"streamkm/internal/core"
	"streamkm/internal/dataset"
	"streamkm/internal/vector"
)

// Checkpoint support for long-running streaming jobs: a StreamClusterer
// or WindowedClusterer can serialize its complete state — retained
// chunk summaries, the buffered tail, and the random-generator state —
// and be resumed later (or on another machine) with bit-identical
// behaviour. This is the library's answer to Conquest's query-migration
// capability (§4), and the durability substrate of the streamkmd
// serving daemon's crash-safe sessions.
//
// Version 1 layout (little-endian) — stream clusterers:
//
//	magic    [4]byte "SKMC"
//	version  uint16 (1)
//	dim      uint16
//	pushed   uint64
//	partialT int64 (accumulated partial time, ns)
//	rng      uint16 length + bytes (rng.RNG.MarshalBinary)
//	parts    uint32 count, then each as a weighted-set block
//	buffer   one weighted-set block (unit weights; may be empty)
//
// Version 2 — windowed clusterers — inserts a kind byte after the
// version so one decoder can refuse the wrong clusterer type with a
// useful error, then frames the body with a length prefix and an IEEE
// CRC-32 trailer over the body bytes, so any bit flip anywhere in the
// document is detected (v1 only protects the weighted-set blocks).
// Kind 1 (windowed) bodies are described at encodeWindowedBody; kind 0
// is reserved for stream clusterers, which keep writing version 1, so
// every pre-existing file and reader is unaffected.
//
// Decoding is hardened against hostile headers the same way the bucket
// and weighted-set decoders are: no count or length field is trusted
// with a large preallocation before the data it describes has started
// to decode (FuzzCheckpoint covers both versions).
const (
	checkpointMagic           = "SKMC"
	checkpointVersion         = 1
	checkpointVersionWindowed = 2

	checkpointKindStream   = 0
	checkpointKindWindowed = 1

	// maxCheckpointParts bounds the retained-summary count a decoder
	// accepts: a hostile count must not drive an unbounded decode loop.
	// A real stream checkpoint holds one part per flushed chunk, so even
	// multi-year jobs stay far below this.
	maxCheckpointParts = 1 << 24
)

// ErrBadCheckpoint is wrapped by checkpoint decoding errors.
var ErrBadCheckpoint = errors.New("streamkm: malformed checkpoint")

// Checkpoint serializes the clusterer's state. It may be called between
// any two Pushes; it must not be called after Finish.
func (s *StreamClusterer) Checkpoint(w io.Writer) error {
	if s.finished {
		return errors.New("streamkm: Checkpoint after Finish")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(checkpointVersion)); err != nil {
		return err
	}
	if err := s.encodeBody(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// encodeBody writes the version-1 stream body (everything after the
// version field).
func (s *StreamClusterer) encodeBody(bw *bufio.Writer) error {
	st, err := s.chunks.State()
	if err != nil {
		return err
	}
	for _, v := range []any{
		uint16(st.Tail.Dim()),
		uint64(st.Consumed),
		int64(s.partialT),
	} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := writeRNGState(bw, st.RNGState); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(s.parts))); err != nil {
		return err
	}
	for _, part := range s.parts {
		if err := dataset.EncodeWeightedSet(bw, part); err != nil {
			return err
		}
	}
	return dataset.EncodeWeightedSet(bw, dataset.Unweighted(st.Tail))
}

// Checkpoint serializes the windowed clusterer's state — the window
// ring, the buffered tail, the stream counters, and the snapshot
// index's maintained answer and activity counters — as an SKMC
// version-2 document. It may be called between any two Pushes; pushes
// after the call do not affect the written bytes only if the writer
// consumed them before the next Push (the state blocks alias live
// structures until flushed here).
func (w *WindowedClusterer) Checkpoint(wr io.Writer) error {
	st, err := w.inner.State()
	if err != nil {
		return err
	}
	var body bytes.Buffer
	bodyW := bufio.NewWriter(&body)
	if err := encodeWindowedBody(bodyW, w.inner.Dim(), st); err != nil {
		return err
	}
	if err := bodyW.Flush(); err != nil {
		return err
	}
	bw := bufio.NewWriter(wr)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return err
	}
	for _, v := range []any{
		uint16(checkpointVersionWindowed),
		uint8(checkpointKindWindowed),
		uint64(body.Len()),
	} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if _, err := bw.Write(body.Bytes()); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, crc32.ChecksumIEEE(body.Bytes())); err != nil {
		return err
	}
	return bw.Flush()
}

// encodeWindowedBody writes the windowed body:
//
//	dim       uint16
//	consumed  uint64
//	expired   uint64
//	rotations uint64
//	rng       uint16 length + bytes
//	stats     5 x int64 (queries, cache hits, warm starts, resyncs,
//	          refine iterations)
//	summaries uint32 count, then each as a weighted-set block
//	buffer    one weighted-set block (unit weights; may be empty)
//	base      uint8 presence flag; when 1: weighted-set block
//	          (centroids+weights), mse float64, iterations uint32,
//	          inputs uint32
func encodeWindowedBody(bw *bufio.Writer, dim int, st *core.WindowState) error {
	for _, v := range []any{
		uint16(dim),
		uint64(st.Consumed),
		uint64(st.Expired),
		uint64(st.Rotations),
	} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := writeRNGState(bw, st.RNGState); err != nil {
		return err
	}
	for _, v := range []int64{
		st.Stats.Queries, st.Stats.CacheHits, st.Stats.WarmStarts,
		st.Stats.Resyncs, st.Stats.RefineIterations,
	} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(st.Summaries))); err != nil {
		return err
	}
	for _, s := range st.Summaries {
		if err := dataset.EncodeWeightedSet(bw, s); err != nil {
			return err
		}
	}
	if err := dataset.EncodeWeightedSet(bw, dataset.Unweighted(st.Tail)); err != nil {
		return err
	}
	if st.Base == nil {
		return binary.Write(bw, binary.LittleEndian, uint8(0))
	}
	if err := binary.Write(bw, binary.LittleEndian, uint8(1)); err != nil {
		return err
	}
	base := dataset.MustNewWeightedSet(dim)
	for i, c := range st.Base.Centroids {
		if err := base.Add(dataset.WeightedPoint{Vec: c, Weight: st.Base.Weights[i]}); err != nil {
			return err
		}
	}
	if err := dataset.EncodeWeightedSet(bw, base); err != nil {
		return err
	}
	for _, v := range []any{st.Base.MSE, uint32(st.Base.Iterations), uint32(st.Base.Inputs)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// ResumeStreamClusterer reconstructs a clusterer from a checkpoint. The
// caller supplies the same Options used originally (the checkpoint holds
// data, not configuration); dimension and option validity are checked.
func ResumeStreamClusterer(r io.Reader, opts Options) (*StreamClusterer, error) {
	br := bufio.NewReader(r)
	version, err := readCheckpointHeader(br)
	if err != nil {
		return nil, err
	}
	if version == checkpointVersionWindowed {
		// Stream clusterers write version 1; a version-2 file necessarily
		// holds a windowed clusterer (kind 0 is reserved, never written).
		return nil, fmt.Errorf("%w: version-2 checkpoints hold windowed clusterers; use ResumeWindowedClusterer", ErrBadCheckpoint)
	}
	return decodeStreamBody(br, opts)
}

// ResumeWindowedClusterer reconstructs a windowed clusterer from an SKMC
// version-2 checkpoint. The caller supplies the same WindowedOptions the
// clusterer was created with; a resumed clusterer's pushes and snapshots
// are bit-identical to an uninterrupted one at the same stream position.
func ResumeWindowedClusterer(r io.Reader, opts WindowedOptions) (*WindowedClusterer, error) {
	br := bufio.NewReader(r)
	version, err := readCheckpointHeader(br)
	if err != nil {
		return nil, err
	}
	if version != checkpointVersionWindowed {
		return nil, fmt.Errorf("%w: version %d holds a stream clusterer; use ResumeStreamClusterer", ErrBadCheckpoint, version)
	}
	kind, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: missing kind: %v", ErrBadCheckpoint, err)
	}
	if kind != checkpointKindWindowed {
		return nil, fmt.Errorf("%w: checkpoint holds a stream clusterer (kind %d); use ResumeStreamClusterer", ErrBadCheckpoint, kind)
	}
	var bodyLen uint64
	if err := binary.Read(br, binary.LittleEndian, &bodyLen); err != nil {
		return nil, fmt.Errorf("%w: missing body length: %v", ErrBadCheckpoint, err)
	}
	// The declared length is not trusted with a preallocation: the body
	// is read incrementally up to it, so a hostile header fails at the
	// actual EOF having allocated only what the file really contained.
	body, err := io.ReadAll(io.LimitReader(br, int64(min(bodyLen, math.MaxInt64))))
	if err != nil {
		return nil, fmt.Errorf("%w: body: %v", ErrBadCheckpoint, err)
	}
	if uint64(len(body)) != bodyLen {
		return nil, fmt.Errorf("%w: body truncated at %d of %d bytes", ErrBadCheckpoint, len(body), bodyLen)
	}
	var stored uint32
	if err := binary.Read(br, binary.LittleEndian, &stored); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrBadCheckpoint, err)
	}
	if stored != crc32.ChecksumIEEE(body) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadCheckpoint)
	}
	return decodeWindowedBody(bufio.NewReader(bytes.NewReader(body)), opts)
}

// readCheckpointHeader consumes the magic and version and validates
// both.
func readCheckpointHeader(br *bufio.Reader) (uint16, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if string(magic) != checkpointMagic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrBadCheckpoint, magic)
	}
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if version != checkpointVersion && version != checkpointVersionWindowed {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, version)
	}
	return version, nil
}

func decodeStreamBody(br *bufio.Reader, opts Options) (*StreamClusterer, error) {
	var dim uint16
	var pushed uint64
	var partialT int64
	if err := binary.Read(br, binary.LittleEndian, &dim); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if dim == 0 {
		return nil, fmt.Errorf("%w: zero dimension", ErrBadCheckpoint)
	}
	if err := binary.Read(br, binary.LittleEndian, &pushed); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if pushed > math.MaxInt32 {
		return nil, fmt.Errorf("%w: implausible push count %d", ErrBadCheckpoint, pushed)
	}
	if err := binary.Read(br, binary.LittleEndian, &partialT); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	rngState, err := readRNGState(br)
	if err != nil {
		return nil, err
	}

	sc, err := NewStreamClusterer(int(dim), opts)
	if err != nil {
		return nil, err
	}
	sc.partialT = time.Duration(partialT)

	var nParts uint32
	if err := binary.Read(br, binary.LittleEndian, &nParts); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if nParts > maxCheckpointParts {
		return nil, fmt.Errorf("%w: implausible part count %d", ErrBadCheckpoint, nParts)
	}
	// The count is not trusted with a preallocation: parts append one at
	// a time, so a hostile header fails at the first short block.
	for i := uint32(0); i < nParts; i++ {
		part, err := dataset.DecodeWeightedSet(br)
		if err != nil {
			return nil, fmt.Errorf("%w: part %d: %v", ErrBadCheckpoint, i, err)
		}
		if part.Dim() != int(dim) {
			return nil, fmt.Errorf("%w: part %d has dim %d", ErrBadCheckpoint, i, part.Dim())
		}
		sc.parts = append(sc.parts, part)
	}
	tail, err := decodeUnweightedBuffer(br)
	if err != nil {
		return nil, err
	}
	if err := sc.chunks.Restore(core.ChunkState{Consumed: int(pushed), RNGState: rngState, Tail: tail}); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return sc, nil
}

func decodeWindowedBody(br *bufio.Reader, opts WindowedOptions) (*WindowedClusterer, error) {
	var dim uint16
	var consumed, expired, rotations uint64
	if err := binary.Read(br, binary.LittleEndian, &dim); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if dim == 0 {
		return nil, fmt.Errorf("%w: zero dimension", ErrBadCheckpoint)
	}
	for _, v := range []*uint64{&consumed, &expired, &rotations} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	}
	if consumed > math.MaxInt32 || expired > consumed || rotations > consumed {
		return nil, fmt.Errorf("%w: implausible counters consumed=%d expired=%d rotations=%d", ErrBadCheckpoint, consumed, expired, rotations)
	}
	rngState, err := readRNGState(br)
	if err != nil {
		return nil, err
	}
	st := &core.WindowState{
		ChunkState: core.ChunkState{Consumed: int(consumed), RNGState: rngState},
		Expired:    int(expired),
		Rotations:  int(rotations),
	}
	for _, v := range []*int64{
		&st.Stats.Queries, &st.Stats.CacheHits, &st.Stats.WarmStarts,
		&st.Stats.Resyncs, &st.Stats.RefineIterations,
	} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
		if *v < 0 {
			return nil, fmt.Errorf("%w: negative snapshot counter %d", ErrBadCheckpoint, *v)
		}
	}
	var nSumm uint32
	if err := binary.Read(br, binary.LittleEndian, &nSumm); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if nSumm > maxCheckpointParts {
		return nil, fmt.Errorf("%w: implausible summary count %d", ErrBadCheckpoint, nSumm)
	}
	for i := uint32(0); i < nSumm; i++ {
		s, err := dataset.DecodeWeightedSet(br)
		if err != nil {
			return nil, fmt.Errorf("%w: summary %d: %v", ErrBadCheckpoint, i, err)
		}
		if s.Dim() != int(dim) {
			return nil, fmt.Errorf("%w: summary %d has dim %d", ErrBadCheckpoint, i, s.Dim())
		}
		st.Summaries = append(st.Summaries, s)
	}
	if st.Tail, err = decodeUnweightedBuffer(br); err != nil {
		return nil, err
	}
	var hasBase uint8
	if err := binary.Read(br, binary.LittleEndian, &hasBase); err != nil {
		return nil, fmt.Errorf("%w: missing base flag: %v", ErrBadCheckpoint, err)
	}
	switch hasBase {
	case 0:
	case 1:
		baseSet, err := dataset.DecodeWeightedSet(br)
		if err != nil {
			return nil, fmt.Errorf("%w: base: %v", ErrBadCheckpoint, err)
		}
		if baseSet.Dim() != int(dim) {
			return nil, fmt.Errorf("%w: base dim %d", ErrBadCheckpoint, baseSet.Dim())
		}
		base := &core.MergeResult{}
		for _, wp := range baseSet.Points() {
			vec := make(vector.Vector, len(wp.Vec))
			copy(vec, wp.Vec)
			base.Centroids = append(base.Centroids, vec)
			base.Weights = append(base.Weights, wp.Weight)
		}
		var iters, inputs uint32
		if err := binary.Read(br, binary.LittleEndian, &base.MSE); err != nil {
			return nil, fmt.Errorf("%w: base mse: %v", ErrBadCheckpoint, err)
		}
		if math.IsNaN(base.MSE) || base.MSE < 0 {
			return nil, fmt.Errorf("%w: bad base mse", ErrBadCheckpoint)
		}
		for _, v := range []*uint32{&iters, &inputs} {
			if err := binary.Read(br, binary.LittleEndian, v); err != nil {
				return nil, fmt.Errorf("%w: base counters: %v", ErrBadCheckpoint, err)
			}
		}
		base.Iterations = int(iters)
		base.Inputs = int(inputs)
		st.Base = base
	default:
		return nil, fmt.Errorf("%w: bad base flag %d", ErrBadCheckpoint, hasBase)
	}

	w, err := NewWindowedClusterer(int(dim), opts)
	if err != nil {
		return nil, err
	}
	inner, err := core.RestoreWindowedClusterer(int(dim), w.coreConfig(), st)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	w.inner = inner
	return w, nil
}

// writeRNGState writes a serialized generator with a length prefix.
func writeRNGState(bw *bufio.Writer, state []byte) error {
	if err := binary.Write(bw, binary.LittleEndian, uint16(len(state))); err != nil {
		return err
	}
	_, err := bw.Write(state)
	return err
}

// readRNGState reads a length-prefixed generator state; the chunk
// stream's restore validates it. The length is a uint16, so the read is
// bounded by construction.
func readRNGState(br *bufio.Reader) ([]byte, error) {
	var stateLen uint16
	if err := binary.Read(br, binary.LittleEndian, &stateLen); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	state := make([]byte, stateLen)
	if _, err := io.ReadFull(br, state); err != nil {
		return nil, fmt.Errorf("%w: truncated rng state: %v", ErrBadCheckpoint, err)
	}
	return state, nil
}

// decodeUnweightedBuffer reads a weighted-set block holding unit-weight
// buffered points and rebuilds the plain point set. The chunk stream's
// restore checks it against the clusterer's dimension and budget.
func decodeUnweightedBuffer(br *bufio.Reader) (*dataset.Set, error) {
	bufSet, err := dataset.DecodeWeightedSet(br)
	if err != nil {
		return nil, fmt.Errorf("%w: buffer: %v", ErrBadCheckpoint, err)
	}
	buffer, err := dataset.NewSet(bufSet.Dim())
	if err != nil {
		return nil, fmt.Errorf("%w: buffer: %v", ErrBadCheckpoint, err)
	}
	return buffer, buffer.AppendFlat(bufSet.Data())
}
