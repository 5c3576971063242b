package core

import (
	"fmt"

	"streamkm/internal/dataset"
	"streamkm/internal/rng"
)

// ChunkStream is the streaming half of the one partial rule; SliceCell
// is the batch half. Arriving points are buffered up to the chunk
// budget, and each full buffer is one chunk: the Summarizer reduces it
// to weighted points with the next Split of the stream's generator,
// then the buffer is emptied in place (the paper's one-look regime,
// §3.2). Chunk i therefore draws the i-th Split of rng.New(seed) and
// the merge the next one, which is SliceCell's rule under salami
// slicing (salami slicing draws nothing from the generator). The
// facade's StreamClusterer and WindowedClusterer both summarize their
// chunks here, and persist its ChunkState in their checkpoints.
type ChunkStream struct {
	summ     Summarizer
	budget   int
	buffer   *dataset.Set
	rng      *rng.RNG
	consumed int
}

// NewChunkStream returns an empty stream of dim-dimensional points cut
// into chunks of chunkPoints points, each summarized by summ, with all
// randomness drawn from rng.New(seed).
func NewChunkStream(dim, chunkPoints int, summ Summarizer, seed uint64) (*ChunkStream, error) {
	if chunkPoints <= 0 {
		return nil, fmt.Errorf("core: chunk budget must be positive, got %d", chunkPoints)
	}
	buffer, err := dataset.NewSet(dim)
	if err != nil {
		return nil, err
	}
	return &ChunkStream{summ: summ, budget: chunkPoints, buffer: buffer, rng: rng.New(seed)}, nil
}

// Dim returns the point dimensionality.
func (c *ChunkStream) Dim() int { return c.buffer.Dim() }

// Consumed returns the number of points pushed so far.
func (c *ChunkStream) Consumed() int { return c.consumed }

// Tail returns the buffered points of the chunk in progress. It is the
// live buffer: read-only, and valid only until the next Push or Flush.
func (c *ChunkStream) Tail() *dataset.Set { return c.buffer }

// Push buffers a copy of point. When the buffer reaches the chunk
// budget, Push summarizes it (see Flush) and returns the summary;
// otherwise it returns nil. Once the buffer has grown to the budget, a
// Push that completes no chunk allocates nothing.
func (c *ChunkStream) Push(point []float64) (*PartialResult, error) {
	if err := c.buffer.Add(point); err != nil {
		return nil, err
	}
	c.consumed++
	if c.buffer.Len() < c.budget {
		return nil, nil
	}
	return c.Flush()
}

// Flush summarizes the buffered points as one chunk with the next Split
// of the stream's generator and empties the buffer. Push calls it on a
// full buffer; a stream's final merge may call it on a shorter tail.
// If the summarizer fails, its error is returned and the points stay
// buffered; the chunk's Split is spent either way.
func (c *ChunkStream) Flush() (*PartialResult, error) {
	pr, err := c.summ.Summarize(c.buffer, c.rng.Split())
	if err != nil {
		return nil, err
	}
	// Summaries never alias the chunk (the Summarizer contract), so the
	// buffer's slab is reused by the next chunk.
	c.buffer.Reset()
	return pr, nil
}

// MergeRNG returns the next Split of the stream's generator. Called
// after the last Flush, it is the merge's generator, as SliceCell
// derives it after the last chunk's.
func (c *ChunkStream) MergeRNG() *rng.RNG { return c.rng.Split() }

// ChunkState is the part of a streaming clusterer's checkpoint that
// its ChunkStream owns.
type ChunkState struct {
	// Consumed is the number of points pushed so far.
	Consumed int
	// RNGState is the stream's generator (rng.RNG.MarshalBinary).
	RNGState []byte
	// Tail is the chunk in progress.
	Tail *dataset.Set
}

// State captures the stream's persistent state. Tail aliases the live
// buffer, so callers encode it before the next Push.
func (c *ChunkStream) State() (ChunkState, error) {
	state, err := c.rng.MarshalBinary()
	if err != nil {
		return ChunkState{}, err
	}
	return ChunkState{Consumed: c.consumed, RNGState: state, Tail: c.buffer}, nil
}

// Restore reinstates a captured state, so the stream's future chunks
// and their random draws are those of the stream that wrote it. The
// tail must match the stream's dimension, fit its chunk budget and
// hold no more points than were consumed; the tail's points are copied.
func (c *ChunkStream) Restore(st ChunkState) error {
	switch {
	case st.Consumed < 0:
		return fmt.Errorf("core: negative consumed count %d", st.Consumed)
	case st.Tail.Dim() != c.Dim():
		return fmt.Errorf("core: buffered tail has dim %d, want %d", st.Tail.Dim(), c.Dim())
	case st.Tail.Len() > c.budget:
		return fmt.Errorf("core: buffered tail holds %d points, chunk budget is %d", st.Tail.Len(), c.budget)
	case st.Tail.Len() > st.Consumed:
		return fmt.Errorf("core: buffered tail holds %d points, only %d consumed", st.Tail.Len(), st.Consumed)
	}
	r := rng.New(0)
	if err := r.UnmarshalBinary(st.RNGState); err != nil {
		return err
	}
	c.buffer.Reset()
	if err := c.buffer.AppendFlat(st.Tail.Data()); err != nil {
		return err
	}
	c.rng, c.consumed = r, st.Consumed
	return nil
}
