package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"streamkm/internal/rng"
)

// This file adds operator supervision to the stream model: the paper's
// Conquest engine keeps long-running queries alive across operator
// failures (§4), so the reproduction's operators need more survival
// skills than "first error cancels the plan". A supervised operator
// recovers panics into typed errors, retries a failing item with
// exponential backoff plus deterministic jitter, and after the retry
// budget is exhausted quarantines the poison item into a bounded
// dead-letter queue instead of wedging the pipeline. Retry, quarantine,
// and drop counts are surfaced through OpStats.

// PanicError is an operator panic recovered into a typed error, so
// supervisors and callers can distinguish crashes from ordinary failures.
type PanicError struct {
	// Op is the operator (clone) name that panicked.
	Op string
	// Value is the recovered panic value.
	Value any
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("stream: operator %q panicked: %v", e.Op, e.Value)
}

// RetryPolicy bounds how a supervised operator retries one failing item.
// The zero value means "no retries": the first failure is final.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first failure;
	// an item is tried at most MaxRetries+1 times.
	MaxRetries int
	// BaseBackoff is the delay before the first retry (0 = 1ms,
	// negative = retry immediately with no backoff at all); each
	// further retry doubles it up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (0 = 64 * BaseBackoff).
	MaxBackoff time.Duration
	// Jitter is the fraction of the backoff randomized away, in [0, 1]
	// (0 = no jitter). Jittered delays decorrelate cloned operators
	// retrying simultaneously after a shared-resource hiccup.
	Jitter float64
}

// Backoff returns the delay before retry number attempt (1-based). The
// jitter is drawn from a fresh generator seeded from (seed, attempt), so
// a given (policy, seed, attempt) triple always yields the same delay —
// the backoff schedule of one item is a pure function of its seed, not
// of how many other items happened to retry before it on the same
// shared generator. That reproducibility is what lets chaos tests
// assert on retry timings.
func (p RetryPolicy) Backoff(attempt int, seed uint64) time.Duration {
	if p.BaseBackoff < 0 {
		return 0
	}
	base := p.BaseBackoff
	if base == 0 {
		base = time.Millisecond
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = 64 * base
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if p.Jitter > 0 {
		j := p.Jitter
		if j > 1 {
			j = 1
		}
		r := rng.New(seed + uint64(attempt)*0x9e3779b97f4a7c15)
		// Uniform in [1-j, 1] of the computed delay.
		d = time.Duration(float64(d) * (1 - j*r.Float64()))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// retryAbort reports whether err is a plan-lifecycle signal —
// cancellation, deadline expiry, or queue teardown — that must abort a
// retry loop immediately: they are not item failures.
func retryAbort(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrQueueClosed)
}

// Attempts drives fn under the policy: fn is called with the 1-based
// attempt number until it returns nil or the retry budget is
// exhausted, with Backoff-shaped sleeps (deterministic jitter derived
// from seed per attempt) separating attempts. onRetry, when non-nil,
// observes each re-attempt before its backoff sleep. Lifecycle errors
// (see retryAbort) abort immediately. It returns the number of attempts
// made and fn's final error. This is the one retry loop shared by
// supervised operators (the engine's WithRetry, and so the facade's
// ClusterGoverned) and the distributed worker pool's transport retries.
func (p RetryPolicy) Attempts(ctx context.Context, seed uint64, onRetry func(attempt int, err error), fn func(attempt int) error) (int, error) {
	attempt := 0
	for {
		attempt++
		err := fn(attempt)
		if err == nil {
			return attempt, nil
		}
		if retryAbort(err) || attempt > p.MaxRetries {
			return attempt, err
		}
		if onRetry != nil {
			onRetry(attempt, err)
		}
		if serr := sleep(ctx, p.Backoff(attempt, seed)); serr != nil {
			return attempt, serr
		}
	}
}

// sleep waits for d or until ctx is cancelled.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// DeadLetter records one quarantined item: the poison input, the operator
// that gave up on it, how many attempts it survived, and the final error.
type DeadLetter[I any] struct {
	Item     I
	Op       string
	Attempts int
	Err      error
}

// DeadLetterQueue is a bounded, concurrency-safe quarantine for poison
// items. When full, further items are counted as dropped rather than
// retained, so a flood of bad input cannot re-create the unbounded-state
// problem the stream model exists to avoid.
type DeadLetterQueue[I any] struct {
	mu      sync.Mutex
	cap     int
	items   []DeadLetter[I]
	dropped int64
}

// DefaultDeadLetterCapacity is used when a queue is created with a
// non-positive capacity.
const DefaultDeadLetterCapacity = 64

// NewDeadLetterQueue returns a quarantine holding at most capacity items
// (<= 0 selects DefaultDeadLetterCapacity).
func NewDeadLetterQueue[I any](capacity int) *DeadLetterQueue[I] {
	if capacity <= 0 {
		capacity = DefaultDeadLetterCapacity
	}
	return &DeadLetterQueue[I]{cap: capacity}
}

// add quarantines d, reporting false when the queue was full and the item
// was dropped instead.
func (q *DeadLetterQueue[I]) add(d DeadLetter[I]) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) >= q.cap {
		q.dropped++
		return false
	}
	q.items = append(q.items, d)
	return true
}

// Len returns the number of quarantined items.
func (q *DeadLetterQueue[I]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Dropped returns the number of items lost to overflow.
func (q *DeadLetterQueue[I]) Dropped() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped
}

// Items returns a snapshot of the quarantined records.
func (q *DeadLetterQueue[I]) Items() []DeadLetter[I] {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]DeadLetter[I], len(q.items))
	copy(out, q.items)
	return out
}

// Supervisor configures a supervised operator: how it retries and where
// poison items go. A nil DLQ with a non-nil Supervisor means exhausted
// items fail the plan (retry-only supervision).
type Supervisor[I any] struct {
	// Retry bounds per-item re-attempts.
	Retry RetryPolicy
	// DLQ, when non-nil, receives items that exhausted their retries
	// instead of failing the plan.
	DLQ *DeadLetterQueue[I]
	// OnQuarantine, when non-nil, is invoked for every item diverted to
	// the DLQ (after it was added or dropped). It must be safe for
	// concurrent use by cloned operators.
	OnQuarantine func(DeadLetter[I])
	// JitterSeed derives the deterministic backoff jitter stream.
	JitterSeed uint64
	// ItemSeed, when non-nil, folds a per-item key into the jitter seed,
	// making each item's backoff schedule a pure function of the item —
	// reproducible regardless of which clone retries it or what retried
	// before. Nil means every item shares the JitterSeed-derived
	// schedule.
	ItemSeed func(I) uint64
}

// itemSeed computes the jitter seed for one item.
func (s *Supervisor[I]) itemSeed(item I) uint64 {
	seed := s.JitterSeed
	if s.ItemSeed != nil {
		seed ^= s.ItemSeed(item)
	}
	return seed
}

// attemptTransform runs fn once with panic recovery, buffering emissions
// so a failing attempt emits nothing downstream (retries would otherwise
// duplicate output).
func attemptTransform[I, O any](ctx context.Context, op string, fn TransformFunc[I, O], item I, buf *[]O) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Op: op, Value: r}
		}
	}()
	*buf = (*buf)[:0]
	emit := func(v O) error {
		*buf = append(*buf, v)
		return nil
	}
	return fn(ctx, item, emit)
}

// superviseItem pushes one item through fn under the supervisor's policy.
// It returns the buffered emissions on success; ok=false means the item
// was quarantined (or dropped) and the caller should continue with the
// next item; a non-nil error fails the operator.
func superviseItem[I, O any](ctx context.Context, op string, sup *Supervisor[I], seed uint64, stats *OpStats, fn TransformFunc[I, O], item I, buf *[]O) (ok bool, err error) {
	attempts, err := sup.Retry.Attempts(ctx, seed,
		func(int, error) { stats.retries.Add(1) },
		func(int) error {
			err := attemptTransform(ctx, op, fn, item, buf)
			var pe *PanicError
			if errors.As(err, &pe) {
				stats.panics.Add(1)
			}
			return err
		})
	if err == nil {
		return true, nil
	}
	if retryAbort(err) {
		return false, err
	}
	if sup.DLQ == nil {
		return false, fmt.Errorf("stream: %s: item failed %d attempts: %w", op, attempts, err)
	}
	d := DeadLetter[I]{Item: item, Op: op, Attempts: attempts, Err: err}
	if sup.DLQ.add(d) {
		stats.quarantined.Add(1)
	} else {
		stats.dropped.Add(1)
	}
	if sup.OnQuarantine != nil {
		sup.OnQuarantine(d)
	}
	return false, nil
}
