package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"streamkm/internal/dataset"
	"streamkm/internal/kmeans"
	"streamkm/internal/rng"
)

// Summarizer is the chunk-summarizer operator contract: the paper's §3
// skeleton only requires that each in-memory partition be reduced to a
// small weighted representation that the merge step can consume, so the
// partial stage is an interface, not a fixed algorithm. Every layer —
// Cluster, the engine executor, the distributed worker, and the
// streaming clusterers' ChunkStream — dispatches through this
// interface.
//
// Implementations must be deterministic: equal chunk contents and equal
// RNG states must produce bit-identical summaries, because the engine's
// crash recovery and the distributed runtime both rely on replaying a
// chunk from its pre-derived RNG and getting the same bytes back.
// Summaries must not alias the chunk: ChunkStream reuses the chunk's
// storage for the next chunk as soon as Summarize returns.
type Summarizer interface {
	// Summarize reduces one partition to weighted points plus
	// diagnostics. The summary's total weight equals the number of
	// points summarized.
	Summarize(chunk *dataset.Set, r *rng.RNG) (*PartialResult, error)
	// Spec self-describes the operator — name plus every parameter that
	// affects its output — so journals and the SKMF wire protocol can
	// reconstruct an identical operator elsewhere.
	Spec() SummarizerSpec
}

// Operator names understood by SummarizerFor and NewSummarizer.
const (
	SummarizerKMeans  = "kmeans"
	SummarizerECVQ    = "ecvq"
	SummarizerCoreset = "coreset"
)

// SummarizerNames lists the built-in operators in CLI/docs order.
func SummarizerNames() []string {
	return []string{SummarizerKMeans, SummarizerECVQ, SummarizerCoreset}
}

// ErrUnknownSummarizer is returned (wrapped) when an operator name or
// encoded spec does not match a built-in summarizer, including a spec
// carrying a param the operator does not read.
var ErrUnknownSummarizer = errors.New("core: unknown summarizer operator")

// SummarizerSpec identifies a summarizer operator and its parameters in
// a canonical, order-independent encoding. It is what the SKMJ journal
// records and what the SKMF chunk payload carries, so two specs that
// Encode equally are guaranteed to summarize identically.
type SummarizerSpec struct {
	// Name is the operator name ("kmeans", "ecvq", "coreset").
	Name string
	// Params holds the operator's parameters as strings. Keys and
	// values must not contain '(', ')', ',' or '='; floats use the
	// shortest exact representation so specs round-trip bit-exactly.
	Params map[string]string
}

// Encode renders the spec canonically: name alone when there are no
// parameters, otherwise "name(k1=v1,k2=v2,...)" with keys sorted.
func (s SummarizerSpec) Encode() string {
	if len(s.Params) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Params[k])
	}
	b.WriteByte(')')
	return b.String()
}

// ParseSummarizerSpec inverts Encode.
func ParseSummarizerSpec(enc string) (SummarizerSpec, error) {
	open := strings.IndexByte(enc, '(')
	if open < 0 {
		if enc == "" {
			return SummarizerSpec{}, errors.New("core: empty summarizer spec")
		}
		return SummarizerSpec{Name: enc}, nil
	}
	if open == 0 || !strings.HasSuffix(enc, ")") {
		return SummarizerSpec{}, fmt.Errorf("core: malformed summarizer spec %q", enc)
	}
	spec := SummarizerSpec{Name: enc[:open], Params: map[string]string{}}
	body := enc[open+1 : len(enc)-1]
	if body == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(body, ",") {
		eq := strings.IndexByte(kv, '=')
		if eq <= 0 {
			return SummarizerSpec{}, fmt.Errorf("core: malformed summarizer param %q in %q", kv, enc)
		}
		spec.Params[kv[:eq]] = kv[eq+1:]
	}
	return spec, nil
}

// formatFloatParam encodes a float with the shortest representation
// that parses back to the identical bits, so specs carrying epsilons or
// lambdas stay bit-exact across the wire and the journal.
func formatFloatParam(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// specParams reads typed values out of a SummarizerSpec's Params map
// and tracks consumption so unknown keys (version skew, typos) are
// rejected instead of silently ignored.
type specParams struct {
	spec SummarizerSpec
	seen map[string]bool
	err  error
}

func newSpecParams(spec SummarizerSpec) *specParams {
	return &specParams{spec: spec, seen: make(map[string]bool, len(spec.Params))}
}

func (p *specParams) lookup(key string) (string, bool) {
	p.seen[key] = true
	v, ok := p.spec.Params[key]
	return v, ok
}

func (p *specParams) fail(key, v string, err error) {
	if p.err == nil {
		p.err = fmt.Errorf("core: summarizer spec %q: param %s=%q: %w", p.spec.Encode(), key, v, err)
	}
}

func (p *specParams) Int(key string, def int) int {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		p.fail(key, v, err)
		return def
	}
	return n
}

func (p *specParams) Float(key string, def float64) float64 {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		p.fail(key, v, err)
		return def
	}
	return f
}

func (p *specParams) Str(key, def string) string {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	return v
}

// finish returns the first decode error, or an error naming any param
// key the operator did not consume.
func (p *specParams) finish() error {
	if p.err != nil {
		return p.err
	}
	for k := range p.spec.Params {
		if !p.seen[k] {
			return fmt.Errorf("core: summarizer spec %q: %w: unknown param %q", p.spec.Encode(), ErrUnknownSummarizer, k)
		}
	}
	return nil
}

// SummarizerOptions bundles the in-process knobs SummarizerFor maps to
// an operator. Partial supplies the k-means defaults every operator
// falls back to (k, restarts, epsilon, iteration cap, workers).
type SummarizerOptions struct {
	// Partial is the k-means partial-stage configuration; also the
	// source of shared defaults for the other operators.
	Partial PartialConfig
	// SeedMethod names the partial-stage seeding strategy (see
	// kmeans.SeederByName; "" keeps Partial.Seeder or the random
	// default). Ignored when Partial.Seeder is already set.
	SeedMethod string
	// CoresetSize is the coreset-tree output size m (0 = 10*Partial.K).
	CoresetSize int
	// ECVQ parameterizes the ecvq operator; zero fields inherit from
	// Partial (MaxK = 2*K, Restarts, Epsilon, MaxIterations).
	ECVQ ECVQPartialConfig
}

// SummarizerFor builds a summarizer from an operator name and the
// in-process options. The empty name selects the k-means operator — the
// paper's partial stage and the historic default.
func SummarizerFor(name string, o SummarizerOptions) (Summarizer, error) {
	switch name {
	case "", SummarizerKMeans:
		cfg := o.Partial
		if cfg.Seeder == nil && o.SeedMethod != "" {
			seeder, err := kmeans.SeederByName(o.SeedMethod)
			if err != nil {
				return nil, err
			}
			cfg.Seeder = seeder
		}
		return NewKMeansSummarizer(cfg)
	case SummarizerECVQ:
		cfg := o.ECVQ
		if cfg.MaxK <= 0 {
			cfg.MaxK = 2 * o.Partial.K
		}
		if cfg.Restarts <= 0 {
			cfg.Restarts = o.Partial.Restarts
		}
		if cfg.Epsilon == 0 {
			cfg.Epsilon = o.Partial.Epsilon
		}
		if cfg.MaxIterations == 0 {
			cfg.MaxIterations = o.Partial.MaxIterations
		}
		return NewECVQSummarizer(cfg)
	case SummarizerCoreset:
		size := o.CoresetSize
		if size <= 0 {
			size = 10 * o.Partial.K
		}
		return NewCoresetTreeSummarizer(size)
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownSummarizer, name)
}

// NewSummarizer reconstructs a summarizer from a decoded spec — the
// inverse of Summarizer.Spec(), used by the distributed worker and by
// journal recovery so a remote or resumed run executes the exact
// operator the coordinator planned.
func NewSummarizer(spec SummarizerSpec) (Summarizer, error) {
	switch spec.Name {
	case "", SummarizerKMeans:
		p := newSpecParams(spec)
		cfg := PartialConfig{
			K:             p.Int("k", 0),
			Restarts:      p.Int("restarts", 0),
			Epsilon:       p.Float("epsilon", 0),
			MaxIterations: p.Int("maxiter", 0),
			Workers:       p.Int("workers", 0),
		}
		seedMethod := p.Str("seed", "")
		if err := p.finish(); err != nil {
			return nil, err
		}
		if seedMethod != "" {
			seeder, err := kmeans.SeederByName(seedMethod)
			if err != nil {
				return nil, err
			}
			cfg.Seeder = seeder
		}
		return NewKMeansSummarizer(cfg)
	case SummarizerECVQ:
		p := newSpecParams(spec)
		cfg := ECVQPartialConfig{
			MaxK:          p.Int("maxk", 0),
			Lambda:        p.Float("lambda", 0),
			Restarts:      p.Int("restarts", 1),
			Epsilon:       p.Float("epsilon", 0),
			MaxIterations: p.Int("maxiter", 0),
		}
		if err := p.finish(); err != nil {
			return nil, err
		}
		return NewECVQSummarizer(cfg)
	case SummarizerCoreset:
		p := newSpecParams(spec)
		size := p.Int("m", 0)
		if err := p.finish(); err != nil {
			return nil, err
		}
		return NewCoresetTreeSummarizer(size)
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownSummarizer, spec.Name)
}

// KMeansSummarizer adapts PartialKMeans — the paper's partial operator —
// to the Summarizer contract.
type KMeansSummarizer struct {
	cfg PartialConfig
}

// NewKMeansSummarizer validates the configuration once up front so the
// engine can fail a bad query at plan time instead of per chunk.
func NewKMeansSummarizer(cfg PartialConfig) (*KMeansSummarizer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &KMeansSummarizer{cfg: cfg}, nil
}

// Config returns the underlying partial configuration.
func (s *KMeansSummarizer) Config() PartialConfig { return s.cfg }

// Summarize implements Summarizer.
func (s *KMeansSummarizer) Summarize(chunk *dataset.Set, r *rng.RNG) (*PartialResult, error) {
	return PartialKMeans(chunk, s.cfg, r)
}

// Spec implements Summarizer.
func (s *KMeansSummarizer) Spec() SummarizerSpec {
	params := map[string]string{
		"k":        strconv.Itoa(s.cfg.K),
		"restarts": strconv.Itoa(s.cfg.Restarts),
	}
	if s.cfg.Epsilon != 0 {
		params["epsilon"] = formatFloatParam(s.cfg.Epsilon)
	}
	if s.cfg.MaxIterations != 0 {
		params["maxiter"] = strconv.Itoa(s.cfg.MaxIterations)
	}
	if s.cfg.Workers != 0 {
		params["workers"] = strconv.Itoa(s.cfg.Workers)
	}
	if s.cfg.Seeder != nil {
		params["seed"] = s.cfg.Seeder.Name()
	}
	return SummarizerSpec{Name: SummarizerKMeans, Params: params}
}

// ECVQSummarizer adapts ECVQPartial — the §3.3 Remarks' adaptive-k
// extension — to the Summarizer contract.
type ECVQSummarizer struct {
	cfg ECVQPartialConfig
}

// NewECVQSummarizer validates the configuration once up front.
func NewECVQSummarizer(cfg ECVQPartialConfig) (*ECVQSummarizer, error) {
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &ECVQSummarizer{cfg: cfg}, nil
}

// Config returns the underlying ECVQ configuration.
func (s *ECVQSummarizer) Config() ECVQPartialConfig { return s.cfg }

// Summarize implements Summarizer. MSE carries the winning quantizer's
// Lagrangian cost — the quality score ECVQ minimizes — and Restarts the
// configured restart count, so run reports stay meaningful.
func (s *ECVQSummarizer) Summarize(chunk *dataset.Set, r *rng.RNG) (*PartialResult, error) {
	er, err := ECVQPartial(chunk, s.cfg, r)
	if err != nil {
		return nil, err
	}
	return &PartialResult{
		Centroids: er.Centroids,
		MSE:       er.Cost,
		Restarts:  s.cfg.Restarts,
		Points:    er.Points,
		Elapsed:   er.Elapsed,
	}, nil
}

// Spec implements Summarizer.
func (s *ECVQSummarizer) Spec() SummarizerSpec {
	params := map[string]string{
		"maxk":     strconv.Itoa(s.cfg.MaxK),
		"restarts": strconv.Itoa(s.cfg.Restarts),
	}
	if s.cfg.Lambda != 0 {
		params["lambda"] = formatFloatParam(s.cfg.Lambda)
	}
	if s.cfg.Epsilon != 0 {
		params["epsilon"] = formatFloatParam(s.cfg.Epsilon)
	}
	if s.cfg.MaxIterations != 0 {
		params["maxiter"] = strconv.Itoa(s.cfg.MaxIterations)
	}
	return SummarizerSpec{Name: SummarizerECVQ, Params: params}
}
