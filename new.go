package dynahist

import (
	"fmt"

	"dynahist/internal/approx"
	"dynahist/internal/core"
	"dynahist/internal/histogram"
	"dynahist/internal/static"
)

// Option configures New. Options that do not apply to the kind being
// built are rejected with ErrBadOption rather than silently ignored,
// so a misplaced knob is caught at construction time.
type Option func(*builderConfig)

// builderConfig accumulates the options before New validates them
// against the requested kind.
type builderConfig struct {
	buckets  int
	memBytes int

	subBuckets int

	seed    int64
	seedSet bool

	alphaMin float64
	alphaSet bool

	gamma    float64
	gammaSet bool

	diskFactor int
	sampleCap  int

	values    []int
	valuesSet bool

	damping    bool
	dampingSet bool
}

// WithBuckets sets the budget as an explicit bucket count. Exactly one
// of WithBuckets and WithMemory must be given.
func WithBuckets(n int) Option {
	return func(c *builderConfig) { c.buckets = n }
}

// WithMemory sets the budget as a byte count under the paper's space
// accounting (4-byte borders and counters). Exactly one of WithBuckets
// and WithMemory must be given.
func WithMemory(bytes int) Option {
	return func(c *builderConfig) { c.memBytes = bytes }
}

// WithSubBuckets sets the per-bucket sub-bucket count of the DADO/DVO
// family (default 2, the paper's recommendation; §4 found 2–3
// comparable and finer subdivisions worse).
func WithSubBuckets(n int) Option {
	return func(c *builderConfig) { c.subBuckets = n }
}

// WithSeed seeds the AC family's backing reservoir (default 0).
func WithSeed(seed int64) Option {
	return func(c *builderConfig) { c.seed = seed; c.seedSet = true }
}

// WithAlphaMin sets the DC family's chi-square significance threshold
// in [0,1] (default 1e-6; 0 freezes the partition, 1 repartitions on
// every insert).
func WithAlphaMin(alpha float64) Option {
	return func(c *builderConfig) { c.alphaMin = alpha; c.alphaSet = true }
}

// WithDamping toggles the DC family's futility floor on the
// repartition trigger (default on).
func WithDamping(on bool) Option {
	return func(c *builderConfig) { c.damping = on; c.dampingSet = true }
}

// WithGamma sets the AC family's maintenance threshold: γ = −1
// (ACRecomputeAlways, the default and the paper's configuration)
// recomputes from the backing sample on every update; γ > 0 maintains
// incrementally with a recompute fallback.
func WithGamma(gamma float64) Option {
	return func(c *builderConfig) { c.gamma = gamma; c.gammaSet = true }
}

// WithDiskFactor sets the AC family's backing-sample budget relative
// to main memory (default ACDefaultDiskFactor = 20, the AC authors'
// suggestion adopted by the paper).
func WithDiskFactor(factor int) Option {
	return func(c *builderConfig) { c.diskFactor = factor }
}

// WithSampleCapacity sets the AC family's backing-sample capacity
// explicitly instead of deriving it from the disk factor.
func WithSampleCapacity(n int) Option {
	return func(c *builderConfig) { c.sampleCap = n }
}

// WithValues supplies the complete data set a static construction is
// built from. Values must be non-negative integers (the paper's
// workloads are integer-valued; quantise real-valued data first).
// Required for the static kinds, rejected for the maintained families.
func WithValues(values []int) Option {
	return func(c *builderConfig) { c.values = values; c.valuesSet = true }
}

// New is the package's front door: it constructs a histogram of any
// maintained family or static construction behind one builder,
//
//	h, err := dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024))
//	s, err := dynahist.New(dynahist.KindSADO,
//	        dynahist.WithValues(data), dynahist.WithBuckets(32))
//
// Exactly one of WithBuckets and WithMemory must be given; options
// that do not apply to the kind are rejected with ErrBadOption. The
// returned Histogram also implements BatchWriter and Snapshotter, and
// Restore rebuilds it from its Snapshot without the caller naming the
// kind again.
//
// KindSharded cannot be built here — a sharded engine needs a member
// factory; use NewSharded. KindStatic carries no construction
// algorithm; wrap an explicit bucket list with NewStaticFromBuckets.
func New(kind Kind, opts ...Option) (Histogram, error) {
	var c builderConfig
	for _, opt := range opts {
		opt(&c)
	}
	if err := c.validate(kind); err != nil {
		return nil, err
	}
	switch kind {
	case KindDADO, KindDVO:
		return c.buildDynamic(kind)
	case KindDC:
		return c.buildDC()
	case KindAC:
		return c.buildAC()
	default:
		return c.buildStatic(kind)
	}
}

// validate cross-checks the accumulated options against the kind.
func (c *builderConfig) validate(kind Kind) error {
	switch {
	case kind == KindSharded:
		return fmt.Errorf("%w: %v needs a member factory; use NewSharded", ErrBadKind, kind)
	case kind == KindStatic:
		return fmt.Errorf("%w: %v has no construction; use NewStaticFromBuckets", ErrBadKind, kind)
	case !kind.Valid():
		return fmt.Errorf("%w: %d", ErrBadKind, int(kind))
	}
	if (c.buckets != 0) == (c.memBytes != 0) {
		return fmt.Errorf("%w: give exactly one of WithBuckets and WithMemory", ErrBadBudget)
	}
	if c.buckets < 0 || c.memBytes < 0 {
		return fmt.Errorf("%w: negative budget", ErrBadBudget)
	}

	dynamic := kind == KindDADO || kind == KindDVO
	if c.subBuckets != 0 && !dynamic {
		return fmt.Errorf("%w: WithSubBuckets applies only to KindDADO and KindDVO, not %v", ErrBadOption, kind)
	}
	if kind != KindDC {
		if c.alphaSet {
			return fmt.Errorf("%w: WithAlphaMin applies only to KindDC, not %v", ErrBadOption, kind)
		}
		if c.dampingSet {
			return fmt.Errorf("%w: WithDamping applies only to KindDC, not %v", ErrBadOption, kind)
		}
	}
	if kind != KindAC {
		switch {
		case c.seedSet:
			return fmt.Errorf("%w: WithSeed applies only to KindAC, not %v", ErrBadOption, kind)
		case c.gammaSet:
			return fmt.Errorf("%w: WithGamma applies only to KindAC, not %v", ErrBadOption, kind)
		case c.diskFactor != 0:
			return fmt.Errorf("%w: WithDiskFactor applies only to KindAC, not %v", ErrBadOption, kind)
		case c.sampleCap != 0:
			return fmt.Errorf("%w: WithSampleCapacity applies only to KindAC, not %v", ErrBadOption, kind)
		}
	} else {
		switch {
		case c.diskFactor < 0:
			return fmt.Errorf("%w: disk factor %d < 1", ErrBadOption, c.diskFactor)
		case c.diskFactor != 0 && c.sampleCap != 0:
			return fmt.Errorf("%w: WithSampleCapacity already fixes the backing sample; drop WithDiskFactor", ErrBadOption)
		case c.sampleCap < 0:
			return fmt.Errorf("%w: sample capacity %d < 1", ErrBadOption, c.sampleCap)
		}
	}
	if _, isStatic := staticKinds[kind]; isStatic {
		if !c.valuesSet {
			return fmt.Errorf("%w: static construction %v needs WithValues", ErrBadOption, kind)
		}
	} else if c.valuesSet {
		return fmt.Errorf("%w: WithValues applies only to the static kinds, not %v", ErrBadOption, kind)
	}
	return nil
}

func (c *builderConfig) buildDynamic(kind Kind) (Histogram, error) {
	dev := AbsDeviation
	if kind == KindDVO {
		dev = Variance
	}
	sub := c.subBuckets
	if sub == 0 {
		sub = 2
	}
	var (
		inner *core.DVO
		err   error
	)
	if c.buckets > 0 {
		inner, err = core.NewDynamic(core.Deviation(dev), c.buckets, sub)
	} else {
		inner, err = core.NewDynamicMemory(core.Deviation(dev), c.memBytes, sub)
	}
	if err != nil {
		return nil, err
	}
	return &Dynamic{inner: inner}, nil
}

func (c *builderConfig) buildDC() (Histogram, error) {
	var (
		inner *core.DC
		err   error
	)
	if c.buckets > 0 {
		inner, err = core.NewDC(c.buckets)
	} else {
		inner, err = core.NewDCMemory(c.memBytes)
	}
	if err != nil {
		return nil, err
	}
	h := &DC{inner: inner}
	if c.alphaSet {
		if err := h.SetAlphaMin(c.alphaMin); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadOption, err)
		}
	}
	if c.dampingSet {
		h.SetDamping(c.damping)
	}
	return h, nil
}

func (c *builderConfig) buildAC() (Histogram, error) {
	diskFactor := c.diskFactor
	if diskFactor == 0 {
		diskFactor = ACDefaultDiskFactor
	}
	var (
		inner *approx.AC
		err   error
	)
	switch {
	case c.memBytes > 0 && c.sampleCap == 0:
		inner, err = approx.New(c.memBytes, diskFactor, c.seed)
	default:
		buckets := c.buckets
		memBytes := c.memBytes
		if buckets == 0 {
			if buckets, err = histogram.BucketsForMemory(memBytes, 1); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadBudget, err)
			}
		} else {
			memBytes = histogram.MemoryForBuckets(buckets, 1)
		}
		sampleCap := c.sampleCap
		if sampleCap == 0 {
			// Mirror approx.New's derivation: the backing sample gets
			// diskFactor× the histogram's memory, one 4-byte value per
			// slot.
			sampleCap = max(diskFactor*memBytes/4, 1)
		}
		inner, err = approx.NewBuckets(buckets, sampleCap, c.seed)
	}
	if err != nil {
		return nil, err
	}
	h := &AC{inner: inner}
	if c.gammaSet {
		if err := h.SetGamma(c.gamma); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadOption, err)
		}
	}
	return h, nil
}

func (c *builderConfig) buildStatic(kind Kind) (Histogram, error) {
	n := c.buckets
	if n == 0 {
		var err error
		if n, err = histogram.BucketsForMemory(c.memBytes, 1); err != nil {
			return nil, err
		}
	}
	tr, err := trackerOf(c.values)
	if err != nil {
		return nil, err
	}
	h, err := static.Build(staticKinds[kind], tr, n)
	if err != nil {
		return nil, err
	}
	return &Static{inner: h, kind: kind}, nil
}
