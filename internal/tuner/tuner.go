// Package tuner implements query-feedback-driven self-tuning for the
// served histograms, after the ST-histogram learning loop: each
// executed range predicate reports the count the histogram *estimated*
// and the count the execution actually *observed*, and the tuner nudges
// bucket counts and borders so the next estimate lands closer.
//
// The tuner never touches the live maintained histogram. It keeps a
// bounded journal of feedback records and replays them onto an overlay
// — a flat histogram.Store built from the merged view's buckets — so
// tuning composes with, rather than fights, the engine's own
// split/merge maintenance: every new view epoch starts from the
// freshly maintained buckets and re-applies the journal on top.
//
// Adjustments are bounded per record: count changes are damped by
// Alpha and capped at a MaxScale factor per bucket, border moves cover
// at most BorderStep of the distance to the predicate endpoint and
// never more than MaxBorderFrac of the narrower adjacent bucket. A
// replayed record recomputes its error against the *current* overlay
// (the recorded estimate is provenance only), so replaying the journal
// onto different starting buckets stays meaningful.
package tuner

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"dynahist/internal/histerr"
	"dynahist/internal/histogram"
)

// Record is one unit of query feedback: the histogram estimated
// Estimated points in the inclusive integer range [Lo, Hi] (mass over
// [Lo, Hi+1), the View.EstimateRange convention), and the executed
// query observed Observed.
type Record struct {
	Lo        float64
	Hi        float64
	Estimated float64
	Observed  float64
}

// Config bounds how far one feedback record may move the overlay.
// Zero fields take the defaults below.
type Config struct {
	// Alpha is the fraction of the estimation error absorbed per
	// record (0 < Alpha ≤ 1). Default 0.5.
	Alpha float64
	// BorderStep is the fraction of the distance between a predicate
	// endpoint and the nearest shared border that one record moves
	// that border. Default 0.25.
	BorderStep float64
	// MaxBorderFrac caps any single border move at this fraction of
	// the narrower adjacent bucket's width, so a move can never
	// collapse a bucket. Default 0.4.
	MaxBorderFrac float64
	// MaxScale caps the per-record change of one bucket's count at a
	// factor of MaxScale growth (or 1/MaxScale shrink). Default 2.
	MaxScale float64
	// MaxJournal bounds the journal length; the oldest records are
	// evicted first. Default 256.
	MaxJournal int
}

// Defaults for zero Config fields.
const (
	DefaultAlpha         = 0.5
	DefaultBorderStep    = 0.25
	DefaultMaxBorderFrac = 0.4
	DefaultMaxScale      = 2.0
	DefaultMaxJournal    = 256
)

// massEps is the threshold below which a mass is treated as zero when
// choosing proportional weights.
const massEps = 1e-9

func (c Config) normalized() Config {
	if !(c.Alpha > 0) || c.Alpha > 1 || math.IsNaN(c.Alpha) {
		c.Alpha = DefaultAlpha
	}
	if !(c.BorderStep > 0) || c.BorderStep > 1 || math.IsNaN(c.BorderStep) {
		c.BorderStep = DefaultBorderStep
	}
	if !(c.MaxBorderFrac > 0) || c.MaxBorderFrac >= 1 || math.IsNaN(c.MaxBorderFrac) {
		c.MaxBorderFrac = DefaultMaxBorderFrac
	}
	if !(c.MaxScale > 1) || math.IsInf(c.MaxScale, 0) || math.IsNaN(c.MaxScale) {
		c.MaxScale = DefaultMaxScale
	}
	if c.MaxJournal <= 0 {
		c.MaxJournal = DefaultMaxJournal
	}
	return c
}

// Tuner holds one histogram's feedback journal. All methods are safe
// for concurrent use.
type Tuner struct {
	mu      sync.Mutex
	cfg     Config
	journal []Record
	rounds  uint64
}

// New returns an empty tuner with cfg's bounds (zero fields take the
// package defaults).
func New(cfg Config) *Tuner {
	return &Tuner{cfg: cfg.normalized()}
}

// Observe validates and journals one feedback record. The journal is
// bounded: beyond MaxJournal records the oldest are dropped, keeping
// the most recent feedback — the workload the estimates should track.
func (t *Tuner) Observe(rec Record) error {
	if math.IsNaN(rec.Lo) || math.IsNaN(rec.Hi) ||
		math.IsInf(rec.Lo, 0) || math.IsInf(rec.Hi, 0) {
		return fmt.Errorf("tuner: non-finite range [%v, %v]", rec.Lo, rec.Hi)
	}
	if rec.Hi < rec.Lo {
		return fmt.Errorf("tuner: inverted range [%v, %v]", rec.Lo, rec.Hi)
	}
	if math.IsNaN(rec.Observed) || math.IsInf(rec.Observed, 0) || rec.Observed < 0 {
		return fmt.Errorf("tuner: bad observed count %v", rec.Observed)
	}
	if math.IsNaN(rec.Estimated) || math.IsInf(rec.Estimated, 0) {
		return fmt.Errorf("tuner: bad estimated count %v", rec.Estimated)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.journal = append(t.journal, rec)
	if n := len(t.journal) - t.cfg.MaxJournal; n > 0 {
		copy(t.journal, t.journal[n:])
		t.journal = t.journal[:t.cfg.MaxJournal]
	}
	t.rounds++
	return nil
}

// Len returns the journal length.
func (t *Tuner) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.journal)
}

// Rounds returns the total number of records ever observed, including
// evicted ones.
func (t *Tuner) Rounds() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rounds
}

// ApplyTo replays the journal onto st, oldest record first. Each
// record's error is recomputed against the store as it stands when the
// record replays, so the journal composes across checkpoint/restore
// and across view epochs with different starting buckets.
func (t *Tuner) ApplyTo(st *histogram.Store) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rec := range t.journal {
		adjust(st, rec, t.cfg)
	}
}

// EstimateRange returns st's mass over the inclusive integer range
// [lo, hi] — mass in [lo, hi+1), matching View.EstimateRange.
func EstimateRange(st *histogram.Store, lo, hi float64) float64 {
	return st.MassBelowAll(hi+1) - st.MassBelowAll(lo)
}

// adjust applies one feedback record to the overlay: an error-weighted
// count redistribution over the buckets the predicate overlaps,
// followed by a bounded border nudge toward each predicate endpoint.
func adjust(st *histogram.Store, rec Record, cfg Config) {
	lo, hi := rec.Lo, rec.Hi+1
	est := st.MassBelowAll(hi) - st.MassBelowAll(lo)
	errv := rec.Observed - est
	if math.Abs(errv) <= 1e-9*(1+rec.Observed) {
		return
	}
	// The buckets the predicate overlaps are one run: the first bucket
	// ending past lo up to the last one starting before hi.
	n := st.Len()
	first := endingAfter(st, lo)
	end := first
	sumContM, sumContW, sumAllM, sumAllW := 0.0, 0.0, 0.0, 0.0
	for ; end < n && st.Left(end) < hi; end++ {
		m, w := containedSpan(st, end, lo, hi)
		sumContM += m
		sumContW += w
		sumAllM += st.Mass(end, lo, hi)
		sumAllW += min(st.Right(end), hi) - max(st.Left(end), lo)
	}
	if end == first {
		// The predicate lies outside every bucket (or in a gap): there
		// is no overlay state to correct, so the record is a no-op.
		return
	}
	// Scheme selection. A delta on a sub-counter fully inside the
	// predicate lands entirely in range; a delta on a partially
	// overlapping counter leaks its out-of-range fraction into
	// neighbouring predicates' estimates. So whenever the range
	// contains whole counters anywhere, only those receive mass
	// (weighted by their mass, or width when empty) and the record is
	// leak-free; the partial-overlap schemes serve only predicates
	// narrower than every counter they touch.
	containedOnly, useMass, sumw := true, true, sumContM
	switch {
	case sumContM > massEps:
	case sumContW > massEps:
		useMass, sumw = false, sumContW
	case sumAllM > massEps:
		containedOnly, sumw = false, sumAllM
	case sumAllW > massEps:
		containedOnly, useMass, sumw = false, false, sumAllW
	default:
		return
	}
	delta := cfg.Alpha * errv
	for i := first; i < end; i++ {
		var w float64
		switch {
		case containedOnly && useMass:
			w, _ = containedSpan(st, i, lo, hi)
		case containedOnly:
			_, w = containedSpan(st, i, lo, hi)
		case useMass:
			w = st.Mass(i, lo, hi)
		default:
			w = min(st.Right(i), hi) - max(st.Left(i), lo)
		}
		if share := delta * w / sumw; share != 0 {
			applyShare(st, i, lo, hi, share, containedOnly, cfg)
		}
	}
	nudgeBorder(st, lo, cfg)
	nudgeBorder(st, hi, cfg)
}

// endingAfter returns the first bucket whose right border exceeds x,
// or st.Len() when none does — where a scan from bucket 0 would stop,
// and the bucket Store.Find reports when it contains x. Right borders
// are sorted (Validate's 1e-9 overlap tolerance cannot reorder those of
// buckets wider than it, and rebinPair keeps a moved border between
// its neighbours), so a binary search finds it. Find would do as well
// only after rebuilding its grid index, which every border move the
// replay makes invalidates.
func endingAfter(st *histogram.Store, x float64) int {
	return sort.Search(st.Len(), func(i int) bool { return st.Right(i) > x })
}

// containedSpan returns the mass and total width of bucket i's
// sub-counters lying entirely inside [lo, hi).
func containedSpan(st *histogram.Store, i int, lo, hi float64) (m, w float64) {
	left, right := st.Left(i), st.Right(i)
	k := st.K()
	subW := (right - left) / float64(k)
	row := st.Row(i)
	for j := 0; j < k; j++ {
		slo := left + float64(j)*subW
		if ow := min(slo+subW, hi) - max(slo, lo); ow >= subW-1e-9*(1+subW) {
			m += row[j]
			w += subW
		}
	}
	return m, w
}

// applyShare adds share points to bucket i's mass inside [lo, hi),
// distributed over the candidate sub-bucket counters — only the
// fully-contained ones when containedOnly is set, every overlapping
// one otherwise — proportional to their in-range mass (overlap width
// when that mass is zero). The whole-bucket change is capped at a
// MaxScale factor and no counter goes negative.
func applyShare(st *histogram.Store, i int, lo, hi, share float64, containedOnly bool, cfg Config) {
	total := st.Count(i)
	if total > massEps {
		if up := (cfg.MaxScale - 1) * total; share > up {
			share = up
		}
		if down := -(1 - 1/cfg.MaxScale) * total; share < down {
			share = down
		}
	}
	left, right := st.Left(i), st.Right(i)
	k := st.K()
	subW := (right - left) / float64(k)
	row := st.Row(i)
	candidateW := func(j int) float64 {
		slo := left + float64(j)*subW
		ow := min(slo+subW, hi) - max(slo, lo)
		if ow <= 0 || (containedOnly && ow < subW-1e-9*(1+subW)) {
			return 0
		}
		return ow
	}

	// First pass: total weight over the candidate counters.
	sumM, sumW := 0.0, 0.0
	for j := 0; j < k; j++ {
		if ow := candidateW(j); ow > 0 {
			sumM += row[j] * ow / subW
			sumW += ow
		}
	}
	useMass, sumw := true, sumM
	if sumM <= massEps {
		if sumW <= massEps {
			return
		}
		useMass, sumw = false, sumW
	}
	// Second pass: each counter's weight is read before its own Add,
	// so the pass-one sum stays consistent.
	for j := 0; j < k; j++ {
		ow := candidateW(j)
		if ow <= 0 {
			continue
		}
		w := ow
		if useMass {
			w = row[j] * ow / subW
		}
		d := share * w / sumw
		if row[j]+d < 0 {
			d = -row[j]
		}
		st.Add(i, j, d)
	}
}

// nudgeBorder moves the bucket border nearest to predicate endpoint b
// a bounded step toward it, so repeated feedback at the same endpoint
// converges a border onto it and partial-overlap interpolation error
// vanishes there. Only a border *shared* with the adjacent bucket
// moves — mass in the ceded strip transfers to the neighbour under the
// uniform assumption — and a border facing a gap stays put, because
// moving it would manufacture or discard coverage.
func nudgeBorder(st *histogram.Store, b float64, cfg Config) {
	i := endingAfter(st, b)
	if i == st.Len() {
		return
	}
	left, right := st.Left(i), st.Right(i)
	if !(b > left && b < right) {
		return
	}
	if b-left <= right-b {
		// Pull the left border right, toward b; bucket i-1 absorbs the
		// ceded strip.
		if i == 0 || math.Abs(st.Right(i-1)-left) > 1e-9 {
			return
		}
		step := cfg.BorderStep * (b - left)
		if lim := cfg.MaxBorderFrac * math.Min(st.Width(i-1), st.Width(i)); step > lim {
			step = lim
		}
		if step <= 0 {
			return
		}
		rebinPair(st, i-1, i, left+step)
		return
	}
	// Pull the right border left, toward b; bucket i+1 absorbs.
	if i+1 >= st.Len() || math.Abs(st.Left(i+1)-right) > 1e-9 {
		return
	}
	step := cfg.BorderStep * (right - b)
	if lim := cfg.MaxBorderFrac * math.Min(st.Width(i), st.Width(i+1)); step > lim {
		step = lim
	}
	if step <= 0 {
		return
	}
	rebinPair(st, i, i+1, right-step)
}

// rebinPair moves the shared border of adjacent buckets (p, q) to nb
// and re-bins both rows onto the new geometry: each new sub-counter
// takes the mass the old piecewise-uniform layout held over its span.
// Unlike a flat refill, this preserves the sub-counter detail feedback
// has already built up — only the strip that changed buckets is
// re-interpolated.
func rebinPair(st *histogram.Store, p, q int, nb float64) {
	pLeft, qRight := st.Left(p), st.Right(q)
	if nb <= pLeft || nb >= qRight {
		return
	}
	mid := st.Right(p) // == st.Left(q), the border being moved
	k := st.K()
	var buf [8]float64 // the new rows stay on the stack up to K = 4
	rows := buf[:]
	if 2*k > len(buf) {
		rows = make([]float64, 2*k)
	}
	newP, newQ := rows[:k], rows[k:2*k]
	pw := (nb - pLeft) / float64(k)
	qw := (qRight - nb) / float64(k)
	for j := 0; j < k; j++ {
		slo, shi := pLeft+float64(j)*pw, pLeft+float64(j+1)*pw
		// A new p sub-span may straddle the old border: its mass is
		// whatever both old buckets held over it.
		newP[j] = st.Mass(p, slo, math.Min(shi, mid)) + st.Mass(q, math.Max(slo, mid), shi)
		slo, shi = nb+float64(j)*qw, nb+float64(j+1)*qw
		newQ[j] = st.Mass(p, slo, math.Min(shi, mid)) + st.Mass(q, math.Max(slo, mid), shi)
	}
	st.SetBorders(p, pLeft, nb)
	st.SetBorders(q, nb, qRight)
	setRow(st, p, newP)
	setRow(st, q, newQ)
}

// setRow overwrites bucket i's sub-counters through Add, so the
// per-bucket count stays consistent with the arena.
func setRow(st *histogram.Store, i int, row []float64) {
	old := st.Row(i)
	for j, v := range row {
		st.Add(i, j, v-old[j])
	}
}

// Journal snapshot codec: "DHTJ" magic, a version byte, the lifetime
// round counter, then the records. Little-endian throughout, like the
// repository's other binary formats.
const (
	journalMagic   = "DHTJ"
	journalVersion = 1
	recordSize     = 4 * 8
	headerSize     = 4 + 1 + 8 + 4
)

// Snapshot serialises the journal for the catalog.
func (t *Tuner) Snapshot() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf := make([]byte, headerSize+recordSize*len(t.journal))
	copy(buf, journalMagic)
	buf[4] = journalVersion
	binary.LittleEndian.PutUint64(buf[5:], t.rounds)
	binary.LittleEndian.PutUint32(buf[13:], uint32(len(t.journal)))
	off := headerSize
	for _, rec := range t.journal {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(rec.Lo))
		binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(rec.Hi))
		binary.LittleEndian.PutUint64(buf[off+16:], math.Float64bits(rec.Estimated))
		binary.LittleEndian.PutUint64(buf[off+24:], math.Float64bits(rec.Observed))
		off += recordSize
	}
	return buf
}

// FromSnapshot restores a tuner from a Snapshot blob under cfg's
// bounds. Records that fail Observe's validation (a corrupt or
// hand-edited blob) are dropped rather than failing the restore.
func FromSnapshot(blob []byte, cfg Config) (*Tuner, error) {
	if len(blob) < headerSize || string(blob[:4]) != journalMagic {
		return nil, fmt.Errorf("%w: tuner journal missing magic", histerr.ErrSnapshot)
	}
	if blob[4] != journalVersion {
		return nil, fmt.Errorf("%w: tuner journal version %d", histerr.ErrSnapshot, blob[4])
	}
	rounds := binary.LittleEndian.Uint64(blob[5:])
	n := int(binary.LittleEndian.Uint32(blob[13:]))
	if len(blob) != headerSize+recordSize*n {
		return nil, fmt.Errorf("%w: tuner journal length %d for %d record(s)",
			histerr.ErrSnapshot, len(blob), n)
	}
	t := New(cfg)
	off := headerSize
	for i := 0; i < n; i++ {
		rec := Record{
			Lo:        math.Float64frombits(binary.LittleEndian.Uint64(blob[off:])),
			Hi:        math.Float64frombits(binary.LittleEndian.Uint64(blob[off+8:])),
			Estimated: math.Float64frombits(binary.LittleEndian.Uint64(blob[off+16:])),
			Observed:  math.Float64frombits(binary.LittleEndian.Uint64(blob[off+24:])),
		}
		off += recordSize
		_ = t.Observe(rec)
	}
	t.rounds = rounds
	return t, nil
}
