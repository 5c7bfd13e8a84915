// Package server implements histserved, the HTTP serving layer over
// this repository's dynamic histograms: a named-histogram registry
// whose entries are Sharded engines (one per histogram, for write
// scaling), JSON and binary-batch ingest endpoints, a batched query
// endpoint answering many statistics from one pinned view plus
// per-statistic GET wrappers (total, cdf, quantile, range, buckets),
// and snapshot-backed recovery
// — a checkpoint loop that periodically serializes every registered
// histogram to a catalog directory so a restarted server keeps
// maintaining where it left off.
package server

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dynahist"
	"dynahist/internal/tuner"
	"dynahist/internal/wire"
)

// Families accepted by the registry — the wire names of the maintained
// kinds (dynahist.ParseKind parses them, Kind.String prints them).
const (
	FamilyDADO = "dado"
	FamilyDVO  = "dvo"
	FamilyDC   = "dc"
	FamilyAC   = "ac"
)

// Registry errors, mapped onto HTTP statuses by the handlers.
var (
	ErrExists   = errors.New("server: histogram already exists")
	ErrNotFound = errors.New("server: no such histogram")
	ErrBadName  = errors.New("server: invalid histogram name")
	ErrFamily   = errors.New("server: unsupported family")
)

// maxNameLen bounds histogram names; names also double as catalog file
// stems, so the charset is filesystem-safe.
const maxNameLen = 128

// ValidName reports whether name is usable: 1–128 bytes of letters,
// digits, '_', '-' and '.', not starting with '.' (which excludes
// hidden files, "." and "..").
func ValidName(name string) bool {
	if len(name) == 0 || len(name) > maxNameLen || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '_' || c == '-' || c == '.':
		default:
			return false
		}
	}
	return true
}

// entry is one registered histogram: its identity and configuration
// plus the sharded engine serving it. The family is not stored beside
// the engine — it lives in the engine's own member kind, which the
// self-describing snapshot envelope carries through the catalog.
type entry struct {
	name     string
	memBytes int
	shards   int
	seed     int64
	// walLSN is the write-ahead-log position the entry's restored
	// snapshot already covers (0 for live-created entries and pre-WAL
	// catalogs). Replay skips this entry's records at or below it, so a
	// crash between the catalog write and the WAL's own position update
	// cannot double-apply the overlap. It is a recovery-time fact only:
	// live digestion always carries strictly larger LSNs.
	walLSN uint64
	// siteWM is the site watermark this entry's in-memory state covers:
	// the server's advertised watermark at the entry's last applied
	// mutation (restored from catalog v4 at startup; 0 for older files).
	// Unlike walLSN it is in the site's logical-ingest sequence, not the
	// local WAL's. It is the unit anti-entropy compares: catalog rows
	// advertise it, adoption is gated on it per entry, and startup seeds
	// the server's watermark from the maximum over restored entries.
	// Stamped strictly *after* the mutation applies, so a concurrent
	// reader pairing siteWM with a snapshot may understate the
	// snapshot's coverage but never overstate it.
	siteWM atomic.Uint64
	h      *dynahist.Sharded

	// qEpoch is the entry's query epoch: bumped strictly *after* every
	// applied mutation (ingest fold, adoption-free non-WAL insert,
	// feedback) on the same sites that stamp siteWM. Readers load it
	// before pinning a view; the query cache keys every stored response
	// on the epoch the reader observed, so a response computed before a
	// write can never be served to a reader who started after it.
	qEpoch atomic.Uint64
	// qc caches marshaled POST /query responses per (epoch, raw body).
	qc queryCache

	// Self-tuning state: the feedback journal (tun) and, for entries
	// restored from a catalog, the raw journal blob awaiting its first
	// use (decoded lazily because the tuner config lives on the
	// server, not the catalog file). Both guarded by tunMu.
	tunMu   sync.Mutex
	tun     *tuner.Tuner
	journal []byte

	// Tuned-view memo: the overlay view served while the entry's query
	// epoch and the tuner's round counter are unchanged. Guarded by
	// tvMu.
	tvMu     sync.Mutex
	tv       *dynahist.View
	tvEpoch  uint64
	tvRounds uint64
}

// bumpSiteWM lifts the entry's covered watermark to at least wm,
// never lowering it — concurrent stamps land in arbitrary order, and
// the advertised coverage must stay monotone regardless.
func (e *entry) bumpSiteWM(wm uint64) {
	for {
		cur := e.siteWM.Load()
		if wm <= cur || e.siteWM.CompareAndSwap(cur, wm) {
			return
		}
	}
}

// kind returns the maintained kind the entry's shards were built from.
func (e *entry) kind() dynahist.Kind { return e.h.MemberKind() }

func (e *entry) info() wire.Info {
	return wire.Info{
		Name:     e.name,
		Family:   e.kind().String(),
		MemBytes: e.memBytes,
		Shards:   e.shards,
		Total:    e.h.Total(),
	}
}

// Registry is a concurrent name → histogram map. All methods are safe
// for concurrent use.
type Registry struct {
	mu sync.RWMutex
	m  map[string]*entry
	// retiredMerges holds the merge counts of entries deleted or
	// replaced, so Merges stays monotone as entries come and go.
	retiredMerges uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]*entry)}
}

// newFamilyHistogram builds the Sharded engine for one registry entry
// through the dynahist.New front door. memBytes is the per-shard
// budget; for AC each shard's reservoir is seeded distinctly so the
// shards do not make identical sampling decisions.
func newFamilyHistogram(kind dynahist.Kind, memBytes, shards int, seed int64) (*dynahist.Sharded, error) {
	if !kind.Maintained() {
		return nil, fmt.Errorf("%w: %q", ErrFamily, kind.String())
	}
	var factory func() (dynahist.Histogram, error)
	if kind == dynahist.KindAC {
		var shardSeq atomic.Int64
		factory = func() (dynahist.Histogram, error) {
			return dynahist.New(kind, dynahist.WithMemory(memBytes), dynahist.WithSeed(seed+shardSeq.Add(1)))
		}
	} else {
		factory = func() (dynahist.Histogram, error) {
			return dynahist.New(kind, dynahist.WithMemory(memBytes))
		}
	}
	return dynahist.NewSharded(factory, dynahist.WithShards(shards))
}

// parseFamily maps a wire family name onto a maintained kind.
func parseFamily(family string) (dynahist.Kind, error) {
	kind, err := dynahist.ParseKind(family)
	if err != nil || !kind.Maintained() {
		return dynahist.KindUnknown, fmt.Errorf("%w: %q", ErrFamily, family)
	}
	return kind, nil
}

// Create registers a new histogram. Zero MemBytes defaults to 1024
// bytes per shard; zero Shards defaults to the engine's GOMAXPROCS
// default.
func (r *Registry) Create(req wire.CreateRequest) (wire.Info, error) {
	if !ValidName(req.Name) {
		return wire.Info{}, fmt.Errorf("%w: %q", ErrBadName, req.Name)
	}
	if req.MemBytes == 0 {
		req.MemBytes = 1024
	}
	if req.MemBytes < 0 || req.Shards < 0 {
		return wire.Info{}, fmt.Errorf("server: negative mem_bytes or shards")
	}
	kind, err := parseFamily(req.Family)
	if err != nil {
		return wire.Info{}, err
	}
	h, err := newFamilyHistogram(kind, req.MemBytes, req.Shards, req.Seed)
	if err != nil {
		return wire.Info{}, err
	}
	e := &entry{
		name:     req.Name,
		memBytes: req.MemBytes,
		shards:   h.NumShards(),
		seed:     req.Seed,
		h:        h,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.checkCollision(e.name); err != nil {
		return wire.Info{}, err
	}
	r.m[e.name] = e
	return e.info(), nil
}

// attach inserts a restored entry, failing on duplicates.
func (r *Registry) attach(e *entry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.checkCollision(e.name); err != nil {
		return err
	}
	r.m[e.name] = e
	return nil
}

// replace installs e, overwriting any existing entry of the same name —
// the anti-entropy adoption path, where a peer's replica of this site's
// histogram supersedes whatever (possibly nothing) is registered
// locally. A case-insensitive collision with a *different* name is
// still rejected, for the same catalog-file-stem reason as Create.
func (r *Registry) replace(e *entry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.m[e.name]; ok {
		r.retiredMerges += cur.h.Merges()
	} else if err := r.checkCollision(e.name); err != nil {
		return err
	}
	r.m[e.name] = e
	return nil
}

// checkCollision rejects a name that is already registered, exactly or
// up to letter case: names double as catalog file stems, and on a
// case-insensitive filesystem two case-only variants would silently
// share one file and clobber each other's checkpoints. Callers hold
// r.mu.
func (r *Registry) checkCollision(name string) error {
	if _, ok := r.m[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	for existing := range r.m {
		if strings.EqualFold(existing, name) {
			return fmt.Errorf("%w: %q collides with %q up to letter case", ErrExists, name, existing)
		}
	}
	return nil
}

// Get returns the named entry.
func (r *Registry) get(name string) (*entry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.m[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e, nil
}

// Histogram returns the sharded engine serving name.
func (r *Registry) Histogram(name string) (*dynahist.Sharded, error) {
	e, err := r.get(name)
	if err != nil {
		return nil, err
	}
	return e.h, nil
}

// Delete removes the named histogram.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.m[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	r.retiredMerges += e.h.Merges()
	delete(r.m, name)
	return nil
}

// Merges returns how many merged views the registry's histograms have
// built, counting histograms since deleted or replaced.
func (r *Registry) Merges() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := r.retiredMerges
	for _, e := range r.m {
		n += e.h.Merges()
	}
	return n
}

// Has reports whether name is registered.
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.m[name]
	return ok
}

// List returns every registered histogram's info, sorted by name.
func (r *Registry) List() []wire.Info {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.m))
	for _, e := range r.m {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	infos := make([]wire.Info, len(entries))
	for i, e := range entries {
		infos[i] = e.info()
	}
	return infos
}

// entries returns a stable snapshot of the registered entries, sorted
// by name — the checkpoint loop's iteration order.
func (r *Registry) entries() []*entry {
	r.mu.RLock()
	out := make([]*entry, 0, len(r.m))
	for _, e := range r.m {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Len returns the number of registered histograms.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}
