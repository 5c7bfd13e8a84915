// Scatter-gather reads over a multi-node histserved deployment.
//
// The paper's §8 superposition result is what makes this work: a union
// histogram with a border wherever any member has one represents the
// combined distribution exactly — merging loses nothing — so a global
// answer needs only one snapshot envelope per site, not the data. The
// Fanout fetches and restores every site's envelope concurrently, then
// superposes every site's shard bucket lists in one pass into the
// lossless union — superposition is associative, so no site merges its
// own shards first — optionally reduces back to a bucket budget with
// the paper's SSBM pass, and answers the whole QuerySpec from the
// merged result. A site that cannot be reached degrades the answer to
// the reachable sites and flags it Partial rather than failing the
// read.
package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"dynahist"
	"dynahist/internal/wire"
)

// Envelope is one site's snapshot envelope for a histogram: a
// restorable blob (dynahist.Restore accepts it) plus the site identity
// and watermark it was served under.
type Envelope struct {
	// Site is the serving node's site ID.
	Site string
	// Watermark is the site's ingest watermark the snapshot covers.
	Watermark uint64
	// Total is the histogram's point count at snapshot time.
	Total float64
	// Data is the self-describing snapshot envelope.
	Data []byte
}

// Envelope fetches the server's snapshot envelope for name — the
// scatter-gather read unit, also useful on its own for backup or
// offline analysis.
func (c *Client) Envelope(ctx context.Context, name string) (Envelope, error) {
	data, hdr, err := c.getRaw(ctx, "/v1/h/"+url.PathEscape(name)+"/envelope")
	if err != nil {
		return Envelope{}, err
	}
	env := Envelope{Site: hdr.Get(wire.HeaderSite), Data: data}
	if v, err := strconv.ParseUint(hdr.Get(wire.HeaderWatermark), 10, 64); err == nil {
		env.Watermark = v
	}
	if v, err := strconv.ParseFloat(hdr.Get(wire.HeaderTotal), 64); err == nil {
		env.Total = v
	}
	return env, nil
}

// SiteResult is one site's contribution to a global read.
type SiteResult struct {
	// BaseURL is the site's server address.
	BaseURL string
	// Site is the node's site ID (empty when the fetch failed).
	Site string
	// Watermark is the site ingest watermark the snapshot covers.
	Watermark uint64
	// Total is the site's local point count.
	Total float64
	// Err is the fetch failure, nil on success. A failed site is
	// excluded from the global answer and flips Partial.
	Err error
}

// GlobalSummary is a scatter-gather read result: the Summary computed
// over the superposed union of every reachable site, plus per-site
// provenance. Partial reads are answers, not errors — a dashboard
// would rather show the surviving sites' latency distribution flagged
// as partial than nothing.
type GlobalSummary struct {
	Summary
	// Sites holds one entry per fanned-out site, in Fanout order.
	Sites []SiteResult
	// Partial is true when at least one site failed and the Summary
	// covers only the rest.
	Partial bool
}

// Fanout reads one logical histogram that is sharded by keyspace
// across several histserved nodes. It is safe for concurrent use.
type Fanout struct {
	clients []*Client
	urls    []string
}

// NewFanout returns a Fanout over the sites at baseURLs. A nil
// httpClient uses the package default (30-second timeout); the same
// client is shared across sites.
func NewFanout(baseURLs []string, httpClient *http.Client) *Fanout {
	f := &Fanout{
		clients: make([]*Client, len(baseURLs)),
		urls:    make([]string, len(baseURLs)),
	}
	for i, u := range baseURLs {
		f.clients[i] = New(u, httpClient)
		f.urls[i] = u
	}
	return f
}

// Sites returns the base URLs the Fanout spans, in fan-out order.
func (f *Fanout) Sites() []string {
	out := make([]string, len(f.urls))
	copy(out, f.urls)
	return out
}

// CreateAll registers the histogram on every site concurrently. A site
// that already has it counts as success (CreateAll is idempotent);
// any other failure is returned, one error per failed site.
func (f *Fanout) CreateAll(ctx context.Context, opts CreateOptions) error {
	errs := make([]error, len(f.clients))
	var wg sync.WaitGroup
	for i, c := range f.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Create(ctx, opts)
			var apiErr *APIError
			if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict {
				err = nil
			}
			if err != nil {
				errs[i] = fmt.Errorf("site %s: %w", f.urls[i], err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// DescribeOptions parameterise a global Describe.
type DescribeOptions struct {
	// MaxBuckets reduces the superposed union back to at most this many
	// buckets (the paper's SSBM pass) before answering — bounding the
	// merged histogram's size regardless of how many sites contributed.
	// 0 keeps the lossless union.
	MaxBuckets int
}

// Describe answers the spec over the global distribution: every
// site's envelope is fetched and restored concurrently, all the
// restored sites' shards are superposed in one pass into the lossless
// §8 union (reduced to opts.MaxBuckets when set), and the spec's shape
// statistics — quantiles, CDF, PDF, ranges and buckets — are evaluated
// against the merged histogram.
// Total is the exact sum of the reachable sites' totals, not the
// union's float-summed bucket mass. Sites that fail are skipped and
// flagged — the answer is Partial, not an error — but a read where
// every site fails, or the spec itself is unanswerable, errors.
func (f *Fanout) Describe(ctx context.Context, name string, spec QuerySpec, opts DescribeOptions) (GlobalSummary, error) {
	g := GlobalSummary{Sites: make([]SiteResult, len(f.clients))}
	hists := make([]dynahist.Histogram, len(f.clients))
	var wg sync.WaitGroup
	for i, c := range f.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr := &g.Sites[i]
			sr.BaseURL = f.urls[i]
			env, err := c.Envelope(ctx, name)
			if err != nil {
				sr.Err = err
				return
			}
			h, err := dynahist.Restore(env.Data)
			if err != nil {
				sr.Err = fmt.Errorf("restoring envelope: %w", err)
				return
			}
			// Nothing merges here: Superpose below takes each restored
			// Sharded's shard bucket lists straight into the one §8
			// union, so no site builds its own merged view.
			sr.Site, sr.Watermark, sr.Total = env.Site, env.Watermark, h.Total()
			hists[i] = h
		}()
	}
	wg.Wait()

	members := make([]dynahist.Histogram, 0, len(hists))
	total := 0.0
	for i, h := range hists {
		if h != nil {
			members = append(members, h)
			total += g.Sites[i].Total
		} else {
			g.Partial = true
			if g.Sites[i].Err == nil {
				g.Sites[i].Err = errors.New("no envelope")
			}
		}
	}
	if len(members) == 0 {
		errs := make([]error, 0, len(g.Sites))
		for _, sr := range g.Sites {
			errs = append(errs, fmt.Errorf("site %s: %w", sr.BaseURL, sr.Err))
		}
		return g, fmt.Errorf("histserved: all %d sites failed: %w", len(g.Sites), errors.Join(errs...))
	}

	buckets, err := dynahist.Superpose(members...)
	if err != nil {
		return g, fmt.Errorf("histserved: superposing %d sites: %w", len(members), err)
	}
	if opts.MaxBuckets > 0 && len(buckets) > opts.MaxBuckets {
		if buckets, err = dynahist.Reduce(buckets, opts.MaxBuckets); err != nil {
			return g, fmt.Errorf("histserved: reducing union to %d buckets: %w", opts.MaxBuckets, err)
		}
	}
	global, err := dynahist.NewStaticFromBuckets(buckets)
	if err != nil {
		return g, fmt.Errorf("histserved: building union histogram: %w", err)
	}
	sum, err := dynahist.Describe(global, dynahist.QuerySpec{
		Quantiles: spec.Quantiles,
		CDF:       spec.CDF,
		PDF:       spec.PDF,
		Ranges:    toDynaRanges(spec.Ranges),
		Buckets:   spec.Buckets,
	})
	if err != nil {
		return g, err
	}
	g.Summary = Summary{
		Total:     total,
		Quantiles: sum.Quantiles,
		CDF:       sum.CDF,
		PDF:       sum.PDF,
		Ranges:    sum.Ranges,
	}
	if len(sum.Buckets) > 0 {
		g.Buckets = make([]Bucket, len(sum.Buckets))
		for i, b := range sum.Buckets {
			g.Buckets[i] = Bucket{Left: b.Left, Right: b.Right, Counters: b.Counters}
		}
	}
	return g, nil
}

func toDynaRanges(rs []Range) []dynahist.Range {
	if len(rs) == 0 {
		return nil
	}
	out := make([]dynahist.Range, len(rs))
	for i, r := range rs {
		out[i] = dynahist.Range{Lo: r.Lo, Hi: r.Hi}
	}
	return out
}
