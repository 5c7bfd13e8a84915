// Package wire defines the histserved wire formats shared by the
// server (internal/server) and the public Go client (client): the JSON
// request/response bodies of every /v1 endpoint and the length-prefixed
// binary batch format the ingest endpoints accept for high-volume
// writers.
//
// The binary batch format is deliberately minimal — a fixed header and
// a flat array of IEEE-754 doubles:
//
//	offset  size  field
//	0       4     magic 0x48425431 ("HBT1"), little-endian
//	4       4     count n, little-endian uint32
//	8       8·n   n float64 values, little-endian IEEE-754
//
// A batch must be exactly 8+8·n bytes; trailing bytes, short bodies and
// non-finite values are rejected. At ~8 bytes per value it is about 3×
// denser than the JSON encoding and needs no parsing beyond a bounds
// check, which is what makes the binary ingest path the fast one in the
// serving benchmarks.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// BatchMagic identifies a binary insert/delete batch ("HBT1").
const BatchMagic = 0x48425431

// BatchContentType is the Content-Type under which the ingest endpoints
// accept the binary batch format.
const BatchContentType = "application/x-dynahist-batch"

// batchHeaderSize is the fixed prefix: magic + count.
const batchHeaderSize = 8

// ErrBatch reports a malformed binary batch.
var ErrBatch = errors.New("wire: malformed batch")

// ErrBatchTooLarge reports a batch whose value count does not fit the
// format's 32-bit count field. Encoding such a batch used to silently
// truncate the count to uint32 and produce a body the decoder rejects;
// now the encoder refuses it up front.
var ErrBatchTooLarge = errors.New("wire: batch exceeds 2^32-1 values")

// AppendBatch appends the binary batch encoding of vs to dst and
// returns the extended slice. It errors with ErrBatchTooLarge when
// len(vs) does not fit the format's 32-bit count field (in which case
// dst is returned unmodified).
func AppendBatch(dst []byte, vs []float64) ([]byte, error) {
	if err := checkBatchCount(len(vs)); err != nil {
		return dst, err
	}
	dst = binary.LittleEndian.AppendUint32(dst, BatchMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vs)))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst, nil
}

// checkBatchCount is AppendBatch's count-field guard, factored out so
// the 2^32 boundary is testable without allocating a 32 GiB slice.
func checkBatchCount(n int) error {
	if uint64(n) > math.MaxUint32 {
		return fmt.Errorf("%w: %d values", ErrBatchTooLarge, n)
	}
	return nil
}

// EncodeBatch returns the binary batch encoding of vs; see AppendBatch
// for the count-field limit.
func EncodeBatch(vs []float64) ([]byte, error) {
	return AppendBatch(make([]byte, 0, batchHeaderSize+8*len(vs)), vs)
}

// DecodeBatch parses a binary batch, rejecting bad magic, truncated or
// oversized bodies, count mismatches and non-finite values.
func DecodeBatch(data []byte) ([]float64, error) {
	return DecodeBatchInto(nil, data)
}

// DecodeBatchInto parses a binary batch like DecodeBatch but decodes
// into dst's backing array, growing it only when the batch exceeds its
// capacity — the allocation-free form for callers that recycle their
// decode buffers (the server's binary ingest path). It returns the
// filled slice, which aliases dst when capacity sufficed; dst's
// previous contents are discarded. On error the returned slice is nil.
func DecodeBatchInto(dst []float64, data []byte) ([]float64, error) {
	if len(data) < batchHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrBatch, len(data), batchHeaderSize)
	}
	if magic := binary.LittleEndian.Uint32(data); magic != BatchMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrBatch, magic)
	}
	n := binary.LittleEndian.Uint32(data[4:])
	if want := batchHeaderSize + 8*uint64(n); uint64(len(data)) != want {
		return nil, fmt.Errorf("%w: count %d implies %d bytes, got %d", ErrBatch, n, want, len(data))
	}
	var vs []float64
	if uint64(cap(dst)) >= uint64(n) {
		vs = dst[:n]
	} else {
		vs = make([]float64, n)
	}
	for i := range vs {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[batchHeaderSize+8*i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite value at index %d", ErrBatch, i)
		}
		vs[i] = v
	}
	return vs, nil
}

// CreateRequest is the body of POST /v1/h.
type CreateRequest struct {
	// Name identifies the histogram; letters, digits, '_', '-' and '.',
	// at most 128 bytes.
	Name string `json:"name"`
	// Family is one of "dado", "dvo", "dc" or "ac".
	Family string `json:"family"`
	// MemBytes is the per-shard memory budget under the paper's space
	// accounting. Zero defaults to 1024.
	MemBytes int `json:"mem_bytes,omitempty"`
	// Shards is the write-striping factor. Zero defaults to GOMAXPROCS.
	Shards int `json:"shards,omitempty"`
	// Seed seeds the reservoir of the "ac" family; ignored otherwise.
	Seed int64 `json:"seed,omitempty"`
}

// Info describes one registered histogram; returned by create, get and
// list.
type Info struct {
	Name     string  `json:"name"`
	Family   string  `json:"family"`
	MemBytes int     `json:"mem_bytes"`
	Shards   int     `json:"shards"`
	Total    float64 `json:"total"`
}

// ListResponse is the body of GET /v1/h.
type ListResponse struct {
	Histograms []Info `json:"histograms"`
}

// ValuesRequest is the JSON body of POST /v1/h/{name}/insert and
// /delete.
type ValuesRequest struct {
	Values []float64 `json:"values"`
}

// UpdateResponse reports how many values an ingest call applied.
type UpdateResponse struct {
	Applied int `json:"applied"`
	// Total is the histogram's exact point count at ack time: the sum
	// of its shards' own counts, read without building the merged view.
	Total float64 `json:"total"`
	// LSN is the write-ahead-log sequence number the batch was logged
	// under — present (non-zero) only when the server runs with durable
	// ingest enabled. When set, Total may lag the batch: the ack means
	// the batch is durable, and the background digester folds it into
	// the histogram asynchronously.
	LSN uint64 `json:"lsn,omitempty"`
	// DigestedLSN is the WAL position the background digester had folded
	// into the in-memory histogram at ack time (durable-ingest servers
	// only). The acked batch is durable at LSN but only reflected in
	// reads once DigestedLSN reaches it, so a caller can distinguish
	// "acked durable" (LSN assigned) from "folded into the histogram"
	// (DigestedLSN ≥ LSN) instead of guessing from a lagging Total.
	DigestedLSN uint64 `json:"digested_lsn,omitempty"`
}

// WALStatusResponse is the body of GET /v1/wal/status: the durable
// ingest watermarks. AppendedLSN counts records acked, DigestedLSN
// records folded into the in-memory histograms, CheckpointLSN records
// covered by the last catalog snapshot (everything past it replays on
// restart). Lag = appended - digested.
type WALStatusResponse struct {
	Enabled       bool   `json:"enabled"`
	Dir           string `json:"dir,omitempty"`
	SyncPolicy    string `json:"sync_policy,omitempty"`
	AppendedLSN   uint64 `json:"appended_lsn"`
	DigestedLSN   uint64 `json:"digested_lsn"`
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	LagRecords    uint64 `json:"lag_records"`
	// DigestLag duplicates LagRecords under the name the stats plane
	// uses: appended LSN minus digested LSN, the number a
	// read-your-writes poller watches go to zero. Kept alongside
	// LagRecords so existing consumers of that field keep working.
	DigestLag          uint64 `json:"digest_lag"`
	Segments           int    `json:"segments"`
	ActiveSegmentBytes int64  `json:"active_segment_bytes"`
	TotalBytes         int64  `json:"total_bytes"`
}

// TotalResponse is the body of GET /v1/h/{name}/total.
type TotalResponse struct {
	Total float64 `json:"total"`
}

// CDFResponse is the body of GET /v1/h/{name}/cdf.
type CDFResponse struct {
	X   float64 `json:"x"`
	CDF float64 `json:"cdf"`
}

// QuantileResponse is the body of GET /v1/h/{name}/quantile.
type QuantileResponse struct {
	Q     float64 `json:"q"`
	Value float64 `json:"value"`
}

// RangeResponse is the body of GET /v1/h/{name}/range.
type RangeResponse struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count float64 `json:"count"`
}

// RangeQuery is one inclusive integer-value range [lo, hi] inside a
// QueryRequest.
type RangeQuery struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// QueryRequest is the body of POST /v1/h/{name}/query: a batch of
// statistics answered from one pinned view of the histogram, in one
// round trip. Every field is optional; the response always carries the
// total.
type QueryRequest struct {
	// Quantiles are q arguments, each in (0, 1].
	Quantiles []float64 `json:"quantiles,omitempty"`
	// CDF are the x arguments of CDF curve points.
	CDF []float64 `json:"cdf,omitempty"`
	// PDF are the x arguments of density points.
	PDF []float64 `json:"pdf,omitempty"`
	// Ranges are inclusive integer-value range-count queries.
	Ranges []RangeQuery `json:"ranges,omitempty"`
	// Buckets asks for the pinned bucket list itself.
	Buckets bool `json:"buckets,omitempty"`
}

// QueryResponse is the body of POST /v1/h/{name}/query: one answer per
// corresponding request argument, in order, all evaluated against the
// same pinned view (no write lands between the total and the
// statistics it normalises).
type QueryResponse struct {
	Total     float64   `json:"total"`
	Quantiles []float64 `json:"quantiles,omitempty"`
	CDF       []float64 `json:"cdf,omitempty"`
	PDF       []float64 `json:"pdf,omitempty"`
	Ranges    []float64 `json:"ranges,omitempty"`
	Buckets   []Bucket  `json:"buckets,omitempty"`
}

// Bucket is the JSON form of one histogram bucket.
type Bucket struct {
	Left     float64   `json:"left"`
	Right    float64   `json:"right"`
	Counters []float64 `json:"counters"`
}

// BucketsResponse is the body of GET /v1/h/{name}/buckets.
type BucketsResponse struct {
	Buckets []Bucket `json:"buckets"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Multi-node serving (paper §8: any site's histogram unions losslessly
// into a global one). A peer-role server exposes its histograms as
// compact snapshot envelopes instead of raw data; readers scatter-gather
// the envelopes and superpose them, and peers anti-entropy each other's
// catalogs so a rejoining site catches up without re-ingesting.

// EnvelopeContentType is the Content-Type under which the per-histogram
// envelope endpoint (GET /v1/h/{name}/envelope) serves the
// self-describing dynahist snapshot blob.
const EnvelopeContentType = "application/x-dynahist-envelope"

// SiteEntryContentType is the Content-Type under which the anti-entropy
// entry endpoint (GET /v1/sites/entry) serves a catalog-entry blob —
// the server-to-server replication unit (snapshot envelope plus the
// entry's identity and configuration).
const SiteEntryContentType = "application/x-dynahist-catalog-entry"

// Envelope response headers: the metadata riding beside a binary
// envelope or catalog-entry body.
const (
	// HeaderSite is the ID of the site whose data the blob summarises.
	HeaderSite = "X-Dynahist-Site"
	// HeaderWatermark is the origin site's covered watermark at snapshot
	// time: a monotonic per-site counter (the WAL digested LSN on
	// durable servers) saying how much ingest the blob already contains.
	HeaderWatermark = "X-Dynahist-Watermark"
	// HeaderTotal is the exact point count at snapshot time: the sum of
	// the shards' own counts, not a figure read off the merged view.
	HeaderTotal = "X-Dynahist-Total"
)

// FeedbackRequest is the body of POST /v1/h/{name}/feedback: one unit
// of query feedback for the self-tuning loop. The executed predicate
// covered the inclusive integer range [lo, hi] (the EstimateRange
// convention) and actually matched observed points; the server pairs
// it with its own current estimate and journals the record.
type FeedbackRequest struct {
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	Observed float64 `json:"observed"`
}

// FeedbackResponse reports what one feedback record did: the estimate
// the serving view gave before the record was journaled, the estimate
// after (the next query's answer), and the journal state.
type FeedbackResponse struct {
	Name     string  `json:"name"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	Observed float64 `json:"observed"`
	// Estimated is the tuned view's range estimate before this record.
	Estimated float64 `json:"estimated"`
	// TunedEstimate is the range estimate after the record applied.
	TunedEstimate float64 `json:"tuned_estimate"`
	// JournalLen and Rounds describe the entry's feedback journal:
	// records currently retained, and records ever observed.
	JournalLen int    `json:"journal_len"`
	Rounds     uint64 `json:"rounds"`
}

// SiteEntriesContentType is the Content-Type under which the batch
// anti-entropy endpoint (GET /v1/sites/entries) serves many
// catalog-entry blobs in one framed body.
const SiteEntriesContentType = "application/x-dynahist-catalog-entries"

// siteEntriesMagic identifies a batched catalog-entry body ("HSE1").
const siteEntriesMagic = 0x48534531

// ErrSiteEntries reports a malformed batched catalog-entry body.
var ErrSiteEntries = errors.New("wire: malformed site-entries batch")

// SiteEntryBlob is one item of a batched catalog-entry response: a
// histogram's catalog-entry blob plus the watermark it was served at.
// The site is constant per response (it rides in HeaderSite).
type SiteEntryBlob struct {
	Name      string
	Watermark uint64
	Data      []byte
}

// EncodeSiteEntries frames many catalog-entry blobs into one body:
//
//	u32 magic "HSE1", u32 count, then per item
//	u16 name length + name bytes, u64 watermark,
//	u32 blob length + blob bytes
//
// — one round trip where the per-entry endpoint needs one per
// histogram.
func EncodeSiteEntries(items []SiteEntryBlob) []byte {
	size := 8
	for _, it := range items {
		size += 2 + len(it.Name) + 8 + 4 + len(it.Data)
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint32(out, siteEntriesMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(items)))
	for _, it := range items {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(it.Name)))
		out = append(out, it.Name...)
		out = binary.LittleEndian.AppendUint64(out, it.Watermark)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(it.Data)))
		out = append(out, it.Data...)
	}
	return out
}

// DecodeSiteEntries parses an EncodeSiteEntries body, rejecting bad
// magic, truncated items and trailing bytes. The returned Data slices
// alias the input.
func DecodeSiteEntries(data []byte) ([]SiteEntryBlob, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: %d bytes", ErrSiteEntries, len(data))
	}
	if magic := binary.LittleEndian.Uint32(data); magic != siteEntriesMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrSiteEntries, magic)
	}
	n := binary.LittleEndian.Uint32(data[4:])
	// Each item needs at least its fixed 14 bytes of framing.
	if uint64(n) > uint64(len(data))/14 {
		return nil, fmt.Errorf("%w: implausible count %d in %d bytes", ErrSiteEntries, n, len(data))
	}
	items := make([]SiteEntryBlob, 0, n)
	off := 8
	for i := uint32(0); i < n; i++ {
		if off+2 > len(data) {
			return nil, fmt.Errorf("%w: truncated item %d", ErrSiteEntries, i)
		}
		nameLen := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+nameLen+12 > len(data) {
			return nil, fmt.Errorf("%w: truncated item %d", ErrSiteEntries, i)
		}
		name := string(data[off : off+nameLen])
		off += nameLen
		wm := binary.LittleEndian.Uint64(data[off:])
		off += 8
		blobLen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if blobLen < 0 || off+blobLen > len(data) {
			return nil, fmt.Errorf("%w: truncated blob in item %d", ErrSiteEntries, i)
		}
		items = append(items, SiteEntryBlob{Name: name, Watermark: wm, Data: data[off : off+blobLen]})
		off += blobLen
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSiteEntries, len(data)-off)
	}
	return items, nil
}

// SiteEntry is one row of a peer's anti-entropy catalog: a histogram
// held at the serving node — authoritative when Site is the node's own
// site ID, a replica otherwise — with the covered watermark a puller
// compares against its own copy.
type SiteEntry struct {
	Site      string  `json:"site"`
	Name      string  `json:"name"`
	Watermark uint64  `json:"watermark"`
	Total     float64 `json:"total"`
}

// Observability (GET /v1/stats): the structured-JSON face of the
// metrics plane. The same state is exposed in Prometheus text form at
// GET /metrics; both are enabled by `histserved -metrics`. Latency and
// size quantiles are estimated by internal/obs trackers — DADO dynamic
// histograms under a small bucket budget — at 0.5/0.9/0.99.

// EndpointStats is one route's HTTP serving statistics.
type EndpointStats struct {
	Requests uint64 `json:"requests"`
	InFlight int64  `json:"in_flight"`
	// Latency quantiles in seconds.
	LatencyP50 float64 `json:"latency_p50_seconds"`
	LatencyP90 float64 `json:"latency_p90_seconds"`
	LatencyP99 float64 `json:"latency_p99_seconds"`
	// Status counts responses by class ("2xx", "4xx", …); classes with
	// no responses are absent.
	Status map[string]uint64 `json:"status,omitempty"`
}

// CacheStats describes the epoch-keyed query cache.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	StalePuts uint64 `json:"stale_puts"`
	Evictions uint64 `json:"evictions"`
	// HitRatio is hits / (hits + misses); 0 before any lookup.
	HitRatio float64 `json:"hit_ratio"`
}

// WALStats describes the durable-ingest pipeline; zero-valued with
// Enabled false on servers running without a WAL.
type WALStats struct {
	Enabled     bool   `json:"enabled"`
	AppendedLSN uint64 `json:"appended_lsn"`
	DigestedLSN uint64 `json:"digested_lsn"`
	// DigestLag is appended minus digested: acked records not yet
	// folded into the in-memory histograms.
	DigestLag uint64 `json:"digest_lag"`
	Fsyncs    uint64 `json:"fsyncs"`
	Rotations uint64 `json:"rotations"`
}

// PeerSyncStats is one peer's anti-entropy health.
type PeerSyncStats struct {
	Peer     string `json:"peer"`
	Failures uint64 `json:"failures"`
	// BackoffSeconds is the current retry delay; 0 when the peer is
	// healthy.
	BackoffSeconds float64 `json:"backoff_seconds"`
}

// AntiEntropyStats describes the peer-sync loop.
type AntiEntropyStats struct {
	Rounds     uint64 `json:"rounds"`
	Adopted    uint64 `json:"adopted"`
	Replicated uint64 `json:"replicated"`
	Skipped    uint64 `json:"skipped"`
	// FallbackPulls counts rows pulled one at a time after an
	// incomplete batch fetch.
	FallbackPulls uint64          `json:"fallback_pulls"`
	Peers         []PeerSyncStats `json:"peers,omitempty"`
}

// TuningStats describes the feedback plane.
type TuningStats struct {
	Enabled bool   `json:"enabled"`
	Applied uint64 `json:"applied"`
	// Clamped counts records whose bounded adjustment left the tuned
	// estimate more than max(1, 1% of observed) away from the observed
	// count — feedback the tuner could not fully absorb.
	Clamped uint64 `json:"clamped"`
}

// IngestStats describes the ingest batch-size distribution.
type IngestStats struct {
	Batches uint64 `json:"batches"`
	// Values is the total number of values ingested across batches.
	Values   float64 `json:"values"`
	BatchP50 float64 `json:"batch_p50"`
	BatchP90 float64 `json:"batch_p90"`
	BatchP99 float64 `json:"batch_p99"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	SiteID        string                   `json:"site_id,omitempty"`
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Histograms    int                      `json:"histograms"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	Cache         CacheStats               `json:"cache"`
	WAL           WALStats                 `json:"wal"`
	AntiEntropy   AntiEntropyStats         `json:"anti_entropy"`
	Tuning        TuningStats              `json:"tuning"`
	Ingest        IngestStats              `json:"ingest"`
}

// SiteCatalogResponse is the body of GET /v1/sites/catalog: the serving
// node's site identity and everything it can hand to a peer — its own
// histograms plus the peer replicas it holds. Watermark is the node's
// current own-site watermark; a puller prunes its replicas of this
// site only for entries absent here AND covered by this watermark, so
// a freshly rejoined (empty, watermark-zero) node never triggers
// pruning of the very replicas it is about to adopt.
type SiteCatalogResponse struct {
	SiteID    string      `json:"site_id"`
	Watermark uint64      `json:"watermark"`
	Peers     []string    `json:"peers,omitempty"`
	Entries   []SiteEntry `json:"entries"`
}
