package server

// Durable-ingest tests: the server driven with a write-ahead log,
// including in-process crash recovery (a server abandoned without its
// final checkpoint), the checkpoint/digest overlap regression, torn
// tails, and injected disk faults on the live ingest path.

import (
	"bytes"
	"encoding/json"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dynahist/internal/fsfault"
	"dynahist/internal/wal"
	"dynahist/internal/wire"
)

// walConfig returns a durable-ingest config over the two directories.
func walConfig(catDir, walDir string) Config {
	return Config{
		CatalogDir: catDir,
		WAL:        wal.Options{Dir: walDir, Sync: wal.SyncAlways},
	}
}

// newCrashableServer builds a server the caller will crash (or close)
// explicitly; only the HTTP front end is torn down automatically.
func newCrashableServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Logger = log.New(os.Stderr, t.Name()+": ", 0)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// crash abandons a server the way a kill does: the digest queue is
// released and file handles closed so the test process stays clean,
// but no final checkpoint is taken — on-disk state is exactly what the
// appends and any explicit checkpoints left behind.
func crash(s *Server) {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.loopDone
	if s.wal != nil {
		s.stopWAL()
		_ = s.wal.Close()
	}
}

// waitDigested blocks until the digester has folded every appended
// record.
func waitDigested(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.wal.DigestedLSN() < s.wal.LastLSN() {
		if time.Now().After(deadline) {
			t.Fatalf("digester stuck: digested %d < appended %d", s.wal.DigestedLSN(), s.wal.LastLSN())
		}
		time.Sleep(time.Millisecond)
	}
}

func getTotal(t *testing.T, base, name string) float64 {
	t.Helper()
	var resp wire.TotalResponse
	do(t, "GET", base+"/v1/h/"+name+"/total", "", nil, http.StatusOK, &resp)
	return resp.Total
}

func getWALStatus(t *testing.T, base string) wire.WALStatusResponse {
	t.Helper()
	var resp wire.WALStatusResponse
	do(t, "GET", base+"/v1/wal/status", "", nil, http.StatusOK, &resp)
	return resp
}

func mustInsertBinary(t *testing.T, base, name string, vs []float64) wire.UpdateResponse {
	t.Helper()
	body, err := wire.EncodeBatch(vs)
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.UpdateResponse
	do(t, "POST", base+"/v1/h/"+name+"/insert", wire.BatchContentType, body, http.StatusOK, &resp)
	return resp
}

func TestWALIngestEndToEnd(t *testing.T) {
	walDir := t.TempDir()
	_, ts := newTestServer(t, Config{WAL: wal.Options{Dir: walDir, Sync: wal.SyncAlways}})

	mustCreate(t, ts.URL, "lat", FamilyDADO, 2048, 2)

	// Acks carry increasing LSNs (the create took LSN 1).
	r1 := mustInsertJSON(t, ts.URL, "lat", seqValues(100))
	r2 := mustInsertBinary(t, ts.URL, "lat", seqValues(50))
	if r1.LSN == 0 || r2.LSN != r1.LSN+1 {
		t.Fatalf("ack LSNs = %d, %d; want consecutive non-zero", r1.LSN, r2.LSN)
	}
	if r1.Applied != 100 || r2.Applied != 50 {
		t.Fatalf("applied = %d, %d", r1.Applied, r2.Applied)
	}

	// Deletes flow through the log too.
	body, _ := json.Marshal(wire.ValuesRequest{Values: []float64{1, 2, 3}})
	var rd wire.UpdateResponse
	do(t, "POST", ts.URL+"/v1/h/lat/delete", "application/json", body, http.StatusOK, &rd)
	if rd.LSN != r2.LSN+1 {
		t.Fatalf("delete ack LSN = %d, want %d", rd.LSN, r2.LSN+1)
	}

	// The digester folds asynchronously; the total converges to the
	// exact count.
	deadline := time.Now().Add(10 * time.Second)
	for getTotal(t, ts.URL, "lat") != 147 {
		if time.Now().After(deadline) {
			t.Fatalf("total never converged: %v, want 147", getTotal(t, ts.URL, "lat"))
		}
		time.Sleep(time.Millisecond)
	}

	st := getWALStatus(t, ts.URL)
	if !st.Enabled || st.Dir != walDir || st.SyncPolicy != "always" {
		t.Fatalf("status identity = %+v", st)
	}
	if st.AppendedLSN != 4 || st.DigestedLSN != 4 || st.LagRecords != 0 {
		t.Fatalf("status watermarks = %+v", st)
	}
	if st.Segments < 1 || st.ActiveSegmentBytes <= 0 || st.TotalBytes < st.ActiveSegmentBytes {
		t.Fatalf("status segment shape = %+v", st)
	}
}

func TestWALStatusDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := getWALStatus(t, ts.URL)
	if st.Enabled || st.Dir != "" || st.AppendedLSN != 0 {
		t.Fatalf("status without WAL = %+v", st)
	}
}

// TestWALCrashRecovery is the core durability claim in-process: every
// acked batch survives a crash that skips the final checkpoint, across
// a mid-stream checkpoint and a mix of inserts and deletes.
func TestWALCrashRecovery(t *testing.T) {
	catDir, walDir := t.TempDir(), t.TempDir()
	s, ts := newCrashableServer(t, walConfig(catDir, walDir))

	mustCreate(t, ts.URL, "lat", FamilyDVO, 4096, 2)
	want := 0.0
	for i := 0; i < 10; i++ {
		mustInsertJSON(t, ts.URL, "lat", seqValues(64))
		want += 64
		if i == 4 {
			// A checkpoint mid-stream: earlier records land via the
			// catalog, later ones via replay.
			waitDigested(t, s)
			if err := s.CheckpointNow(); err != nil {
				t.Fatalf("CheckpointNow: %v", err)
			}
		}
	}
	body, _ := json.Marshal(wire.ValuesRequest{Values: seqValues(16)})
	do(t, "POST", ts.URL+"/v1/h/lat/delete", "application/json", body, http.StatusOK, nil)
	want -= 16
	crash(s)

	_, ts2 := newTestServer(t, walConfig(catDir, walDir))
	if got := getTotal(t, ts2.URL, "lat"); got != want {
		t.Fatalf("recovered total = %v, want %v (acked batches lost or double-applied)", got, want)
	}
	// The recovered server keeps ingesting durably.
	mustInsertJSON(t, ts2.URL, "lat", seqValues(8))
	deadline := time.Now().Add(10 * time.Second)
	for getTotal(t, ts2.URL, "lat") != want+8 {
		if time.Now().After(deadline) {
			t.Fatalf("post-recovery total = %v, want %v", getTotal(t, ts2.URL, "lat"), want+8)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWALRecoveryWithoutCatalog replays creates, drops and batches from
// the log alone: with no catalog directory the log is the only durable
// state.
func TestWALRecoveryWithoutCatalog(t *testing.T) {
	walDir := t.TempDir()
	cfg := Config{WAL: wal.Options{Dir: walDir, Sync: wal.SyncAlways}}
	s, ts := newCrashableServer(t, cfg)

	mustCreate(t, ts.URL, "keep", FamilyAC, 4096, 2)
	mustCreate(t, ts.URL, "tmp", FamilyDC, 1024, 1)
	mustInsertJSON(t, ts.URL, "keep", seqValues(200))
	do(t, "DELETE", ts.URL+"/v1/h/tmp", "", nil, http.StatusNoContent, nil)
	crash(s)

	_, ts2 := newTestServer(t, cfg)
	if got := getTotal(t, ts2.URL, "keep"); got != 200 {
		t.Fatalf("replayed total = %v, want 200", got)
	}
	var info wire.Info
	do(t, "GET", ts2.URL+"/v1/h/keep", "", nil, http.StatusOK, &info)
	if info.Family != FamilyAC || info.MemBytes != 4096 {
		t.Fatalf("replayed create lost its config: %+v", info)
	}
	do(t, "GET", ts2.URL+"/v1/h/tmp", "", nil, http.StatusNotFound, nil)
}

// TestWALDropNotResurrected: a histogram checkpointed into the catalog
// and then dropped must stay dropped after a crash — the OpDrop record
// replays and the catalog file is gone.
func TestWALDropNotResurrected(t *testing.T) {
	catDir, walDir := t.TempDir(), t.TempDir()
	s, ts := newCrashableServer(t, walConfig(catDir, walDir))

	mustCreate(t, ts.URL, "doomed", FamilyDADO, 1024, 1)
	mustInsertJSON(t, ts.URL, "doomed", seqValues(32))
	waitDigested(t, s)
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	do(t, "DELETE", ts.URL+"/v1/h/doomed", "", nil, http.StatusNoContent, nil)
	crash(s)

	_, ts2 := newTestServer(t, walConfig(catDir, walDir))
	do(t, "GET", ts2.URL+"/v1/h/doomed", "", nil, http.StatusNotFound, nil)
	if _, err := os.Stat(filepath.Join(catDir, "doomed"+CatalogExt)); !os.IsNotExist(err) {
		t.Fatalf("catalog file survived the drop (stat: %v)", err)
	}
}

// TestCheckpointReplayOverlapIdempotent is the checkpoint/ingest race
// regression. Checkpoints run concurrently with serial acked ingest, so
// catalog snapshots land at arbitrary fold positions; the crash then
// loses the WAL position file entirely, forcing replay from LSN 0 over
// histograms whose snapshots already contain a prefix of the log. The
// covered-LSN stamp inside each catalog entry must make that overlap
// replay idempotent — the recovered total is exact, not inflated.
func TestCheckpointReplayOverlapIdempotent(t *testing.T) {
	catDir, walDir := t.TempDir(), t.TempDir()
	s, ts := newCrashableServer(t, walConfig(catDir, walDir))

	mustCreate(t, ts.URL, "race", FamilyDC, 2048, 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := s.CheckpointNow(); err != nil {
					t.Errorf("CheckpointNow: %v", err)
					return
				}
			}
		}
	}()
	const batches, per = 50, 10
	for i := 0; i < batches; i++ {
		mustInsertJSON(t, ts.URL, "race", seqValues(per))
	}
	close(stop)
	wg.Wait()
	crash(s)

	// Simulate the worst crash point: catalog files durable, the WAL's
	// own position update lost. Replay must start from zero and still
	// not double-apply what the snapshots already hold.
	if err := os.Remove(filepath.Join(walDir, "wal.pos")); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, walConfig(catDir, walDir))
	if got := getTotal(t, ts2.URL, "race"); got != batches*per {
		t.Fatalf("recovered total = %v, want %v (overlap replay not idempotent)", got, batches*per)
	}
}

// TestWALTornTailRecovery appends garbage to the newest segment after a
// crash — a torn final record — and expects recovery to keep every
// acked batch, skip the tail, and keep serving.
func TestWALTornTailRecovery(t *testing.T) {
	catDir, walDir := t.TempDir(), t.TempDir()
	s, ts := newCrashableServer(t, walConfig(catDir, walDir))

	mustCreate(t, ts.URL, "lat", FamilyDADO, 2048, 2)
	for i := 0; i < 5; i++ {
		mustInsertJSON(t, ts.URL, "lat", seqValues(40))
	}
	crash(s)

	des, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, de := range des {
		if strings.HasSuffix(de.Name(), wal.SegmentExt) {
			newest = de.Name() // sorted: last .wal wins
		}
	}
	if newest == "" {
		t.Fatal("no segment files")
	}
	f, err := os.OpenFile(filepath.Join(walDir, newest), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn-by-a-crash-mid-append......")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, ts2 := newTestServer(t, walConfig(catDir, walDir))
	if got := getTotal(t, ts2.URL, "lat"); got != 200 {
		t.Fatalf("recovered total = %v, want 200 (torn tail must not eat acked records)", got)
	}
	mustInsertJSON(t, ts2.URL, "lat", seqValues(10))
}

// TestWALIngestFaults drives the live ingest path over injected disk
// failures: a full disk surfaces as 503 on insert (and the ack LSN is
// not burned into the registry), a failed create append rolls the
// registry entry back, and clearing the fault restores service with no
// acked data lost.
func TestWALIngestFaults(t *testing.T) {
	walDir := t.TempDir()
	inj := fsfault.NewInjector(nil)
	_, ts := newTestServer(t, Config{
		WAL: wal.Options{Dir: walDir, FS: inj, Sync: wal.SyncAlways},
	})

	mustCreate(t, ts.URL, "lat", FamilyDADO, 2048, 1)
	mustInsertJSON(t, ts.URL, "lat", seqValues(20))

	// Disk full: the append fails, the handler refuses the ack.
	inj.LimitWrites(4, nil)
	body, _ := json.Marshal(wire.ValuesRequest{Values: seqValues(20)})
	do(t, "POST", ts.URL+"/v1/h/lat/insert", "application/json", body, http.StatusServiceUnavailable, nil)

	// A create whose log append fails must not leave a half-registered
	// histogram behind.
	cbody, _ := json.Marshal(wire.CreateRequest{Name: "ghost", Family: FamilyDC})
	do(t, "POST", ts.URL+"/v1/h", "application/json", cbody, http.StatusInternalServerError, nil)
	do(t, "GET", ts.URL+"/v1/h/ghost", "", nil, http.StatusNotFound, nil)

	// Space returns: ingest resumes, only acked batches count.
	inj.Reset()
	mustInsertJSON(t, ts.URL, "lat", seqValues(20))
	deadline := time.Now().Add(10 * time.Second)
	for getTotal(t, ts.URL, "lat") != 40 {
		if time.Now().After(deadline) {
			t.Fatalf("total = %v, want 40", getTotal(t, ts.URL, "lat"))
		}
		time.Sleep(time.Millisecond)
	}
	st := getWALStatus(t, ts.URL)
	if st.AppendedLSN != 3 {
		t.Fatalf("AppendedLSN = %d, want 3 (failed appends must not count)", st.AppendedLSN)
	}
}

// shardSum is the exact point count of the named histogram: the sum of
// its shards' own totals, in shard order.
func shardSum(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	h, err := s.Registry().Histogram(name)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, st := range h.ShardTotals() {
		total += st
	}
	return total
}

// TestWALAckTotalIsShardSum pins the counts a WAL server reports
// without building a merged view: an ack's Total and the envelope's
// total header both equal the sum of the shards' own totals.
func TestWALAckTotalIsShardSum(t *testing.T) {
	s, ts := newTestServer(t, Config{SiteID: "s1", WAL: wal.Options{Dir: t.TempDir(), Sync: wal.SyncNone}})
	mustCreate(t, ts.URL, "lat", FamilyDADO, 1024, 4)
	rng := rand.New(rand.NewSource(1))
	batch := make([]float64, 256)
	for range 8 {
		for i := range batch {
			batch[i] = rng.Float64() * 5000
		}
		mustInsertBinary(t, ts.URL, "lat", batch)
	}
	waitDigested(t, s)

	// Freeze the digester so the next ack reports exactly the digested
	// state; the ack must not wait on the fold.
	s.digestMu.Lock()
	ack := mustInsertBinary(t, ts.URL, "lat", batch)
	want := shardSum(t, s, "lat")
	s.digestMu.Unlock()
	if want != 8*256 || ack.Total != want {
		t.Fatalf("ack Total = %v, shard sum = %v, want both %d", ack.Total, want, 8*256)
	}

	waitDigested(t, s)
	resp, err := http.Get(ts.URL + "/v1/h/lat/envelope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got, err := strconv.ParseFloat(resp.Header.Get(wire.HeaderTotal), 64)
	if err != nil {
		t.Fatalf("%s = %q: %v", wire.HeaderTotal, resp.Header.Get(wire.HeaderTotal), err)
	}
	if want := shardSum(t, s, "lat"); want != 9*256 || got != want {
		t.Fatalf("envelope %s = %v, shard sum = %v, want both %d", wire.HeaderTotal, got, want, 9*256)
	}
}

// TestIngestOverloadRejected stalls the digester and fills the digest
// queue: the next batch waits digestWait, is refused with 503 and
// Retry-After, is counted, and is not logged; once the digester runs
// again every acked batch folds in and ingest resumes.
func TestIngestOverloadRejected(t *testing.T) {
	defer func(n int) { digestChanCap = n }(digestChanCap)
	digestChanCap = 2
	s, ts := newTestServer(t, Config{WAL: wal.Options{Dir: t.TempDir(), Sync: wal.SyncNone}})
	mustCreate(t, ts.URL, "lat", FamilyDADO, 1024, 2)

	s.digestMu.Lock()
	stalled := true
	defer func() {
		if stalled {
			s.digestMu.Unlock()
		}
	}()
	// The digester takes the first batch off the queue and blocks on
	// digestMu with it; the next two fill the queue's two slots.
	for range 3 {
		mustInsertBinary(t, ts.URL, "lat", seqValues(10))
	}
	body, err := wire.EncodeBatch(seqValues(10))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/h/lat/insert", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.BatchContentType)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("insert into a full queue: status %d, Retry-After %q; want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if waited := time.Since(start); waited < digestWait {
		t.Fatalf("refused after %v, want the bounded wait of %v", waited, digestWait)
	}
	if got := s.metrics.ingestRejected.Value(); got != 1 {
		t.Fatalf("ingest rejections = %d, want 1", got)
	}
	// The create and the three acked batches; the refused one is not logged.
	if got := s.wal.LastLSN(); got != 4 {
		t.Fatalf("appended LSN = %d, want 4", got)
	}

	s.digestMu.Unlock()
	stalled = false
	waitDigested(t, s)
	if got := getTotal(t, ts.URL, "lat"); got != 30 {
		t.Fatalf("total after the stall = %v, want the 30 acked values", got)
	}
	mustInsertBinary(t, ts.URL, "lat", seqValues(10))
	waitDigested(t, s)
	if got := getTotal(t, ts.URL, "lat"); got != 40 {
		t.Fatalf("total after recovery = %v, want 40", got)
	}
}
