package server

// Durable ingest: the server's write-ahead-log integration. With
// Config.WAL.Dir set, every mutating request is appended to a
// segmented WAL (internal/wal) and acknowledged the moment the append
// is durable per the sync policy; a single background digester then
// folds the logged batches into the registry's Sharded engines. The
// hot ingest path is therefore a pure append — completely decoupled
// from DADO/DVO split-merge settling — and a crash loses nothing that
// was acked: recovery restores the catalog, then replays the WAL tail
// past the position the last checkpoint recorded.

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"time"

	"dynahist/internal/wal"
	"dynahist/internal/wire"
)

// digestChanCap bounds the append-to-digest queue. Ingest reserves a
// slot before it appends, so a full queue back-pressures acks rather
// than growing without bound. A variable only so tests can shrink it.
var digestChanCap = 4096

// digestWait bounds how long an ingest request waits for a digest
// queue slot. A queue that stays full this long means the digester has
// fallen far behind, and the server sheds the batch with a 503 rather
// than holding the connection open without limit.
const digestWait = time.Second

// errDigestFull refuses a batch that found no digest queue slot within
// digestWait. The batch was not logged.
var errDigestFull = errors.New("server: ingest overloaded: digest queue full")

// startWAL opens the log, replays the undigested tail into the
// freshly restored registry, and starts the digester. Called from New
// after the catalog restore.
func (s *Server) startWAL() error {
	opts := s.cfg.WAL
	if opts.Logger == nil {
		opts.Logger = s.log
	}
	w, err := wal.Open(opts)
	if err != nil {
		return err
	}
	s.wal = w
	from := w.CheckpointLSN()
	touched := make(map[*entry]bool)
	stats, err := w.Replay(from, func(rec wal.Record) error {
		if e := s.applyRecord(rec); e != nil {
			touched[e] = true
		}
		return nil
	})
	if err != nil {
		// applyRecord never errors; keep the guard honest anyway.
		s.log.Printf("wal: replay: %v", err)
	}
	w.MarkDigested(w.LastLSN())
	// Replayed records postdate each entry's catalog snapshot, so lift
	// the touched entries' covered watermarks to the replayed position
	// (bump, not store: a catalog restored after a prior adoption may
	// already claim more than the local log's sequence).
	for e := range touched {
		e.bumpSiteWM(s.watermark())
	}
	if stats.Records > 0 || stats.CorruptSegments > 0 {
		s.log.Printf("wal: replayed %d record(s) after LSN %d (%d corrupt segment tail(s) skipped)",
			stats.Records, from, stats.CorruptSegments)
	}
	s.digestCh = make(chan wal.Record, digestChanCap)
	s.digestSlots = make(chan struct{}, digestChanCap)
	s.digestDone = make(chan struct{})
	go s.digestLoop()
	return nil
}

// digestLoop is the single background digester: it folds logged
// records into the histograms in LSN order and advances the digested
// position. digestMu is held across each fold+advance pair, so a
// checkpoint that grabs the mutex sees a frozen, consistent fold state
// and the exact WAL position its snapshots cover.
func (s *Server) digestLoop() {
	defer close(s.digestDone)
	for rec := range s.digestCh {
		<-s.digestSlots
		s.digestMu.Lock()
		e := s.applyRecord(rec)
		s.wal.MarkDigested(rec.LSN)
		if e != nil {
			// Stamp after the digested position advances, so the entry's
			// covered watermark accounts for the record just folded in.
			e.bumpSiteWM(s.watermark())
			e.bumpQueryEpoch()
		}
		s.digestMu.Unlock()
	}
}

// applyRecord folds one WAL record into the registry, returning the
// entry the record touched (nil for drops, unknown names and garbage)
// so the caller can stamp its covered watermark once the digested
// position reflects the record. It is fail-soft end to end — a record
// for a dropped histogram, a duplicate create, a batch the engine
// rejects are all logged and skipped — because replay must always get
// through the log. Serialised by the caller (the digester loop or
// startup replay), never concurrent with itself.
func (s *Server) applyRecord(rec wal.Record) *entry {
	switch rec.Op {
	case wal.OpCreate:
		var req wire.CreateRequest
		if err := json.Unmarshal(rec.Payload, &req); err != nil {
			s.log.Printf("wal: LSN %d: bad create payload: %v", rec.LSN, err)
			return nil
		}
		if _, err := s.reg.Create(req); err != nil && !errors.Is(err, ErrExists) {
			s.log.Printf("wal: LSN %d: create %q: %v", rec.LSN, req.Name, err)
		}
		if e, err := s.reg.get(req.Name); err == nil {
			return e
		}
	case wal.OpDrop:
		if err := s.reg.Delete(rec.Name); err != nil && !errors.Is(err, ErrNotFound) {
			s.log.Printf("wal: LSN %d: drop %q: %v", rec.LSN, rec.Name, err)
		}
		// Without this, a catalog file checkpointed before the drop
		// would resurrect the histogram on the restart after next.
		if s.cfg.CatalogDir != "" {
			s.catMu.Lock()
			err := os.Remove(catalogPath(s.cfg.CatalogDir, rec.Name))
			s.catMu.Unlock()
			if err != nil && !os.IsNotExist(err) {
				s.log.Printf("wal: LSN %d: removing catalog file for %q: %v", rec.LSN, rec.Name, err)
			}
		}
	case wal.OpInsert, wal.OpDelete:
		e, err := s.reg.get(rec.Name)
		if err != nil {
			s.log.Printf("wal: LSN %d: %v", rec.LSN, err)
			return nil
		}
		if rec.LSN <= e.walLSN {
			// The entry's catalog snapshot already contains this record —
			// the crash landed between the catalog write and the WAL's
			// position update. Replaying it would double-count. The entry
			// still covers the record, so it is stamped all the same.
			return e
		}
		h := e.h
		vs, err := wire.DecodeBatchInto(s.digestVals[:0], rec.Payload)
		if err != nil {
			s.log.Printf("wal: LSN %d: bad batch for %q: %v", rec.LSN, rec.Name, err)
			return nil
		}
		if cap(vs) > cap(s.digestVals) {
			s.digestVals = vs[:0]
		}
		if rec.Op == wal.OpInsert {
			err = h.InsertBatch(vs)
		} else {
			err = h.DeleteBatch(vs)
		}
		if err != nil {
			s.log.Printf("wal: LSN %d: applying batch to %q: %v", rec.LSN, rec.Name, err)
		}
		return e
	default:
		s.log.Printf("wal: LSN %d: unknown op %d skipped", rec.LSN, rec.Op)
	}
	return nil
}

// appendAndEnqueue logs one mutating operation and hands it to the
// digester. It returns the acked LSN. The returned error is nil
// exactly when the record is durable per the sync policy — the
// handler's signal that it may acknowledge. A digest queue slot is
// reserved before the append, so a batch refused with errDigestFull
// is never logged and the WAL cannot run ahead of what memory will
// fold in.
func (s *Server) appendAndEnqueue(op byte, name string, body []byte) (uint64, error) {
	if !s.reserveDigestSlot() {
		return 0, errDigestFull
	}
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	if s.walStopped {
		<-s.digestSlots
		return 0, errors.New("server: shutting down")
	}
	lsn, err := s.wal.Append(op, name, body)
	if err != nil {
		<-s.digestSlots
		return 0, err
	}
	// The digester owns its copy: body aliases pooled request scratch
	// that is recycled the moment the handler returns.
	owned := make([]byte, len(body))
	copy(owned, body)
	// Never blocks: the reserved slot is this record's place in the
	// queue, and the digester frees one slot per record it takes.
	s.digestCh <- wal.Record{LSN: lsn, Op: op, Name: name, Payload: owned}
	return lsn, nil
}

// reserveDigestSlot takes one digest queue slot, waiting at most
// digestWait for the digester to free one.
func (s *Server) reserveDigestSlot() bool {
	select {
	case s.digestSlots <- struct{}{}:
		return true
	default:
	}
	t := time.NewTimer(digestWait)
	defer t.Stop()
	select {
	case s.digestSlots <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

// appendControl logs a create/drop record (already applied to the
// in-memory registry by the handler, so it is not enqueued for
// digestion — it only matters for replay).
func (s *Server) appendControl(op byte, name string, body []byte) (uint64, error) {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	if s.walStopped {
		return 0, errors.New("server: shutting down")
	}
	return s.wal.Append(op, name, body)
}

// stopWAL drains the digester (so a final checkpoint can cover every
// acked record) and is called from Close before the final checkpoint.
func (s *Server) stopWAL() {
	s.walMu.Lock()
	if s.walStopped {
		s.walMu.Unlock()
		return
	}
	s.walStopped = true
	close(s.digestCh)
	s.walMu.Unlock()
	<-s.digestDone
}

// handleWALStatus serves GET /v1/wal/status: segment shape, the three
// LSN watermarks and the append→digest lag.
func (s *Server) handleWALStatus(w http.ResponseWriter, r *http.Request) {
	resp := wire.WALStatusResponse{Enabled: s.wal != nil}
	if s.wal != nil {
		st := s.wal.Status()
		resp.Dir = st.Dir
		resp.SyncPolicy = st.SyncPolicy
		resp.AppendedLSN = st.AppendedLSN
		resp.DigestedLSN = st.DigestedLSN
		resp.CheckpointLSN = st.CheckpointLSN
		resp.LagRecords = st.AppendedLSN - st.DigestedLSN
		resp.DigestLag = resp.LagRecords
		resp.Segments = st.Segments
		resp.ActiveSegmentBytes = st.ActiveSegmentBytes
		resp.TotalBytes = st.TotalBytes
	}
	writeJSON(w, http.StatusOK, resp)
}
