package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"dynahist"
	"dynahist/internal/binenc"
)

// The catalog is the serving layer's recovery substrate: one file per
// registered histogram, holding the entry's identity and configuration
// plus one self-describing snapshot envelope for the whole sharded
// engine (the root (*Sharded).Snapshot output). The envelope's kind
// tag says which family the shards belong to, so the catalog itself
// carries no family code beside the blob — dynahist.Restore reads the
// tag. Files are written atomically (temp + rename) so a crash
// mid-checkpoint leaves the previous complete catalog intact, and the
// whole registry is rebuilt from the directory at startup.
//
// File layout (all integers little-endian):
//
//	u32  magic 0x48434154 ("HCAT")
//	u16  version (5)
//	u16  name length, then name bytes
//	u32  per-shard mem_bytes
//	u64  seed
//	u64  covered WAL LSN
//	u64  site watermark
//	u32  envelope length, then the envelope bytes
//	u32  feedback journal length, then the journal bytes (zero length
//	     when the entry holds no feedback)
//
// The covered WAL LSN is the durability linchpin: it says exactly
// which write-ahead-log records this snapshot already contains, and it
// travels in the same atomically-renamed file as the snapshot itself.
// Recovery filters replay per entry against it, so a crash landing
// between the catalog write and the WAL's own position update can
// never double-apply the overlap.
//
// The site watermark is the multi-node analogue: the monotonic
// per-site ingest counter the snapshot covers, in the site's logical
// sequence rather than the local WAL's. Peers compare it during
// anti-entropy, and startup re-seeds the server's advertised watermark
// from it so a restarted node never announces older data as newer.
// The feedback journal is the self-tuning subsystem's persistence: the
// entry's journaled query-feedback records (internal/tuner's "DHTJ"
// snapshot format), so tuning survives checkpoint/restore. It is
// opaque at this layer — decoded lazily by the server when tuning is
// enabled, preserved verbatim otherwise.
//
// Only the current version decodes. A file of any other version is
// rejected with ErrCatalog, and startup skips it like any corrupt file.
const (
	catMagic   = 0x48434154 // "HCAT"
	catVersion = 5

	// CatalogExt is the catalog file suffix; the stem is the histogram
	// name.
	CatalogExt = ".hist"
)

// ErrCatalog reports a malformed catalog file.
var ErrCatalog = errors.New("server: malformed catalog entry")

// EncodeEntry serializes one registry entry: its configuration, the
// WAL position the snapshot covers (0 when the server runs without a
// WAL), the site watermark it covers (0 when the server has no peer
// role), and the engine's self-describing snapshot envelope.
func EncodeEntry(e *entry, coveredLSN, siteWM uint64) ([]byte, error) {
	blob, err := e.h.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("server: snapshot %q: %w", e.name, err)
	}
	journal := e.journalSnapshot()
	out := make([]byte, 0, 48+len(e.name)+len(blob)+len(journal))
	out = binary.LittleEndian.AppendUint32(out, catMagic)
	out = binary.LittleEndian.AppendUint16(out, catVersion)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(e.name)))
	out = append(out, e.name...)
	out = binary.LittleEndian.AppendUint32(out, uint32(e.memBytes))
	out = binary.LittleEndian.AppendUint64(out, uint64(e.seed))
	out = binary.LittleEndian.AppendUint64(out, coveredLSN)
	out = binary.LittleEndian.AppendUint64(out, siteWM)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(blob)))
	out = append(out, blob...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(journal)))
	out = append(out, journal...)
	return out, nil
}

// DecodeEntry rebuilds a registry entry from an EncodeEntry blob,
// restoring the whole engine through the dynahist.Restore door.
// Garbage of any kind — bad magic, truncated input, implausible sizes,
// corrupt envelopes, an envelope of a non-sharded or non-maintained
// kind — is rejected with ErrCatalog, never a panic.
func DecodeEntry(data []byte) (*entry, error) {
	r := binenc.Reader{Data: data, Err: ErrCatalog}
	magic, err := r.U32()
	if err != nil {
		return nil, err
	}
	if magic != catMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCatalog, magic)
	}
	version, err := r.U16()
	if err != nil {
		return nil, err
	}
	if version != catVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCatalog, version)
	}
	nameLen, err := r.U16()
	if err != nil {
		return nil, err
	}
	nameBytes, err := r.Bytes(int(nameLen))
	if err != nil {
		return nil, err
	}
	name := string(nameBytes)
	if !ValidName(name) {
		return nil, fmt.Errorf("%w: invalid name %q", ErrCatalog, name)
	}
	memBytes, err := r.U32()
	if err != nil {
		return nil, err
	}
	if memBytes == 0 || memBytes > math.MaxInt32 {
		return nil, fmt.Errorf("%w: implausible mem_bytes %d", ErrCatalog, memBytes)
	}
	seed, err := r.U64()
	if err != nil {
		return nil, err
	}
	walLSN, err := r.U64()
	if err != nil {
		return nil, err
	}
	siteWM, err := r.U64()
	if err != nil {
		return nil, err
	}
	blobLen, err := r.U32()
	if err != nil {
		return nil, err
	}
	blob, err := r.Bytes(int(blobLen))
	if err != nil {
		return nil, err
	}
	jLen, err := r.U32()
	if err != nil {
		return nil, err
	}
	var journal []byte
	if jLen > 0 {
		j, err := r.Bytes(int(jLen))
		if err != nil {
			return nil, err
		}
		journal = append([]byte(nil), j...)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCatalog, r.Remaining())
	}
	restored, err := dynahist.Restore(blob)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCatalog, err)
	}
	h, ok := restored.(*dynahist.Sharded)
	if !ok {
		return nil, fmt.Errorf("%w: envelope holds a %v, not a sharded engine",
			ErrCatalog, dynahist.KindOf(restored))
	}
	if !h.MemberKind().Maintained() {
		return nil, fmt.Errorf("%w: shards hold %v members, not a maintained family",
			ErrCatalog, h.MemberKind())
	}
	e := &entry{
		name:     name,
		memBytes: int(memBytes),
		shards:   h.NumShards(),
		seed:     int64(seed),
		walLSN:   walLSN,
		journal:  journal,
		h:        h,
	}
	e.siteWM.Store(siteWM)
	return e, nil
}

// catalogPath returns the catalog file for a histogram name.
func catalogPath(dir, name string) string {
	return filepath.Join(dir, name+CatalogExt)
}

// writeCatalogFile atomically replaces name's catalog file with data
// (temp + fsync + rename). Split from the encode step so the WAL-aware
// checkpoint can encode every snapshot under the digest lock and do
// the file I/O after releasing it.
func writeCatalogFile(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, catalogPath(dir, name)); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// loadCatalog restores every *.hist entry under dir into reg. It is
// fail-soft: a corrupt or stale file is skipped and reported in the
// returned error list, so one bad entry cannot keep the rest of the
// registry from recovering.
func loadCatalog(dir string, reg *Registry) []error {
	des, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return []error{err}
	}
	var errs []error
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		// A crash between CreateTemp and the rename orphans a temp
		// file; sweep them on startup so periodic crashes cannot
		// accumulate garbage in the catalog.
		if strings.Contains(de.Name(), ".tmp") {
			if err := os.Remove(filepath.Join(dir, de.Name())); err != nil {
				errs = append(errs, fmt.Errorf("removing stale temp %s: %w", de.Name(), err))
			}
			continue
		}
		if !strings.HasSuffix(de.Name(), CatalogExt) {
			continue
		}
		path := filepath.Join(dir, de.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", path, err))
			continue
		}
		e, err := DecodeEntry(data)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", path, err))
			continue
		}
		if want := e.name + CatalogExt; de.Name() != want {
			errs = append(errs, fmt.Errorf("%s: holds entry %q (want file %s)", path, e.name, want))
			continue
		}
		if err := reg.attach(e); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", path, err))
		}
	}
	return errs
}
