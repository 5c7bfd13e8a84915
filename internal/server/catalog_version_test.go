package server

import (
	"encoding/binary"
	"errors"
	"testing"

	"dynahist/internal/core"
	"dynahist/internal/wire"
)

// TestCatalogOldVersionsRejected checks that only v5 decodes: the
// v2-v4 layouts of earlier releases are rejected with ErrCatalog, so
// startup skips such files like any corrupt one.
func TestCatalogOldVersionsRejected(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Create(wire.CreateRequest{Name: "old", Family: FamilyDADO, MemBytes: 1024, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	e, err := reg.get("old")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.h.InsertBatch(seqValues(10)); err != nil {
		t.Fatal(err)
	}
	v5, err := EncodeEntry(e, 77, 9001)
	if err != nil {
		t.Fatal(err)
	}
	// v4 is v5 without the trailing (here empty) journal field; v3 also
	// drops the site watermark and v2 the covered LSN, both of which sit
	// right after name, mem_bytes and seed.
	v4 := append([]byte(nil), v5[:len(v5)-4]...)
	cut := 4 + 2 + 2 + len("old") + 4 + 8
	v3 := append(append([]byte(nil), v4[:cut+8]...), v4[cut+16:]...)
	v2 := append(append([]byte(nil), v4[:cut]...), v4[cut+16:]...)

	for version, data := range map[uint16][]byte{2: v2, 3: v3, 4: v4} {
		binary.LittleEndian.PutUint16(data[4:], version)
		if _, err := DecodeEntry(data); !errors.Is(err, ErrCatalog) {
			t.Errorf("DecodeEntry(v%d) = %v, want ErrCatalog", version, err)
		}
	}
	if _, err := DecodeEntry(v5); err != nil {
		t.Fatalf("DecodeEntry(v5): %v", err)
	}
}

// TestDecodeEntryRejectsV1 checks that a v1 catalog file, which
// predates the envelope, is rejected with ErrCatalog: a family code,
// name and config, then one raw "DYNS" core blob per shard.
func TestDecodeEntryRejectsV1(t *testing.T) {
	raw, err := core.NewDADOMemory(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.Insert(42); err != nil {
		t.Fatal(err)
	}
	blob, err := raw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	v1 := binary.LittleEndian.AppendUint32(nil, catMagic)
	v1 = binary.LittleEndian.AppendUint16(v1, 1)
	v1 = append(v1, 1) // family code: DADO
	v1 = binary.LittleEndian.AppendUint16(v1, uint16(len("old")))
	v1 = append(v1, "old"...)
	v1 = binary.LittleEndian.AppendUint32(v1, 1024)
	v1 = binary.LittleEndian.AppendUint64(v1, 0)
	v1 = binary.LittleEndian.AppendUint32(v1, 1)
	v1 = binary.LittleEndian.AppendUint32(v1, uint32(len(blob)))
	v1 = append(v1, blob...)

	if _, err := DecodeEntry(v1); !errors.Is(err, ErrCatalog) {
		t.Fatalf("DecodeEntry(v1) = %v, want ErrCatalog", err)
	}
}
