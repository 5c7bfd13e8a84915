package dynahist

import (
	"encoding/binary"
	"fmt"

	"dynahist/internal/approx"
	"dynahist/internal/binenc"
	"dynahist/internal/core"
	"dynahist/internal/histogram"
	"dynahist/internal/shard"
)

// The snapshot envelope is the package's one self-describing
// serialization: every Snapshot method wraps its family payload in it
// and the single Restore reads the tag to pick the decoder, so callers
// never record out-of-band which family a blob came from.
//
// Layout (integers little-endian):
//
//	u32  magic 0x56454844 ("DHEV")
//	u16  version (1)
//	u8   kind (the Kind constants; part of the format, never renumber)
//	…    family payload (the rest of the blob)
//
// Payloads: the maintained families carry their full-state snapshots
// from internal/core and internal/approx; the static kinds carry a
// MarshalBuckets bucket list; KindSharded carries
//
//	u8   shard policy
//	u32  merge budget
//	u32  shard count n
//	n ×  (u32 blob length, blob) — each itself a complete envelope
const (
	envMagic      = 0x56454844 // "DHEV"
	envVersion    = 1
	envHeaderSize = 7
)

// encodeEnvelope wraps a family payload in the kind-tagged envelope.
func encodeEnvelope(kind Kind, payload []byte) []byte {
	out := make([]byte, 0, envHeaderSize+len(payload))
	out = binary.LittleEndian.AppendUint32(out, envMagic)
	out = binary.LittleEndian.AppendUint16(out, envVersion)
	out = append(out, byte(kind))
	return append(out, payload...)
}

// decodeEnvelope splits an envelope into its kind tag and payload.
func decodeEnvelope(data []byte) (Kind, []byte, error) {
	if len(data) < envHeaderSize {
		return KindUnknown, nil, fmt.Errorf("%w: %d bytes, envelope header needs %d",
			ErrBadSnapshot, len(data), envHeaderSize)
	}
	if magic := binary.LittleEndian.Uint32(data); magic != envMagic {
		return KindUnknown, nil, fmt.Errorf("%w: bad magic %#x", ErrBadSnapshot, magic)
	}
	if version := binary.LittleEndian.Uint16(data[4:]); version != envVersion {
		return KindUnknown, nil, fmt.Errorf("%w: unsupported envelope version %d", ErrBadSnapshot, version)
	}
	return Kind(data[6]), data[envHeaderSize:], nil
}

// maxShardedNesting caps how deep sharded envelopes may nest inside
// each other. Real engines are one level (maintained members inside
// one Sharded); the cap only exists so a crafted blob of
// envelopes-all-the-way-down cannot recurse the decoder into a stack
// overflow.
const maxShardedNesting = 4

// Restore is the package's one restore door: it rebuilds any histogram
// from a blob produced by any Snapshot method in this package — the
// envelope's kind tag says which family the payload belongs to, so the
// caller never has to remember. The concrete type matches the kind
// (inspect it with KindOf or a type assertion); a restored maintained
// histogram continues exactly where the snapshot left off.
//
// Garbage of any sort — truncated input, foreign magic, an unknown or
// lying kind tag, corrupt payloads — is rejected with ErrBadSnapshot,
// never a panic.
func Restore(data []byte) (Histogram, error) {
	return restoreAtDepth(data, 0)
}

// restoreAtDepth is Restore with the sharded-nesting level threaded
// through.
func restoreAtDepth(data []byte, depth int) (Histogram, error) {
	kind, payload, err := decodeEnvelope(data)
	if err != nil {
		return nil, err
	}
	switch kind {
	case KindDADO, KindDVO:
		inner, err := core.RestoreDVO(payload)
		if err != nil {
			return nil, err
		}
		h := &Dynamic{inner: inner}
		if got := KindOf(h); got != kind {
			return nil, fmt.Errorf("%w: envelope tagged %v but payload deviation makes it %v",
				ErrBadSnapshot, kind, got)
		}
		return h, nil
	case KindDC:
		inner, err := core.RestoreDC(payload)
		if err != nil {
			return nil, err
		}
		return &DC{inner: inner}, nil
	case KindAC:
		inner, err := approx.Restore(payload)
		if err != nil {
			return nil, err
		}
		return &AC{inner: inner}, nil
	case KindSharded:
		if depth >= maxShardedNesting {
			return nil, fmt.Errorf("%w: sharded envelopes nested deeper than %d",
				ErrBadSnapshot, maxShardedNesting)
		}
		return restoreShardedPayload(payload, depth)
	case KindStatic, KindEquiWidth, KindEquiDepth, KindCompressed, KindVOptimal, KindSADO, KindSSBM:
		bs, err := histogram.UnmarshalBuckets(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		p, err := histogram.NewPiecewise(bs)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		return &Static{inner: p, kind: kind}, nil
	default:
		return nil, fmt.Errorf("%w: unknown envelope kind %d", ErrBadSnapshot, int(kind))
	}
}

// encodeShardedPayload frames the per-shard envelopes with the engine
// configuration.
func encodeShardedPayload(policy ShardPolicy, mergeBudget int, blobs [][]byte) []byte {
	size := 9
	for _, b := range blobs {
		size += 4 + len(b)
	}
	out := make([]byte, 0, size)
	out = append(out, byte(policy))
	out = binary.LittleEndian.AppendUint32(out, uint32(mergeBudget))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(blobs)))
	for _, b := range blobs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out
}

// restoreShardedPayload rebuilds a Sharded engine from its envelope
// payload: configuration plus one member envelope per shard, each
// restored through the same Restore door.
func restoreShardedPayload(payload []byte, depth int) (*Sharded, error) {
	r := binenc.Reader{Data: payload, Err: ErrBadSnapshot}
	policy, err := r.U8()
	if err != nil {
		return nil, err
	}
	budget, err := r.U32()
	if err != nil {
		return nil, err
	}
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	if n == 0 || uint64(n)*4 > uint64(len(payload)) {
		return nil, fmt.Errorf("%w: implausible shard count %d", ErrBadSnapshot, n)
	}
	members := make([]shard.Member, n)
	var memberKind Kind
	for i := range members {
		size, err := r.U32()
		if err != nil {
			return nil, err
		}
		blob, err := r.Bytes(int(size))
		if err != nil {
			return nil, err
		}
		h, err := restoreAtDepth(blob, depth+1)
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d: %v", ErrBadSnapshot, i, err)
		}
		if i == 0 {
			memberKind = KindOf(h)
		}
		members[i] = memberAdapter{h: h}
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, r.Remaining())
	}
	cfg := shard.Config{Policy: shard.Policy(policy), MergeBudget: int(budget)}
	e, err := shard.NewFromMembers(cfg, members)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return &Sharded{e: e, memberKind: memberKind}, nil
}
