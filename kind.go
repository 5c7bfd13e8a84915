package dynahist

import (
	"fmt"
	"strings"
)

// Kind names every histogram this package can construct or restore —
// the four maintained families of the paper (DADO, DVO, DC, AC), the
// sharded concurrent engine over them, and the static constructions.
// A Kind is the tag of the self-describing snapshot envelope, so its
// numeric values are part of the serialization format and must never
// be renumbered.
type Kind uint8

const (
	// KindUnknown is the zero Kind; no histogram has it.
	KindUnknown Kind = 0

	// KindDADO is the Dynamic Average-Deviation Optimal histogram —
	// the paper's best performer and the recommended default.
	KindDADO Kind = 1
	// KindDVO is the Dynamic V-Optimal histogram, the variance-driven
	// variant of the same split-merge machinery.
	KindDVO Kind = 2
	// KindDC is the Dynamic Compressed histogram with its chi-square
	// repartitioning trigger.
	KindDC Kind = 3
	// KindAC is the Approximate Compressed histogram of Gibbons,
	// Matias and Poosala, backed by a reservoir sample.
	KindAC Kind = 4
	// KindSharded is the sharded concurrent engine: P shared-nothing
	// member histograms merged losslessly on read. It cannot be built
	// with New (use NewSharded, which needs a member factory), but its
	// snapshots travel through the same envelope and Restore door.
	KindSharded Kind = 5

	// KindStatic is a piecewise histogram with no recorded
	// construction — one wrapped from an explicit bucket list by
	// NewStaticFromBuckets, or the result of Superpose/Reduce.
	KindStatic Kind = 8
	// KindEquiWidth is the static equal-width-bucket construction.
	KindEquiWidth Kind = 9
	// KindEquiDepth is the static equal-count-bucket construction.
	KindEquiDepth Kind = 10
	// KindCompressed is the static compressed (SC) construction.
	KindCompressed Kind = 11
	// KindVOptimal is the static V-optimal (SVO) construction by exact
	// dynamic programming.
	KindVOptimal Kind = 12
	// KindSADO is the static average-deviation-optimal construction
	// the paper introduces.
	KindSADO Kind = 13
	// KindSSBM is Successive Similar Bucket Merge (paper §5).
	KindSSBM Kind = 14
)

// kindNames is the canonical Kind → string mapping; the maintained
// families use the same short names the serving layer's wire API has
// always used.
var kindNames = map[Kind]string{
	KindDADO:       "dado",
	KindDVO:        "dvo",
	KindDC:         "dc",
	KindAC:         "ac",
	KindSharded:    "sharded",
	KindStatic:     "static",
	KindEquiWidth:  "equi-width",
	KindEquiDepth:  "equi-depth",
	KindCompressed: "compressed",
	KindVOptimal:   "v-optimal",
	KindSADO:       "sado",
	KindSSBM:       "ssbm",
}

// String returns the kind's canonical lower-case name, or "unknown".
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// Valid reports whether k names an actual kind.
func (k Kind) Valid() bool {
	_, ok := kindNames[k]
	return ok
}

// Maintained reports whether k is one of the incrementally maintained
// families (DADO, DVO, DC, AC) — the kinds the serving layer accepts.
func (k Kind) Maintained() bool {
	switch k {
	case KindDADO, KindDVO, KindDC, KindAC:
		return true
	}
	return false
}

// ParseKind returns the Kind with the given canonical name (as printed
// by Kind.String, case-insensitive), or ErrBadKind.
func ParseKind(name string) (Kind, error) {
	want := strings.ToLower(name)
	for k, s := range kindNames {
		if s == want {
			return k, nil
		}
	}
	return KindUnknown, fmt.Errorf("%w: %q", ErrBadKind, name)
}

// KindOf reports the kind of a histogram built or restored by this
// package: the deviation measure distinguishes KindDADO from KindDVO,
// a Static remembers the construction that built it, and a Concurrent
// reports its wrapped histogram's kind. Histograms from outside the
// package report KindUnknown.
func KindOf(h Histogram) Kind {
	switch t := h.(type) {
	case *Dynamic:
		if t.Kind() == Variance {
			return KindDVO
		}
		return KindDADO
	case *DC:
		return KindDC
	case *AC:
		return KindAC
	case *Sharded:
		return KindSharded
	case *Static:
		return t.kind
	case *Concurrent:
		return KindOf(t.h)
	}
	return KindUnknown
}
