package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dynahist/internal/dist"
	"dynahist/internal/histogram"
)

// modelCore is the surface the model-based test drives; DADO, DVO, DC
// and EDDado all have it.
type modelCore interface {
	Insert(v float64) error
	Delete(v float64) error
	Total() float64
	MaxBuckets() int
}

// snapshotCore is the Snapshot→Restore path, where a core has one.
type snapshotCore interface {
	Store() *histogram.Store
	Snapshot() ([]byte, error)
}

// storeOf returns the bucket store of a core under test.
func storeOf(h modelCore) *histogram.Store {
	if e, ok := h.(*EDDado); ok {
		return e.st
	}
	return h.(snapshotCore).Store()
}

// batchCore is the native batch write path, where a core has one.
type batchCore interface {
	InsertBatch(vs []float64) error
	DeleteBatch(vs []float64) error
}

const modelDomain = 500

// modelValue draws from a drifting workload: a few heavy values (DC's
// singular buckets), a cluster whose centre sweeps the domain (DADO's
// split-merge and DC's repartitions), and a uniform background.
func modelValue(rng *rand.Rand, step int) int {
	switch r := rng.Float64(); {
	case r < 0.25:
		return []int{7, 123, 250, modelDomain}[rng.Intn(4)]
	case r < 0.7:
		v := (step/4)%modelDomain + rng.Intn(41) - 20
		return min(max(v, 0), modelDomain)
	default:
		return rng.Intn(modelDomain + 1)
	}
}

// presentValue returns a value the tracker currently holds; the
// tracker must not be empty.
func presentValue(rng *rand.Rand, tr *dist.Tracker) int {
	values, _ := tr.NonZero()
	return values[rng.Intn(len(values))]
}

// TestModelInvariants runs seeded random sequences of inserts, deletes
// of present values, batch inserts and deletes, and Snapshot→Restore
// (where the core has it) against each maintained core, with an exact
// dist.Tracker as the model. After every operation the store must
// validate, Total must equal the model's count exactly, the bucket
// mass must match it, and the bucket count must stay within the
// budget.
func TestModelInvariants(t *testing.T) {
	restoreDVO := func(b []byte) (modelCore, error) { return RestoreDVO(b) }
	cases := []struct {
		name    string
		new     func() (modelCore, error)
		restore func([]byte) (modelCore, error)
	}{
		{"DADO", func() (modelCore, error) { return NewDADO(16) }, restoreDVO},
		{"DVO", func() (modelCore, error) { return NewDVO(16) }, restoreDVO},
		{"DADO-k4", func() (modelCore, error) { return NewDynamic(AbsDeviation, 12, 4) }, restoreDVO},
		{"DC", func() (modelCore, error) { return NewDC(16) }, func(b []byte) (modelCore, error) { return RestoreDC(b) }},
		// Four buckets leave EDDado's counters fractional often enough
		// that some deletes find no bucket holding a whole point.
		{"EDDado", func() (modelCore, error) { return NewEDDado(AbsDeviation, 4) }, nil},
	}
	steps := 3000
	if testing.Short() {
		steps = 600
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				h, err := tc.new()
				if err != nil {
					t.Fatal(err)
				}
				runModel(t, h, tc.restore, seed, steps)
			})
		}
	}
}

func runModel(t *testing.T, h modelCore, restore func([]byte) (modelCore, error), seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := dist.New(modelDomain)
	for step := range steps {
		var op string
		switch r := rng.Intn(100); {
		case r < 50 || tr.Total() == 0:
			op = "insert"
			v := modelValue(rng, step)
			if err := h.Insert(float64(v)); err != nil {
				t.Fatalf("step %d: Insert(%d): %v", step, v, err)
			}
			mustTrack(t, tr.Insert(v))
		case r < 75:
			op = "delete"
			v := presentValue(rng, tr)
			if err := h.Delete(float64(v)); err != nil {
				t.Fatalf("step %d: Delete(%d) of a present value: %v", step, v, err)
			}
			mustTrack(t, tr.Delete(v))
		case r < 85:
			op = "insert-batch"
			vs := make([]float64, 1+rng.Intn(64))
			for i := range vs {
				v := modelValue(rng, step)
				vs[i] = float64(v)
				mustTrack(t, tr.Insert(v))
			}
			if b, ok := h.(batchCore); ok {
				if err := b.InsertBatch(vs); err != nil {
					t.Fatalf("step %d: InsertBatch: %v", step, err)
				}
			} else {
				for _, v := range vs {
					if err := h.Insert(v); err != nil {
						t.Fatalf("step %d: Insert(%v): %v", step, v, err)
					}
				}
			}
		case r < 95:
			op = "delete-batch"
			vs := make([]float64, 0, 32)
			for n := 1 + rng.Intn(32); len(vs) < n && tr.Total() > 0; {
				v := presentValue(rng, tr)
				vs = append(vs, float64(v))
				mustTrack(t, tr.Delete(v))
			}
			if b, ok := h.(batchCore); ok {
				if err := b.DeleteBatch(vs); err != nil {
					t.Fatalf("step %d: DeleteBatch: %v", step, err)
				}
			} else {
				for _, v := range vs {
					if err := h.Delete(v); err != nil {
						t.Fatalf("step %d: Delete(%v) of a present value: %v", step, v, err)
					}
				}
			}
		default:
			if restore == nil {
				op = "check"
				break
			}
			op = "snapshot-restore"
			blob, err := h.(snapshotCore).Snapshot()
			if err != nil {
				t.Fatalf("step %d: Snapshot: %v", step, err)
			}
			r, err := restore(blob)
			if err != nil {
				t.Fatalf("step %d: Restore: %v", step, err)
			}
			if !reflect.DeepEqual(storeOf(r).Buckets(), storeOf(h).Buckets()) {
				t.Fatalf("step %d: restored buckets differ from the snapshotted ones", step)
			}
			h = r
		}
		checkModel(t, h, tr, step, op)
	}
}

func mustTrack(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("model: %v", err)
	}
}

func checkModel(t *testing.T, h modelCore, tr *dist.Tracker, step int, op string) {
	t.Helper()
	st := storeOf(h)
	if err := st.Validate(); err != nil {
		t.Fatalf("step %d (%s): Store().Validate: %v", step, op, err)
	}
	want := float64(tr.Total())
	if h.Total() != want {
		t.Fatalf("step %d (%s): Total() = %v, model holds %v", step, op, h.Total(), want)
	}
	if n := st.Len(); n > h.MaxBuckets() {
		t.Fatalf("step %d (%s): %d buckets over the budget of %d", step, op, n, h.MaxBuckets())
	}
	mass := 0.0
	for i := range st.Len() {
		mass += st.Count(i)
	}
	if math.Abs(mass-want) > 1e-6*(1+want) {
		t.Fatalf("step %d (%s): bucket mass %v, model holds %v", step, op, mass, want)
	}
}
