package storage

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

type fakeState struct {
	Ballot  int
	Value   string
	Decided bool
}

func testStore(t *testing.T, s Store) {
	t.Helper()

	// Absent key.
	var st fakeState
	ok, err := s.Get("state", &st)
	if err != nil {
		t.Fatalf("Get absent: %v", err)
	}
	if ok {
		t.Fatal("Get reported presence for absent key")
	}

	// Round trip.
	want := fakeState{Ballot: 42, Value: "v7", Decided: true}
	if err := s.Put("state", want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	ok, err = s.Get("state", &st)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if st != want {
		t.Fatalf("round trip mismatch: got %+v want %+v", st, want)
	}

	// Overwrite.
	want.Ballot = 43
	if err := s.Put("state", want); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	if _, err := s.Get("state", &st); err != nil {
		t.Fatalf("Get after overwrite: %v", err)
	}
	if st.Ballot != 43 {
		t.Fatalf("overwrite not visible: %+v", st)
	}

	// Keys.
	if err := s.Put("aux", 7); err != nil {
		t.Fatalf("Put aux: %v", err)
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(keys) != 2 || keys[0] != "aux" || keys[1] != "state" {
		t.Fatalf("Keys = %v, want [aux state]", keys)
	}

	// Delete.
	if err := s.Delete("aux"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Delete("aux"); err != nil {
		t.Fatalf("Delete absent should be nil: %v", err)
	}
	ok, err = s.Get("aux", new(int))
	if err != nil {
		t.Fatalf("Get deleted: %v", err)
	}
	if ok {
		t.Fatal("deleted key still present")
	}
}

func TestMemStore(t *testing.T) { testStore(t, NewMemStore()) }
func TestFileStore(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStore(t, s)
}

// TestMemStoreDeepCopies checks the crash-semantics property: mutating a
// value after Put must not change what a later Get observes.
func TestMemStoreDeepCopies(t *testing.T) {
	s := NewMemStore()
	v := []int{1, 2, 3}
	if err := s.Put("slice", v); err != nil {
		t.Fatal(err)
	}
	v[0] = 99
	var got []int
	if _, err := s.Get("slice", &got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("Put aliased caller memory: got %v", got)
	}
}

func TestFileStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("mbal", 17); err != nil {
		t.Fatal(err)
	}
	// "Restart": a brand-new handle over the same directory.
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	ok, err := s2.Get("mbal", &got)
	if err != nil || !ok || got != 17 {
		t.Fatalf("reopen Get = (%d, %v, %v), want (17, true, nil)", got, ok, err)
	}
}

func TestFileStoreKeyEscaping(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a/b", 1); err != nil {
		t.Fatalf("Put with separator: %v", err)
	}
	var got int
	ok, err := s.Get("a/b", &got)
	if err != nil || !ok || got != 1 {
		t.Fatalf("Get escaped key = (%d, %v, %v)", got, ok, err)
	}
}

// Property: any string value round-trips through either store.
func TestQuickRoundTrip(t *testing.T) {
	mem := NewMemStore()
	f := func(key, value string) bool {
		if key == "" {
			key = "k"
		}
		if err := mem.Put(key, value); err != nil {
			return false
		}
		var got string
		ok, err := mem.Get(key, &got)
		return ok && err == nil && got == value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMemStorePlainFastPath pins the behaviour of the plain-data
// representation the simulator's persist hot path rides on: struct values
// without mutable indirection skip the gob round-trip but must keep the
// exact same isolation and typing semantics as the encoded path.
func TestMemStorePlainFastPath(t *testing.T) {
	type durable struct {
		MBal    int
		Val     string
		Decided bool
	}
	s := NewMemStore()
	v := durable{MBal: 3, Val: "x", Decided: true}
	if err := s.Put("state", v); err != nil {
		t.Fatal(err)
	}
	v.MBal = 99 // mutating the caller's copy must not reach the store
	var got durable
	ok, err := s.Get("state", &got)
	if err != nil || !ok {
		t.Fatalf("Get = (%v, %v)", ok, err)
	}
	if got != (durable{MBal: 3, Val: "x", Decided: true}) {
		t.Fatalf("Get returned %+v", got)
	}

	// Type mismatch errors like the gob path would.
	var wrong int
	if _, err := s.Get("state", &wrong); err == nil {
		t.Fatal("Get into mismatched type should error")
	}

	// A key can move between representations; the old value must not
	// shadow the new one, in either direction.
	if err := s.Put("state", []int{1}); err != nil {
		t.Fatal(err)
	}
	var sl []int
	if ok, err := s.Get("state", &sl); err != nil || !ok || len(sl) != 1 {
		t.Fatalf("after plain→gob rewrite: Get = (%v, %v, %v)", sl, ok, err)
	}
	if err := s.Put("state", durable{MBal: 7}); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Get("state", &got); err != nil || !ok || got.MBal != 7 {
		t.Fatalf("after gob→plain rewrite: Get = (%+v, %v, %v)", got, ok, err)
	}

	// Keys sees both representations exactly once.
	if err := s.Put("enc", map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "enc" || keys[1] != "state" {
		t.Fatalf("Keys = %v", keys)
	}
	if err := s.Delete("state"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Get("state", &got); ok {
		t.Fatal("deleted key still present")
	}
}

// TestMemStorePutIsCheap pins the allocation budget of the persist hot
// path: a steady-state Put of a plain-data struct must cost at most the
// caller's interface boxing plus the map write — no encoder machinery.
func TestMemStorePutIsCheap(t *testing.T) {
	type durable struct {
		MBal    int
		Val     string
		Decided bool
	}
	s := NewMemStore()
	v := durable{MBal: 1, Val: "v"}
	if err := s.Put("state", v); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		v.MBal++
		if err := s.Put("state", v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 { // the box Put's any parameter forces
		t.Fatalf("plain-data Put allocated %.1f allocs/op, want ≤ 1", allocs)
	}
}

// TestMemStoreUnexportedFieldsMatchGobSemantics pins the substrate-parity
// rule: a struct with unexported fields must take the gob fallback, so the
// simulator's MemStore restores exactly what the live FileStore would —
// exported fields only.
func TestMemStoreUnexportedFieldsMatchGobSemantics(t *testing.T) {
	type mixed struct {
		Exported int
		hidden   int
	}
	s := NewMemStore()
	if err := s.Put("k", mixed{Exported: 5, hidden: 9}); err != nil {
		t.Fatal(err)
	}
	var got mixed
	ok, err := s.Get("k", &got)
	if err != nil || !ok {
		t.Fatalf("Get = (%v, %v)", ok, err)
	}
	if got.Exported != 5 {
		t.Fatalf("exported field lost: %+v", got)
	}
	if got.hidden != 0 {
		t.Fatalf("unexported field persisted (%+v); gob would have dropped it", got)
	}
}

// TestMemStorePointerPutIsAllocFree pins the persist hot path every
// protocol core uses, Put(key, &p.st): once the key holds a cell of the
// struct's type, a Put is an in-place copy with no allocation at all.
func TestMemStorePointerPutIsAllocFree(t *testing.T) {
	type durable struct {
		MBal    int
		Val     string
		Decided bool
	}
	s := NewMemStore()
	v := durable{MBal: 1, Val: "v"}
	if err := s.Put("state", &v); err != nil { // allocates the cell
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		v.MBal++
		if err := s.Put("state", &v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state pointer Put allocated %.1f allocs/op, want 0", allocs)
	}
	var got durable
	if ok, err := s.Get("state", &got); err != nil || !ok || got != v {
		t.Fatalf("Get = (%+v, %v, %v), want %+v", got, ok, err, v)
	}
}

// TestMemStorePointerPutIsolation checks that the cell behind a pointer
// Put is the store's own memory: neither the caller's struct after Put
// nor a value returned by Get aliases it.
func TestMemStorePointerPutIsolation(t *testing.T) {
	type durable struct {
		MBal int
		Val  string
	}
	s := NewMemStore()
	v := durable{MBal: 3, Val: "x"}
	if err := s.Put("state", &v); err != nil {
		t.Fatal(err)
	}
	v.MBal, v.Val = 99, "mutated" // must not reach the store
	var got durable
	if ok, err := s.Get("state", &got); err != nil || !ok {
		t.Fatalf("Get = (%v, %v)", ok, err)
	}
	if got != (durable{MBal: 3, Val: "x"}) {
		t.Fatalf("Put aliased the caller's struct: Get returned %+v", got)
	}
	got.MBal = 42 // must not reach the cell either
	var again durable
	if _, err := s.Get("state", &again); err != nil {
		t.Fatal(err)
	}
	if again != (durable{MBal: 3, Val: "x"}) {
		t.Fatalf("Get aliased the cell: second Get returned %+v", again)
	}
}

// TestMemStorePointerPutRepresentations moves one key through every
// representation — pointer cell, boxed value, gob bytes — and back. The
// old representation must never shadow the new one, and Keys and Delete
// must see the key exactly once whatever holds it.
func TestMemStorePointerPutRepresentations(t *testing.T) {
	type durable struct {
		MBal int
		Val  string
	}
	s := NewMemStore()
	get := func(step string) durable {
		t.Helper()
		var got durable
		if ok, err := s.Get("state", &got); err != nil || !ok {
			t.Fatalf("%s: Get = (%v, %v)", step, ok, err)
		}
		return got
	}
	put := func(step string, v any) {
		t.Helper()
		if err := s.Put("state", v); err != nil {
			t.Fatalf("%s: Put: %v", step, err)
		}
	}

	put("pointer", &durable{MBal: 1})
	if got := get("pointer"); got.MBal != 1 {
		t.Fatalf("pointer: got %+v", got)
	}
	put("pointer→value", durable{MBal: 2})
	if got := get("pointer→value"); got.MBal != 2 {
		t.Fatalf("pointer→value: got %+v", got)
	}
	put("value→pointer", &durable{MBal: 3})
	if got := get("value→pointer"); got.MBal != 3 {
		t.Fatalf("value→pointer: got %+v", got)
	}
	put("plain→gob", []int{4})
	var sl []int
	if ok, err := s.Get("state", &sl); err != nil || !ok || len(sl) != 1 || sl[0] != 4 {
		t.Fatalf("plain→gob: Get = (%v, %v, %v)", sl, ok, err)
	}
	put("gob→pointer", &durable{MBal: 5})
	if got := get("gob→pointer"); got.MBal != 5 {
		t.Fatalf("gob→pointer: got %+v", got)
	}

	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "state" {
		t.Fatalf("Keys = %v, want [state]", keys)
	}
	if err := s.Delete("state"); err != nil {
		t.Fatal(err)
	}
	var got durable
	if ok, _ := s.Get("state", &got); ok {
		t.Fatal("deleted pointer-put key still present")
	}
	put("after delete", &durable{MBal: 6})
	s.Reset()
	if ok, _ := s.Get("state", &got); ok {
		t.Fatal("pointer-put key survived Reset")
	}
}

// TestMemStorePointerPutTypeChange checks that a cell is typed: Get into
// another type errors, and a pointer Put of another type replaces the
// cell rather than writing through it.
func TestMemStorePointerPutTypeChange(t *testing.T) {
	type a struct{ X int }
	type b struct{ Y string }
	s := NewMemStore()
	if err := s.Put("k", &a{X: 1}); err != nil {
		t.Fatal(err)
	}
	var wrong int
	if _, err := s.Get("k", &wrong); err == nil {
		t.Fatal("Get into mismatched type should error")
	}
	if _, err := s.Get("k", a{}); err == nil {
		t.Fatal("Get into a non-pointer should error")
	}
	if err := s.Put("k", &b{Y: "y"}); err != nil {
		t.Fatal(err)
	}
	var gotA a
	if _, err := s.Get("k", &gotA); err == nil {
		t.Fatal("Get of the old type after a type change should error")
	}
	var gotB b
	if ok, err := s.Get("k", &gotB); err != nil || !ok || gotB.Y != "y" {
		t.Fatalf("Get = (%+v, %v, %v)", gotB, ok, err)
	}
}

// TestMemStoreNilPointerPut checks that a nil pointer takes the gob path
// on both stores and comes back as an error (gob itself would panic),
// leaving the stored value untouched.
func TestMemStoreNilPointerPut(t *testing.T) {
	type durable struct{ MBal int }
	mem := NewMemStore()
	file, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Store{"mem": mem, "file": file} {
		if err := s.Put("state", &durable{MBal: 7}); err != nil {
			t.Fatal(err)
		}
		var nilPtr *durable
		err := s.Put("state", nilPtr)
		if err == nil || !strings.Contains(err.Error(), "nil pointer") {
			t.Fatalf("%s: Put(nil pointer) = %v, want a nil-pointer error", name, err)
		}
		var got durable
		if ok, err := s.Get("state", &got); err != nil || !ok || got.MBal != 7 {
			t.Fatalf("%s: failed Put disturbed the stored value: (%+v, %v, %v)", name, got, ok, err)
		}
	}
}

// TestMemStorePointerPutUnexportedFieldsUseGob pins the substrate-parity
// rule for pointer puts: a struct with unexported fields takes the gob
// fallback through a pointer too, so only exported fields persist.
func TestMemStorePointerPutUnexportedFieldsUseGob(t *testing.T) {
	type mixed struct {
		Exported int
		hidden   int
	}
	s := NewMemStore()
	if err := s.Put("k", &mixed{Exported: 5, hidden: 9}); err != nil {
		t.Fatal(err)
	}
	var got mixed
	if ok, err := s.Get("k", &got); err != nil || !ok {
		t.Fatalf("Get = (%v, %v)", ok, err)
	}
	if got.Exported != 5 || got.hidden != 0 {
		t.Fatalf("Get = %+v, want {Exported:5 hidden:0} (gob drops unexported fields)", got)
	}
}

// TestFileStorePointerPutParity checks that FileStore writes the same
// record for Put(&v) as for Put(v) — gob flattens pointers — so a value
// persisted through a pointer on one substrate reads back on the other.
func TestFileStorePointerPutParity(t *testing.T) {
	type durable struct {
		MBal    int
		Val     string
		Decided bool
	}
	v := durable{MBal: 4, Val: "v4", Decided: true}
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("byval", v); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("byptr", &v); err != nil {
		t.Fatal(err)
	}
	byVal, err := os.ReadFile(s.path("byval"))
	if err != nil {
		t.Fatal(err)
	}
	byPtr, err := os.ReadFile(s.path("byptr"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(byVal, byPtr) {
		t.Fatalf("Put(&v) wrote %x, Put(v) wrote %x", byPtr, byVal)
	}
	for _, key := range []string{"byval", "byptr"} {
		var got durable
		if ok, err := s.Get(key, &got); err != nil || !ok || got != v {
			t.Fatalf("%s: Get = (%+v, %v, %v), want %+v", key, got, ok, err, v)
		}
	}
}

// TestMemStoreConcurrentPointerPuts checks that in-place cell writes and
// copies out of the cell are serialized: goroutines putting through
// pointers and reading the same key never observe a torn struct. Run
// with -race to check the synchronization too.
func TestMemStoreConcurrentPointerPuts(t *testing.T) {
	type pair struct{ X, Twice int }
	s := NewMemStore()
	if err := s.Put("k", &pair{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var v pair
			for i := 0; i < 500; i++ {
				v = pair{X: g*1000 + i, Twice: 2 * (g*1000 + i)}
				if err := s.Put("k", &v); err != nil {
					t.Error(err)
					return
				}
				var got pair
				if _, err := s.Get("k", &got); err != nil {
					t.Error(err)
					return
				}
				if got.Twice != 2*got.X {
					t.Errorf("torn read: %+v", got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
