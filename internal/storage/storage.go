// Package storage provides the stable-storage abstraction that lets a
// process survive a crash/restart boundary, as the paper's model requires:
// "The process keeps mbal[p] (and the rest of its state) in stable storage
// so it can restart after failure by simply resuming where it left off."
//
// Two implementations are provided: an in-memory store used by the
// deterministic simulator (the store holds isolated copies — plain-data
// values as boxed copies or store-owned cells, everything else gob
// round-tripped — exactly like real persistence), and a file-backed store
// used by the live goroutine runtime.
package storage

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
)

// Store is a small key-value stable store. Implementations must guarantee
// that data written by Put survives a crash of the owning process (in the
// simulator, that the data survives the process object being discarded).
type Store interface {
	// Put durably stores value (gob-encoded) under key. A pointer stores
	// its pointee: Put(k, &v) and Put(k, v) write the same record.
	Put(key string, value any) error
	// Get decodes the value stored under key into out (a pointer). It
	// reports whether the key was present.
	Get(key string, out any) (bool, error)
	// Delete removes a key; deleting an absent key is not an error.
	Delete(key string) error
	// Keys returns all present keys in sorted order.
	Keys() ([]string, error)
}

// MemStore is an in-memory Store. A Get never aliases memory written by
// Put — mutating a value after Put does not change what a later Get
// returns, matching disk semantics.
//
// Three representations provide that guarantee. Values whose type is plain
// data — no pointers, slices, maps, or other mutable indirection (strings
// are immutable, so they count as plain) — are kept as the boxed copy Put
// received: the caller cannot reach that copy, so it is already as
// isolated as encoded bytes, for free. A pointer to plain data is copied
// into a cell the store owns: the first such Put of a key allocates the
// cell, and every later Put of the same type overwrites it in place, so a
// protocol that persists its durable struct through a pointer
// (Put(key, &p.st)) allocates nothing per write. Get copies out of the
// cell, never handing out the store's memory. Every protocol's durable
// state is such a struct, which takes the gob round-trip out of the
// simulator's persist path entirely. Other types, and nil pointers, fall
// back to the gob round-trip.
//
// MemStore is safe for concurrent use. The zero value is ready to use.
type MemStore struct {
	mu    sync.Mutex
	data  map[string][]byte        // gob-encoded values (types with indirection)
	plain map[string]any           // boxed copies (plain-data values)
	cells map[string]reflect.Value // store-owned copies (pointers to plain data)
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

var _ Store = (*MemStore)(nil)

// Put implements Store.
func (s *MemStore) Put(key string, value any) error {
	if rv := reflect.ValueOf(value); rv.Kind() == reflect.Pointer && !rv.IsNil() {
		if s.putCell(key, rv.Elem()) {
			return nil
		}
	} else if value != nil && isPlainData(reflect.TypeOf(value)) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.plain == nil {
			s.plain = make(map[string]any)
		}
		s.plain[key] = value
		delete(s.data, key) // the key may previously have held another representation
		delete(s.cells, key)
		return nil
	}
	buf, err := encode(value)
	if err != nil {
		return fmt.Errorf("storage: put %q: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data == nil {
		s.data = make(map[string][]byte)
	}
	s.data[key] = buf
	delete(s.plain, key)
	delete(s.cells, key)
	return nil
}

// putCell copies v (the pointee of a pointer Put) into key's cell and
// reports whether it did; false means v is not plain data and must take
// the gob path. A key that already holds a cell of v's type is overwritten
// in place: no type-table lookup and no allocation.
//
//repro:hotpath
func (s *MemStore) putCell(key string, v reflect.Value) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cell, ok := s.cells[key]; ok && cell.Type() == v.Type() {
		cell.Set(v)
		return true
	}
	if !isPlainData(v.Type()) {
		return false
	}
	cell := reflect.New(v.Type()).Elem()
	cell.Set(v)
	if s.cells == nil {
		s.cells = make(map[string]reflect.Value)
	}
	s.cells[key] = cell
	delete(s.data, key)
	delete(s.plain, key)
	return true
}

// Get implements Store.
func (s *MemStore) Get(key string, out any) (bool, error) {
	s.mu.Lock()
	if cell, ok := s.cells[key]; ok {
		// Copy under the lock: a concurrent Put overwrites the cell in place.
		err := copyOut(key, cell, out)
		s.mu.Unlock()
		return err == nil, err
	}
	v, plainOK := s.plain[key]
	buf, ok := s.data[key]
	s.mu.Unlock()
	if plainOK {
		err := copyOut(key, reflect.ValueOf(v), out)
		return err == nil, err
	}
	if !ok {
		return false, nil
	}
	if err := decode(buf, out); err != nil {
		return false, fmt.Errorf("storage: get %q: %w", key, err)
	}
	return true, nil
}

// copyOut copies a stored plain-data value into *out, erroring on a type
// mismatch the way a gob decode would.
func copyOut(key string, v reflect.Value, out any) error {
	rout := reflect.ValueOf(out)
	if rout.Kind() != reflect.Pointer || rout.IsNil() {
		return fmt.Errorf("storage: get %q: out must be a non-nil pointer", key)
	}
	if v.Type() != rout.Elem().Type() {
		return fmt.Errorf("storage: get %q: stored %s, requested %s", key, v.Type(), rout.Elem().Type())
	}
	rout.Elem().Set(v)
	return nil
}

// Delete implements Store.
func (s *MemStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, key)
	delete(s.plain, key)
	delete(s.cells, key)
	return nil
}

// Reset empties the store in place, keeping the map storage warm. Arena
// reuse (internal/simnet) resets each pooled node's store between runs
// instead of allocating a fresh one per grid cell.
func (s *MemStore) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.data)
	clear(s.plain)
	clear(s.cells)
}

// Keys implements Store.
func (s *MemStore) Keys() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.data)+len(s.plain)+len(s.cells))
	for k := range s.data {
		keys = append(keys, k)
	}
	for k := range s.plain {
		keys = append(keys, k)
	}
	for k := range s.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// plainDataTypes caches the per-type verdict of isPlainData.
var plainDataTypes sync.Map // reflect.Type → bool

// isPlainData reports whether values of t carry no mutable indirection: a
// copy of such a value shares nothing mutable with the original, so storing
// the copy is equivalent to storing encoded bytes. Strings qualify because
// Go strings are immutable; pointers, slices, maps, chans, funcs, and
// interfaces do not.
func isPlainData(t reflect.Type) bool {
	if v, ok := plainDataTypes.Load(t); ok {
		return v.(bool)
	}
	plain := computePlainData(t)
	plainDataTypes.Store(t, plain)
	return plain
}

func computePlainData(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128,
		reflect.String:
		return true
	case reflect.Array:
		return computePlainData(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			// Unexported fields force the gob fallback: gob drops them
			// (and errors when no exported field exists), and the sim's
			// store must restore exactly what the live FileStore would —
			// persisting more state than gob does would make crash
			// recovery diverge between substrates.
			if f.PkgPath != "" || !computePlainData(f.Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// FileStore persists each key as a gob file in a directory, writing through
// a temp file + rename so a torn write never corrupts a previous value.
// FileStore is safe for concurrent use by one process.
type FileStore struct {
	mu  sync.Mutex
	dir string
}

// NewFileStore creates (if needed) and opens a directory-backed store.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

var _ Store = (*FileStore)(nil)

func (s *FileStore) path(key string) string {
	// Keys are protocol-chosen short identifiers; escape path separators
	// defensively.
	safe := make([]byte, 0, len(key))
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c == '/' || c == '\\' || c == 0 {
			safe = append(safe, '_')
		} else {
			safe = append(safe, c)
		}
	}
	return filepath.Join(s.dir, string(safe)+".gob")
}

// Put implements Store.
func (s *FileStore) Put(key string, value any) error {
	buf, err := encode(value)
	if err != nil {
		return fmt.Errorf("storage: put %q: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := s.path(key) + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("storage: put %q: %w", key, err)
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		return fmt.Errorf("storage: put %q: %w", key, err)
	}
	return nil
}

// Get implements Store.
func (s *FileStore) Get(key string, out any) (bool, error) {
	s.mu.Lock()
	buf, err := os.ReadFile(s.path(key))
	s.mu.Unlock()
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("storage: get %q: %w", key, err)
	}
	if err := decode(buf, out); err != nil {
		return false, fmt.Errorf("storage: get %q: %w", key, err)
	}
	return true, nil
}

// Delete implements Store.
func (s *FileStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := os.Remove(s.path(key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: delete %q: %w", key, err)
	}
	return nil
}

// Keys implements Store.
func (s *FileStore) Keys() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: keys: %w", err)
	}
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) == ".gob" {
			keys = append(keys, name[:len(name)-len(".gob")])
		}
	}
	sort.Strings(keys)
	return keys, nil
}

func encode(value any) ([]byte, error) {
	// gob panics on a nil pointer; report it as the error it is.
	if rv := reflect.ValueOf(value); rv.Kind() == reflect.Pointer && rv.IsNil() {
		return nil, fmt.Errorf("cannot encode nil pointer of type %s", rv.Type())
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(value); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decode(buf []byte, out any) error {
	return gob.NewDecoder(bytes.NewReader(buf)).Decode(out)
}
