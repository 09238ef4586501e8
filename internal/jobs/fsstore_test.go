package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fsKey synthesizes a canonical-looking cache key.
func fsKey(i int) string { return fmt.Sprintf("sha256:%064x", i) }

func TestFSStoreRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := json.RawMessage(`{"coverage":0.95}`)
	s.Put(fsKey(1), payload)
	got, ok := s.Get(fsKey(1))
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %s, %v", got, ok)
	}
	if _, ok := s.Get(fsKey(2)); ok {
		t.Error("hit for a key never stored")
	}
	st := s.Stats()
	if st.Kind != "fs" || st.Entries != 1 || st.Bytes != int64(len(payload)) || st.Path != dir {
		t.Errorf("Stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same directory adopts the entry.
	s2, err := NewFSStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, ok := s2.Get(fsKey(1)); !ok || string(got) != string(payload) {
		t.Fatalf("after reopen: Get = %s, %v", got, ok)
	}
}

func TestFSStoreRejectsNonCanonicalKeys(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, key := range []string{
		"",
		"sha256:short",
		"md5:" + fmt.Sprintf("%064x", 7),
		"sha256:../../../../etc/passwd0000000000000000000000000000000000000000",
		fsKey(3) + "X",
	} {
		s.Put(key, json.RawMessage(`{}`))
		if _, ok := s.Get(key); ok {
			t.Errorf("key %q round-tripped; must be rejected", key)
		}
	}
	// Nothing may have landed outside index bookkeeping.
	if st := s.Stats(); st.Entries != 0 {
		t.Errorf("non-canonical keys stored: %+v", st)
	}
}

func TestFSStoreCorruptPayloadIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put(fsKey(4), json.RawMessage(`{"ok":true}`))
	name, _ := fsFileName(fsKey(4))
	// Simulate a torn write or on-disk corruption behind the store's back.
	if err := os.WriteFile(filepath.Join(dir, name), []byte(`{"ok":tru`), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt0 := jStoreCorrupt.Value()
	if _, ok := s.Get(fsKey(4)); ok {
		t.Fatal("corrupt payload served as a hit")
	}
	if got := jStoreCorrupt.Value() - corrupt0; got != 1 {
		t.Errorf("corrupt counter delta = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
		t.Errorf("corrupt payload file not deleted: %v", err)
	}
	// The slot is reusable.
	s.Put(fsKey(4), json.RawMessage(`{"ok":false}`))
	if got, ok := s.Get(fsKey(4)); !ok || string(got) != `{"ok":false}` {
		t.Errorf("after re-put: %s, %v", got, ok)
	}
}

func TestFSStoreEvictsByBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Payloads of ~600 KiB: the second put must evict the least recently
	// used entry to stay within the 1 MiB floor.
	big := json.RawMessage(`{"blob":"` + strings.Repeat("a", 600<<10) + `"}`)
	s.Put(fsKey(10), big)
	s.Put(fsKey(11), big) // evicts 10 (2×600 KiB > 1 MiB)
	if _, ok := s.Get(fsKey(10)); ok {
		t.Error("oldest entry survived the byte bound")
	}
	if _, ok := s.Get(fsKey(11)); !ok {
		t.Error("newest entry evicted")
	}
	if st := s.Stats(); st.Bytes > 1<<20 {
		t.Errorf("store bytes %d exceed the bound", st.Bytes)
	}
}

// TestFSStoreCrossProcess is the satellite property test: two Store
// instances over one directory (stand-ins for two dftserved replicas)
// doing concurrent Put/Get/evict under -race, with every observed hit
// byte-identical to what was stored. Small byte bounds keep eviction
// constantly in play.
func TestFSStoreCrossProcess(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFSStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewFSStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// 64 KiB payloads over 32 keys ≈ 2 MiB of live data against a 1 MiB
	// bound, so both replicas evict continuously while reading.
	payload := func(k int) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"k":%d,"pad":%q}`, k, strings.Repeat("a", 64<<10)))
	}
	const keys = 32
	var wg sync.WaitGroup
	for w, store := range []Store{a, b, a, b} {
		wg.Add(1)
		go func(w int, s Store) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (i + w*7) % keys
				if i%3 == 0 {
					s.Put(fsKey(k), payload(k))
					continue
				}
				if raw, ok := s.Get(fsKey(k)); ok {
					var got struct{ K int }
					if err := json.Unmarshal(raw, &got); err != nil || got.K != k {
						t.Errorf("worker %d: key %d returned %.40s… (%v)", w, k, raw, err)
					}
				}
			}
		}(w, store)
	}
	wg.Wait()

	// Cross-replica visibility: everything a stored must be a hit for b
	// (nothing here exceeds the byte bound anymore).
	a.Put(fsKey(100), json.RawMessage(`{"from":"a"}`))
	if got, ok := b.Get(fsKey(100)); !ok || string(got) != `{"from":"a"}` {
		t.Errorf("replica b missed replica a's entry: %s, %v", got, ok)
	}
}

// FuzzFSStore feeds the disk store hostile files: a truncated payload, a
// payload file of arbitrary bytes and an arbitrary index.json. Opening
// never fails or panics; a truncated payload always reads as a miss; the
// arbitrary payload is served only when it is a whole JSON document, and
// then byte for byte (a well-formed document is all this layer can check);
// every rejected file is deleted, and the byte accounting matches the
// payload files left on disk.
func FuzzFSStore(f *testing.F) {
	f.Add([]byte(`{"coverage":0.95}`), uint16(5), []byte(`{"entries":[]}`))
	f.Add([]byte("\x00\xffgarbage"), uint16(0), []byte("not json"))
	f.Add([]byte(`[1,2`), uint16(40), []byte(`{"entries":[{"key":"`+fsKey(3)+`","bytes":-5},{"key":"`+fsKey(2)+`","bytes":1}]}`))
	f.Add([]byte(``), uint16(63), []byte(`{"entries":[{"key":"sha256:../index","bytes":9}]`))
	genuine := []byte(`{"configs":["(none)","OP1"],"det":[[true,false],[false,true]],"omega":[[0.5,0],[0,1]]}`)
	f.Fuzz(func(t *testing.T, garbage []byte, cut uint16, index []byte) {
		dir := t.TempDir()
		s, err := NewFSStore(dir, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		s.Put(fsKey(1), genuine)
		s.Put(fsKey(2), genuine)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		plant := func(key string, raw []byte) string {
			name := fsIndexName
			if key != "" {
				name, _ = fsFileName(key)
			}
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}
		truncated := plant(fsKey(1), genuine[:int(cut)%len(genuine)])
		arbitrary := plant(fsKey(2), garbage)
		plant("", index)

		s, err = NewFSStore(dir, 1<<30)
		if err != nil {
			t.Fatalf("reopen over a hostile index: %v", err)
		}
		defer s.Close()
		if got, ok := s.Get(fsKey(1)); ok {
			t.Fatalf("truncated payload served: %q", got)
		}
		if _, err := os.Stat(truncated); !os.IsNotExist(err) {
			t.Errorf("truncated payload not deleted: %v", err)
		}
		got, ok := s.Get(fsKey(2))
		if ok != json.Valid(garbage) || (ok && string(got) != string(garbage)) {
			t.Fatalf("payload %q read as %q, hit %v", garbage, got, ok)
		}
		if _, err := os.Stat(arbitrary); ok == os.IsNotExist(err) {
			t.Errorf("hit %v, but payload file present %v", ok, err == nil)
		}
		if got, ok := s.Get(fsKey(3)); ok {
			t.Fatalf("key without a payload file served: %q", got)
		}
		var onDisk int64
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range entries {
			if _, ok := fsFileKey(de.Name()); ok {
				fi, err := de.Info()
				if err != nil {
					t.Fatal(err)
				}
				onDisk += fi.Size()
			}
		}
		if st := s.Stats(); st.Bytes != onDisk {
			t.Errorf("store accounts %d bytes, payload files hold %d", st.Bytes, onDisk)
		}
	})
}
