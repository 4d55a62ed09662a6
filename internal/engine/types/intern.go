package types

import (
	"sync"
	"sync/atomic"
)

// The intern table maps every string a KindString value has ever held to a
// dense id, the value's payload. Strings enter the engine only from the
// generators' fixed pools and from plan constants, never from row data
// while a query runs, so the table is bounded by those sources and is
// never pruned. Entries are never modified once published: a reader loads
// the current slice header atomically and indexes it without a lock, and
// interning a new string appends under a mutex and republishes. Id 0 is
// the empty string.
var interned struct {
	mu  sync.Mutex
	ids map[string]int64 // guarded by mu
	tab atomic.Pointer[[]internedString]
}

// internedString is one table entry: the string and its Hash, computed once.
type internedString struct {
	s    string
	hash uint64
}

func init() {
	interned.ids = make(map[string]int64)
	tab := make([]internedString, 0, 64)
	interned.tab.Store(&tab)
	intern("")
}

// intern returns the id of s, adding it to the table on first sight.
func intern(s string) int64 {
	interned.mu.Lock()
	defer interned.mu.Unlock()
	if id, ok := interned.ids[s]; ok {
		return id
	}
	// Appending writes past the length every published header carries, so
	// no reader can see the slot until the new header is stored.
	tab := append(*interned.tab.Load(), internedString{s: s, hash: hashString(s)})
	interned.tab.Store(&tab)
	id := int64(len(tab) - 1)
	interned.ids[s] = id
	return id
}

// internedAt returns the table entry of id.
func internedAt(id int64) *internedString { return &(*interned.tab.Load())[id] }

// InternedStrings returns how many distinct strings have been interned.
func InternedStrings() int { return len(*interned.tab.Load()) }

// hashString is the FNV-1a hash of a string value: a kind tag, then the
// bytes.
func hashString(s string) uint64 {
	h := uint64(fnvOffset64)
	h = (h ^ 2) * fnvPrime64
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}
