package client

import (
	"testing"

	"rebeca/internal/store"
)

func TestPubIdentityEncodingRoundTrip(t *testing.T) {
	id := pubIdentity{Epoch: 3, Reserved: 1<<63 + 5}
	blob := id.marshal()
	got, err := unmarshalPubIdentity(blob)
	if err != nil || got != id {
		t.Fatalf("round trip = %+v, %v; want %+v", got, err, id)
	}
	for i := 0; i < len(blob); i++ {
		if _, err := unmarshalPubIdentity(blob[:i]); err == nil {
			t.Fatalf("%d-byte prefix decoded", i)
		}
	}
	if _, err := unmarshalPubIdentity(append(blob, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestPubSequencerResumesAcrossWALReopen: the identity survives a restart
// on a file-backed store, and the next incarnation continues above every
// sequence the previous one may have used.
func TestPubSequencerResumesAcrossWALReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := store.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewPubSequencer(w, "pub")
	var last uint64
	for i := 0; i < PubSeqQuantum+3; i++ {
		last = s.Next()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = store.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s2 := NewPubSequencer(w, "pub")
	if s2.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", s2.Epoch())
	}
	if next := s2.Next(); next <= last {
		t.Fatalf("resumed at %d, not above %d", next, last)
	}
}
