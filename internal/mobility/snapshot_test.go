package mobility

import (
	"testing"

	"rebeca/internal/filter"
	"rebeca/internal/message"
	"rebeca/internal/proto"
)

func TestSessionSnapEncodingRoundTrip(t *testing.T) {
	snap := sessionSnap{Subs: []proto.Subscription{
		{ID: "all", Filter: filter.All()},
		{ID: "quotes", Filter: filter.New(
			filter.Eq("stream", message.String("quotes")),
			filter.Gt("price", message.Float(10.5)),
			filter.Le("qty", message.Int(-3)),
			filter.In("sym", message.String("A"), message.String("B")),
			filter.Exists("live"),
			filter.Prefix("desk", "ny-"),
			filter.Eq("open", message.Bool(true)),
		)},
	}}
	blob := snap.marshal()
	got, err := unmarshalSessionSnap(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Subs) != len(snap.Subs) {
		t.Fatalf("decoded %d subscriptions, want %d", len(got.Subs), len(snap.Subs))
	}
	for i, want := range snap.Subs {
		if got.Subs[i].ID != want.ID || got.Subs[i].Filter.Key() != want.Filter.Key() {
			t.Fatalf("subscription %d = %v %v, want %v %v", i, got.Subs[i].ID, got.Subs[i].Filter, want.ID, want.Filter)
		}
	}
	for i := 0; i < len(blob); i++ {
		if _, err := unmarshalSessionSnap(blob[:i]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte snapshot decoded", i, len(blob))
		}
	}
	if _, err := unmarshalSessionSnap(append(blob, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if empty, err := unmarshalSessionSnap(sessionSnap{}.marshal()); err != nil || len(empty.Subs) != 0 {
		t.Fatalf("empty profile = %+v, %v", empty, err)
	}
}
