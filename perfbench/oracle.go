package main

import (
	"fmt"

	"rebeca"
)

// verdict is the oracle's count of what went wrong against what was owed.
type verdict struct {
	Owed     int // notes the subscriber had to receive
	Received int // distinct owed notes received
	Missing  int // owed notes absent at the drain deadline
	Dups     int // owed notes the application saw more than once
	FIFO     int // owed notes received after a later note of the same publisher
	Other    int // other checks that failed (Connect errors, wrong cells)
}

func (v verdict) failed() int { return v.Missing + v.Dups + v.FIFO + v.Other }

func (v *verdict) add(o verdict) {
	v.Owed += o.Owed
	v.Received += o.Received
	v.Missing += o.Missing
	v.Dups += o.Dups
	v.FIFO += o.FIFO
	v.Other += o.Other
}

func (v verdict) String() string {
	return fmt.Sprintf("owed=%d received=%d missing=%d dups=%d fifo=%d other=%d",
		v.Owed, v.Received, v.Missing, v.Dups, v.FIFO, v.Other)
}

// bitset is a growable set of small non-negative integers (publisher
// sequence numbers are dense from 1).
type bitset []uint64

func (b *bitset) set(i uint64) {
	w := i / 64
	for uint64(len(*b)) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (i % 64)
}

func (b bitset) has(i uint64) bool {
	w := i / 64
	return w < uint64(len(b)) && b[w]&(1<<(i%64)) != 0
}

// owedSet names the notes a subscriber must receive exactly once and, per
// publisher, in sequence order.
type owedSet struct {
	byPub map[rebeca.NodeID]*bitset
	n     int
}

func newOwedSet() *owedSet { return &owedSet{byPub: make(map[rebeca.NodeID]*bitset)} }

func (o *owedSet) add(id rebeca.NotificationID) {
	b := o.byPub[id.Publisher]
	if b == nil {
		b = new(bitset)
		o.byPub[id.Publisher] = b
	}
	if !b.has(id.Seq) {
		b.set(id.Seq)
		o.n++
	}
}

func (o *owedSet) has(id rebeca.NotificationID) bool {
	b := o.byPub[id.Publisher]
	return b != nil && b.has(id.Seq)
}

// checkLog judges a subscriber's application-level delivery log (every
// note its stream handed out, in receipt order) against what it was owed.
// Notes outside the owed set are ignored: they are neither required nor
// ordered against the owed ones.
func checkLog(owed *owedSet, log []rebeca.NotificationID) verdict {
	v := verdict{Owed: owed.n}
	seen := make(map[rebeca.NodeID]*bitset)
	last := make(map[rebeca.NodeID]uint64)
	for _, id := range log {
		if !owed.has(id) {
			continue
		}
		s := seen[id.Publisher]
		if s == nil {
			s = new(bitset)
			seen[id.Publisher] = s
		}
		if s.has(id.Seq) {
			v.Dups++
			continue
		}
		s.set(id.Seq)
		v.Received++
		if id.Seq < last[id.Publisher] {
			v.FIFO++
		} else {
			last[id.Publisher] = id.Seq
		}
	}
	v.Missing = v.Owed - v.Received
	return v
}
