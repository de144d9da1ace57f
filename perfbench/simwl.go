package main

import (
	"fmt"
	"time"

	"rebeca"
	"rebeca/internal/sim"
)

// The sim workload: the virtual-clock simulator on a scaled paper
// scenario — a 5×5 cell grid with pre-subscriptions, the static stock
// stream plus per-cell menus, and random-walking mobiles. Scenarios run
// back to back, each with its own seed drawn from the run's seed, until
// the measured time is used up.
const (
	simMobiles  = 16
	simDuration = 500 * time.Millisecond // virtual time per scenario
)

func simScenario(seed int64) sim.Scenario {
	return sim.Scenario{
		Name:         "sim",
		Graph:        rebeca.Grid(5, 5),
		Replication:  sim.ReplicationPreSubscribe,
		StaticStream: true,
		NumMobiles:   simMobiles,
		Duration:     simDuration,
		Seed:         seed,
	}
}

// simMsgs is the message count the oracle compares across repeated runs of
// one seed: the simulator is deterministic, so any difference is a defect.
func simMsgs(o sim.Outcome) int { return o.ControlMsgs + o.DataMsgs + o.DirectMsgs }

func runSim(e *env) (*outcome, error) {
	out := &outcome{}
	// Set-up: the first scenario, run setupRepeats times. Each run builds
	// the whole cluster; their message counts must agree exactly.
	var ref sim.Outcome
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		o, err := simScenario(e.seed).Run()
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0))
		if i == 0 {
			ref = o
		} else if simMsgs(o) != simMsgs(ref) {
			out.verdict.Other++
			out.notes = append(out.notes, fmt.Sprintf("seed %d: %d messages, first run had %d", e.seed, simMsgs(o), simMsgs(ref)))
		}
	}

	if e.rec != nil {
		simInputs(e, out)
	}

	measured := time.Duration(e.seconds * float64(time.Second))
	m := e.meter()
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		// Scenario.Run blocks the generator, so the heap is sampled here.
		defer close(sampled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	start := time.Now()
	var virtual time.Duration
	var msgs, got, handovers, replayed, preGot, preOwed int
	// Per scenario, for the block figures: CPU µs, notes delivered, wall s.
	var cpuUs, notes, walls []float64
	var firstLocal []float64 // per scenario, virtual ms
	for i := int64(1); time.Since(start) < measured; i++ {
		t0, c0 := time.Now(), cpuTime()
		o, err := simScenario(e.seed*1000003 + i).Run()
		if err != nil {
			close(stop)
			<-sampled
			return nil, err
		}
		wall := time.Since(t0)
		n := o.StaticGot + o.LiveGot + o.PreArrivalGot
		cpuUs = append(cpuUs, us(cpuTime()-c0))
		notes = append(notes, float64(n))
		walls = append(walls, wall.Seconds())
		if e.rec != nil {
			e.rec.add(span{Name: spanScenario, Start: e.rec.at(t0), End: e.rec.now()})
		}
		out.latency = append(out.latency, ms(wall)/simDuration.Seconds())
		virtual += simDuration
		msgs += simMsgs(o)
		got += n
		handovers += o.Handovers
		replayed += o.Replayed
		preGot += o.PreArrivalGot
		preOwed += o.PreArrivalExpected
		if o.FirstDeliverySamples > 0 {
			firstLocal = append(firstLocal, ms(o.FirstDeliveryLatency))
		}
		out.verdict.Owed += o.StaticExpected
		out.verdict.Received += o.StaticGot
		out.verdict.Missing += o.StaticLoss()
		out.verdict.Dups += o.Duplicates
		out.verdict.FIFO += o.FIFOViolations
	}
	close(stop)
	<-sampled
	out.cost = m.stop()
	wall := time.Since(start)
	out.attempted = out.verdict.Owed
	out.delivered = got
	// Blocks of whole scenarios: a scenario is the unit of work here.
	out.latencyBlockMin = 1
	out.cpuBlocks = blockRatios(cpuUs, notes, latencyBlocks, 1)
	out.throughput = quantile(blockRatios(notes, walls, latencyBlocks, 1), calmHigh)
	out.extra = []namedValue{
		{"sim.speed_x", "x", virtual.Seconds() / wall.Seconds()},
	}
	out.layers = map[string]float64{
		"sim.msgs_per_vs": float64(simMsgs(ref)) / simDuration.Seconds(),
		"sim.ns_per_msg":  float64(wall.Nanoseconds()) / float64(max(msgs, 1)),
		// The logical-mobility layer, in virtual time: the scenarios'
		// per-handover first-local delay (each scenario's mean), the share
		// of notes published in the window before an arrival that reached
		// the mobile, and the replicator's replays per handover.
		"core.first_local_p50_ms":       quantile(firstLocal, 0.5),
		"core.first_local_p99_ms":       quantile(firstLocal, 0.99),
		"core.prearrival_frac":          float64(preGot) / float64(max(preOwed, 1)),
		"mobility.replays_per_handover": float64(replayed) / float64(max(handovers, 1)),
		"routing.table_entries":         float64(ref.TableEntries),
	}
	out.notes = append(out.notes, fmt.Sprintf("%d scenarios, %s virtual, %d messages, %d handovers",
		len(out.latency), virtual, msgs, handovers))
	return out, nil
}

// simInputs rebuilds, for the layer replays, the notes and subscriptions a
// scenario generates: one menu publisher per cell, the stock publisher,
// and each mobile's menu and stock subscriptions. Scenario.Run keeps its
// inputs to itself, so they are made here with the same shapes, in
// publishing order.
func simInputs(e *env, out *outcome) {
	cells := rebeca.Grid(5, 5).Nodes()
	for seq := 1; len(e.kept) < keptNotes; seq++ {
		for _, b := range cells {
			n := rebeca.Notification{Attrs: map[string]rebeca.Value{
				"service": rebeca.String("menu"),
				"item":    rebeca.Int(int64(seq)),
			}}
			e.keepNote(rebeca.StampLocation(n, rebeca.Location("region-"+string(b))).Attrs)
			out.delivery = append(out.delivery, rebeca.NotificationID{Publisher: "pub@" + b, Seq: uint64(seq)})
		}
		e.keepNote(map[string]rebeca.Value{
			"service": rebeca.String("stock"),
			"quote":   rebeca.Int(int64(seq)),
		})
		out.delivery = append(out.delivery, rebeca.NotificationID{Publisher: "stockpub", Seq: uint64(seq)})
	}
	for i := 0; i < simMobiles; i++ {
		out.filters = append(out.filters,
			rebeca.AtLocation(rebeca.Eq("service", rebeca.String("menu"))),
			rebeca.NewFilter(rebeca.Eq("service", rebeca.String("stock"))))
	}
}
