// Streaming: a long-running deployment folding observations in one at a
// time with clocksync.Stream, instead of batching them in a Recorder.
//
// A 32-node ring exchanges timestamped messages continuously. After every
// few messages the operator asks for fresh corrections. Early on, most
// messages genuinely tighten a link's local-shift estimate and the stream
// re-solves; once the per-link statistics converge, new messages stop
// carrying new extremes and the stream proves that the cached solve is
// still exact (a tightened edge that cannot move any shortest path is
// inert). Steady-state calls then cost microseconds where a batch
// re-solve would be milliseconds — with bit-identical results.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"math/rand"

	"clocksync"
)

func main() {
	const (
		n      = 32
		lb, ub = 0.002, 0.010 // declared delay bounds per ring link
		rounds = 250          // correction refreshes
		perRnd = 8            // messages folded in between refreshes
	)
	rng := rand.New(rand.NewSource(11))

	// Ground truth the nodes do not know: each clock's start offset.
	skew := make([]float64, n)
	for p := 1; p < n; p++ {
		skew[p] = rng.Float64() - 0.5
	}

	sys, err := clocksync.NewSystem(n)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := sys.AddLink(clocksync.ProcID(i), clocksync.ProcID((i+1)%n),
			clocksync.MustSymmetricBounds(lb, ub)); err != nil {
			log.Fatal(err)
		}
	}

	st, err := sys.NewStream()
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	fmt.Println("streaming: 32-node ring, one Stream, corrections after every 8 messages")
	fmt.Printf("%8s  %14s  %14s\n", "messages", "precision (s)", "realized (s)")

	now, messages := 100.0, 0
	for round := 1; round <= rounds; round++ {
		for m := 0; m < perRnd; m++ {
			now += 0.05
			i := rng.Intn(n)
			j := (i + 1) % n
			if rng.Intn(2) == 0 {
				i, j = j, i
			}
			d := lb + (ub-lb)*rng.Float64()
			// The receiver's clock reads sender time + delay, shifted by
			// the two nodes' (unknown) relative skew.
			send := now - skew[i]
			recv := now + d - skew[j]
			if err := st.Observe(clocksync.ProcID(i), clocksync.ProcID(j), send, recv); err != nil {
				log.Fatal(err)
			}
			messages++
		}
		res, err := st.Corrections()
		if err != nil {
			log.Fatal(err)
		}
		if round%50 == 0 || round == 1 {
			realized, err := clocksync.Discrepancy(skew, res.Corrections)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%8d  %14.6f  %14.6f\n", messages, res.Precision, realized)
		}
	}

	stats := st.Stats()
	fmt.Println()
	fmt.Printf("solve paths: %d cached, %d batch (of %d observations)\n",
		stats.Cached, stats.Batch, stats.Observations)
	fmt.Println("every result above is bit-identical to a from-scratch batch Synchronize;")
	fmt.Println("the cached solves cost microseconds instead of a full O(n^3) pipeline run.")
}
