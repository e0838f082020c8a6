// Authentication: challenge–response device authentication with the
// configurable RO PUF, including the environmental-noise and impostor
// cases. Demonstrates the single-use challenge discipline and the
// tolerance trade-off.
//
// Run with:
//
//	go run ./examples/authentication
package main

import (
	"fmt"
	"log"

	"ropuf/internal/auth"
	"ropuf/internal/core"
	"ropuf/internal/dataset"
	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
)

func main() {
	// Two physical devices from the same wafer lot: "alice" is enrolled,
	// "mallory" is an un-enrolled impostor of the same design.
	cfg := dataset.DefaultInHouseConfig()
	cfg.NumBoards = 2
	cfg.RingsPerBoard = 128 // 64 PUF pairs: room for several challenges
	boards, err := dataset.GenerateInHouse(cfg)
	if err != nil {
		log.Fatal(err)
	}
	alice, mallory := boards[0], boards[1]

	verifier, err := auth.NewVerifier(0.10, rngx.New(0x41555448)) // "AUTH"
	if err != nil {
		log.Fatal(err)
	}

	// Enrollment (trusted environment, once).
	alicePairs, err := alice.MeasurePairs(silicon.Nominal)
	if err != nil {
		log.Fatal(err)
	}
	enr, err := verifier.Enroll("alice", alicePairs, core.Case2)
	if err != nil {
		log.Fatal(err)
	}
	prover := &auth.Prover{Enrollment: enr}
	fresh, _ := verifier.NumFresh("alice")
	fmt.Printf("enrolled alice: %d PUF pairs available\n\n", fresh)

	// Round 1: genuine device at a harsh corner.
	harsh := silicon.Env{V: 0.98, T: 65}
	ch, err := verifier.NewChallenge("alice", 16)
	if err != nil {
		log.Fatal(err)
	}
	meas, err := alice.MeasurePairs(harsh)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := prover.Respond(ch, meas)
	if err != nil {
		log.Fatal(err)
	}
	ok, d, err := verifier.Verify(ch, resp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("genuine device at %.2fV/%gC: HD=%d/16 -> accepted=%v\n", harsh.V, harsh.T, d, ok)

	// Round 2: impostor device answers a fresh challenge with its own
	// silicon (it even steals alice's public configurations).
	ch2, err := verifier.NewChallenge("alice", 16)
	if err != nil {
		log.Fatal(err)
	}
	stolen := &auth.Prover{Enrollment: enr}
	malMeas, err := mallory.MeasurePairs(silicon.Nominal)
	if err != nil {
		log.Fatal(err)
	}
	resp2, err := stolen.Respond(ch2, malMeas)
	if err != nil {
		log.Fatal(err)
	}
	ok2, d2, err := verifier.Verify(ch2, resp2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("impostor with stolen configs:   HD=%d/16 -> accepted=%v\n", d2, ok2)

	// Round 3: replaying round 1's response fails structurally — those
	// pairs are consumed, and a new challenge names different pairs.
	ch3, err := verifier.NewChallenge("alice", 16)
	if err != nil {
		log.Fatal(err)
	}
	overlap := 0
	used := map[int]bool{}
	for _, i := range ch.Pairs {
		used[i] = true
	}
	for _, i := range ch3.Pairs {
		if used[i] {
			overlap++
		}
	}
	fmt.Printf("challenge reuse check: %d/16 pairs overlap with round 1 (single-use pool)\n", overlap)
	left, _ := verifier.NumFresh("alice")
	fmt.Printf("fresh pairs remaining: %d\n", left)
}
