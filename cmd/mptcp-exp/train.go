package main

import (
	"fmt"
	"os"

	"mptcp/internal/exp"
)

// runTrainSched drives the offline bandit-scheduler trainer
// (exp.TrainSched) and writes the serialized model to file. The run is
// deterministic end to end: two invocations with the same seed, scale
// and rounds produce byte-identical model files and byte-identical
// reports, which the CI train-smoke job asserts with cmp. The
// checked-in model behind sched.New("bandit") is produced by the
// pinned command documented in DESIGN.md §14:
//
//	go run ./cmd/mptcp-exp -train-sched internal/sched/bandit.model -seed 1 -scale 0.2 -train-rounds 40
func runTrainSched(file string, seed int64, scale float64, rounds, parallel int) error {
	model, report := exp.TrainSched(exp.TrainConfig{
		Seed:        seed,
		Scale:       scale,
		Rounds:      rounds,
		Parallelism: parallel,
	})
	if err := os.WriteFile(file, model.Marshal(), 0o644); err != nil {
		return fmt.Errorf("writing model: %w", err)
	}
	report.Render(os.Stdout)
	// Stderr, so stdout is exactly the deterministic report the CI
	// train-smoke job cmp-compares across runs writing different files.
	fmt.Fprintf(os.Stderr, "model written to %s\n", file)
	return nil
}
