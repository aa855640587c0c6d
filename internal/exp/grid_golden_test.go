package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"os"
	"strings"
	"testing"
)

// artefactPins is the one pin of the grid artefacts: one `sha256sum`
// line per file, which CI checks against the real CLI's output and
// TestGridArtefactsGolden against the same bytes written in process.
const artefactPins = "testdata/ci_artefacts.sha256"

// readPins parses artefactPins into file name → hex digest.
func readPins(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(artefactPins)
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		sum, name, _ := strings.Cut(line, "  ")
		pins[name] = sum
	}
	return pins
}

// checkPin compares the digest h has accumulated with the pinned one.
func checkPin(t *testing.T, pins map[string]string, name string, h hash.Hash) {
	t.Helper()
	if got := hex.EncodeToString(h.Sum(nil)); got != pins[name] {
		t.Errorf("%s: sha256 %s, pinned %s; if intended, the new line of %s is\n%s  %s",
			name, got, pins[name], artefactPins, got, name)
	}
}

// gridArtefacts are the experiments CI writes a -json artefact of, each
// at seed 42, scale 0.05, as <id>.jsonl; the dynamics run is also
// traced, to dynamics_trace.jsonl.
var gridArtefacts = []string{"tournament", "dynamics", "schedgrid", "fleet", "appgrid"}

// TestGridArtefactsGolden reproduces every line of artefactPins in
// process: each grid's JSONL through RunBatchStream and
// TrialResult.WriteJSONL, the path cmd/mptcp-exp -json takes, the
// dynamics trace, and the trainer's serialized model (CI's model_a.txt).
// The cmp smokes in CI only compare a filtered run with the full run of
// the same binary, so a refactor that reshuffles seeds, reorders
// connection construction or adds an rng draw passes them; this does
// not. If an intentional protocol or grid-shape change moves a digest,
// update the file's line (the failure message prints it) and say why in
// the commit message.
func TestGridArtefactsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five grids at scale 0.05")
	}
	pins := readPins(t)
	if want := len(gridArtefacts) + 2; len(pins) != want {
		t.Fatalf("%s has %d lines, want %d: every line must be reproduced here", artefactPins, len(pins), want)
	}
	for _, id := range gridArtefacts {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, ok := Get(id)
			if !ok {
				t.Fatalf("%s not registered", id)
			}
			jsonl, tr := sha256.New(), sha256.New()
			cfg := Config{Seed: 42, Scale: 0.05}
			if id == "dynamics" {
				cfg.TraceW = tr
			}
			RunBatchStream(cfg, []*Experiment{e}, 1, func(res TrialResult) {
				if err := res.WriteJSONL(jsonl); err != nil {
					t.Error(err)
				}
			})
			checkPin(t, pins, id+".jsonl", jsonl)
			if id == "dynamics" {
				checkPin(t, pins, "dynamics_trace.jsonl", tr)
			}
		})
	}
	t.Run("train-model", func(t *testing.T) {
		t.Parallel()
		model, _ := TrainSched(TrainConfig{Seed: 7, Scale: 0.02, Rounds: 2})
		h := sha256.New()
		h.Write(model.Marshal())
		checkPin(t, pins, "model_a.txt", h)
	})
}
