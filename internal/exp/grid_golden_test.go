package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// recordsDigest is the SHA-256 of a grid's Records as canonical JSON in
// cell order (encoding/json sorts map keys).
func recordsDigest(t *testing.T, recs []Record) string {
	t.Helper()
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGridArtefactsGolden pins every grid's per-cell output, and the
// trainer's serialized model, across commits: the cmp smokes in CI only
// compare a filtered run with the full run of the same binary, so a
// refactor that reshuffles seeds, reorders connection construction or
// adds an rng draw passes them. Captured at commit 5ca7589. If an
// intentional protocol or grid-shape change moves a digest, update the
// literal (the failure message prints the new one) together with
// testdata/ci_artefacts.sha256 and say why in the commit message.
func TestGridArtefactsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five grids at scale 0.05")
	}
	for id, want := range map[string]string{
		"tournament": "3c05cc71ae573abbb38303f48d72bfcedb0a1787a5c71329faaf0647ba7991c5",
		"dynamics":   "476bd1a7e83384def20b0a3b78b71f0389e02a1e434552ddb3624cbbc7f0cee1",
		"schedgrid":  "ccc856e2d0e43ade1f028ce8b2699838fe55aa9029bb73f04594eced59ac8113",
		"fleet":      "2ca0f28a94813d4c4764595c65bd23c9c0b89d4ac9f3cbfca1aac24d06237db1",
		"appgrid":    "46ac4b8d19aac0097a015d3556b93be6f00be5f81579410d43c8d3474bb58c85",
	} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, ok := Get(id)
			if !ok {
				t.Fatalf("%s not registered", id)
			}
			if got := recordsDigest(t, e.Run(Config{Seed: 42, Scale: 0.05}).Records); got != want {
				t.Errorf("%s records digest = %s, want %s", id, got, want)
			}
		})
	}
	t.Run("train-model", func(t *testing.T) {
		t.Parallel()
		model, _ := TrainSched(TrainConfig{Seed: 7, Scale: 0.02, Rounds: 2})
		sum := sha256.Sum256(model.Marshal())
		const want = "080acd7909b7e3c87b04aded0b91b76c31ed49a6646de0acd8f7b90764c705f4"
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("model digest = %s, want %s", got, want)
		}
	})
}
