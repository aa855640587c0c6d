package exp

import (
	"bytes"
	"strings"
	"testing"

	"mptcp/internal/sched"
)

// TestLearnedSchedulerBeatsMinRTTAndBLEST is the acceptance pin for the
// checked-in bandit model: on two topology families of the training
// corpus — the torus with a mildly binding 64-packet buffer and the
// dual-homed server under the blocking-prone 16-packet buffer — the
// frozen greedy policy must out-deliver both classical baselines the
// ROADMAP names, summed over four fixed grid seeds none of which the
// trainer saw. Everything is deterministic, so a regression here means
// the model file, the feature classifiers, or the inference path
// changed — not noise. If retraining (the pinned command in DESIGN.md
// §14) moves the numbers, the new model must still pass this test
// before being checked in.
//
// Asserted at scale 0.1 to stay in the fast tier; the same 4-seed sums
// at scale 1 (paper fidelity) are torus/buf64 145.570 vs 139.239
// (minrtt) vs 139.862 (blest) Mb/s, and dualhomed/buf16 97.522 vs
// 93.859 vs 80.949 Mb/s — the ordering this test pins.
func TestLearnedSchedulerBeatsMinRTTAndBLEST(t *testing.T) {
	for _, c := range []struct {
		name, scene string
		buf         int64
	}{
		{"torus/buf64", "torus", 64},
		{"dualhomed/buf16", "dualhomed", 16},
	} {
		var bandit, minrtt, blest float64
		for k := 0; k < 4; k++ {
			cfg := Config{Seed: CellSeed(42, k), Scale: 0.1}
			cfg = cfg.norm()
			cfg.Seed = CellSeed(42, k)
			episode := func(spec schedSpec) float64 {
				return schedCell(newWorld(cfg.Seed), cfg, c.scene, "", spec, "MPTCP", c.buf).mbps
			}
			b, err := sched.NewBandit()
			if err != nil {
				t.Fatalf("NewBandit: %v", err)
			}
			bandit += episode(banditSpec(b))
			minrtt += episode(parseSchedSpec("minrtt"))
			blest += episode(parseSchedSpec("blest"))
		}
		t.Logf("%s: bandit %.3f, minrtt %.3f, blest %.3f Mb/s (4-seed sum)", c.name, bandit, minrtt, blest)
		if bandit <= minrtt {
			t.Errorf("%s: bandit %.3f does not beat minrtt %.3f", c.name, bandit, minrtt)
		}
		if bandit <= blest {
			t.Errorf("%s: bandit %.3f does not beat blest %.3f", c.name, bandit, blest)
		}
	}
}

// TestTrainSchedDeterministic: two same-config training runs serialize
// byte-identical models and render byte-identical reports, and the
// result is invariant under Parallelism — the property the CI
// train-smoke job asserts end-to-end through the CLI.
func TestTrainSchedDeterministic(t *testing.T) {
	cfg := TrainConfig{Seed: 11, Scale: 0.02, Rounds: 2}
	m1, r1 := TrainSched(cfg)
	m2, r2 := TrainSched(cfg)
	if !bytes.Equal(m1.Marshal(), m2.Marshal()) {
		t.Fatal("same-seed training runs serialized different models")
	}
	var b1, b2 strings.Builder
	r1.Render(&b1)
	r2.Render(&b2)
	if b1.String() != b2.String() {
		t.Fatalf("same-seed training reports differ:\n%s\nvs\n%s", b1.String(), b2.String())
	}

	cfg.Parallelism = 1
	m3, _ := TrainSched(cfg)
	if !bytes.Equal(m1.Marshal(), m3.Marshal()) {
		t.Fatal("training result depends on Parallelism")
	}

	other, _ := TrainSched(TrainConfig{Seed: 12, Scale: 0.02, Rounds: 2})
	if bytes.Equal(m1.Marshal(), other.Marshal()) {
		t.Fatal("different seeds trained identical models (seed unused?)")
	}
}

// TestTrainSchedPopulatesModel: even a tiny budget must leave provenance
// headers and a non-empty table behind — the trainer actually learns.
func TestTrainSchedPopulatesModel(t *testing.T) {
	m, r := TrainSched(TrainConfig{Seed: 3, Scale: 0.02, Rounds: 2})
	if m.Corpus != trainCorpusName || m.Seed != 3 {
		t.Errorf("provenance headers: corpus %q seed %d", m.Corpus, m.Seed)
	}
	wantEp := int64(2 * len(trainCorpus))
	if m.Episodes != wantEp {
		t.Errorf("Episodes = %d, want %d", m.Episodes, wantEp)
	}
	trained := 0
	for _, n := range m.QN {
		if n > 0 {
			trained++
		}
	}
	if trained == 0 {
		t.Error("no action bucket saw any training")
	}
	if len(r.Eval) != len(trainCorpus) {
		t.Errorf("report evaluates %d cells, want %d", len(r.Eval), len(trainCorpus))
	}
}
