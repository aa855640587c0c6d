package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"sort"
	"testing"
)

var paperFabrics = flag.Bool("paper-fabrics", false,
	"TestPaperFiguresGolden also compares the Scale 0.5 fabrics (FatTree k=8, BCube(5,2); about 100 s each)")

// resultDigest is the SHA-256 of everything a per-figure experiment
// reports: the rendered text, then every metric and every figure point
// as hex floats (Render rounds to four digits; %x does not), then the
// number of Records.
func resultDigest(res *Result) string {
	h := sha256.New()
	res.Render(h)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%x\n", k, res.Metrics[k])
	}
	for _, f := range res.Figures {
		for _, c := range f.Curves {
			fmt.Fprintf(h, "%s/%s", f.Title, c.Name)
			for _, p := range c.Pts {
				fmt.Fprintf(h, " %x,%x", p.X, p.Y)
			}
			fmt.Fprintln(h)
		}
	}
	fmt.Fprintf(h, "records=%d\n", len(res.Records))
	return hex.EncodeToString(h.Sum(nil))
}

// paperConfigs are the two (seed, scale) points every figure is pinned
// at; paperFabricsConfig is the third, for the three experiments whose
// fabric changes size at Scale >= 0.5.
var (
	paperConfigs       = []Config{{Seed: 9, Scale: 0.03}, {Seed: 42, Scale: 0.05}}
	paperFabricsConfig = Config{Seed: 3, Scale: 0.5}
)

// paperGolden holds, per experiment of the paper's own evaluation, the
// digests at paperConfigs[0] and paperConfigs[1].
var paperGolden = map[string][2]string{
	"fig2-triangle": {
		"4e1043daaf790e9fa3c143f918601f7ed96b350779da4f3beb4fe4cc048fe2d6",
		"c6a5129f67e10f3f46516d38fd6fe684b639505d2e3e92c286a8e1679fba216a",
	},
	"fig3-mesh": {
		"7a0752c4c575884891ddc4b029c4e6fc6782c757af84ad2c8eb44a70c915aa11",
		"4da5521748df3457dd29df0d3433cd3013f6a66cca78848587643563ddee7254",
	},
	"sec23-wifi3g-model": {
		"a44b23664eb94662df2c65d719f8bf94a70694a3d3ef9cccd7af8809e12ee199",
		"cdaaf017273b3e122664b287daf583f5ad29a4b070846a1f2ae8bfdaf9480b6e",
	},
	"fig5-trap": {
		"1d0acb1a67906377a41a3cfd8a6c8f05b14de0b444d3d584b6cc2330b4bc1f6d",
		"6d196a8bca2c28276f136cc86e9024f8d9e967bde93cbe29b81305ef2ed0ac86",
	},
	"fig8-torus": {
		"fccbdb5ef15013f78f2e228bda6b980bd78851ae7220a75c53e19b7c8025b173",
		"6205cdb336e15bacd0e8499d7cf386b2cc4b591687aa375cdb87ac9ba343ffbe",
	},
	"table-dynamic": {
		"bc5fb8625805be6e69b7f1cd82164a07dd76233dbe0ff4aa0be875581ee1c731",
		"e276b9a05fe0686780cdf909fba125ef8b8c7a2492f6bb54202542e505502fdd",
	},
	"fig10-server-lb": {
		"ee22fbc10322e07a4fa9f6ef48f3a57d9d81f33469e2d82de8d07de56affa87d",
		"b8f1d7b5441181dd3d84aeb8163af921dec5fb965bbd484ce28e459860d0e8b1",
	},
	"table-server-poisson": {
		"6bb0d5cce5e57790907809d954d91dfb18e9a89990cd7f944c75493a0b53bd90",
		"60c6c9cfb24b8e52da93f90e1a60adcce4cd544721ee3e32bddf68474450c1fb",
	},
	"table-fattree": {
		"b69c56d5df59ed1cb82385898024d8caa2501f86b363b732d2a1348d71ab9b12",
		"e5aff760fffcf74332914163222d81a2c87541b2e47bf33d582e423a1c7b8946",
	},
	"fig12-paths": {
		"2260643fc8e86f357eb79bb62dc8cf8e55d3795fe06885be6ab7c8a05fff08d1",
		"d6d9c9650d2fee8a7626779afa77ba15e1d1c721428931cea58805153a33d08d",
	},
	"fig13-dist": {
		"699f4ec87eda7f93cddbbf7e90ba91bb8b540f9126070cf6dd7a7bc1bc265a90",
		"15a5b4e3140a0a442789aaa936bd9c88afca7da3fabca306e9954f7330e6c0a5",
	},
	"table-bcube": {
		"391089a1738466624d032e1c97f1ccd3857f3e84507d9c14d935db7016d89047",
		"7d373a8a5ff92522ca5cac0f96569604b4d799b63471fc08cc787cc7ff4f8f61",
	},
	"table-wireless-static": {
		"53b9c31fad2cd5db2a9fd6cf7bb0e6d2b2a0221c04258d690fae6df24f71c075",
		"7a338307b2a63596959b33bb518e2ec6fcc2fe407984bda8c82d590d8ab893d6",
	},
	"fig15-wireless-compete": {
		"0c405a8ae505a85650a75c5f9d7dcfa1b5fbf1edfc2e9fa29fa6ca7a7d7cc629",
		"72ba5da02308cdda4368cc541d94cc29ab82237f2566177e6378692ade094b22",
	},
	"sec5-wired-sim": {
		"a72c96714820fb914bbcea5df194abc718e2b73cc99e70231a22a2e5bf0f8154",
		"9e0ae5cc4841bf8eef6db08547692f434e72ecc50e180d9413ae04a4a7d88aca",
	},
	"fig16-rtt-sweep": {
		"e8ed501ebea5605e4fcf783a02ac54c54a5f89965908778b9231f54adf517abc",
		"c46080700216acf3d01ee589fb8a4cb5d5ac009a1778655de9b38dbafe76ff76",
	},
	"fig17-mobility": {
		"810c2a496193c468c92438f77f956a36393070efff7f405b49bc91519585f986",
		"87d8f0fd089702edc00dee2c8fec2fe15fb19540061233003ae6d07cf3f76aaf",
	},
	"ablation-cap": {
		"ec7d3084cc1f781d3a85d2cbb761059701a834b0070da90d8ef4c4afda131419",
		"a4c3422f53df3260e292605f9568609858ef9dfcd7bcdd6a25063ca791bac75e",
	},
	"ablation-peracck": {
		"2b930b216fcb620aff8d6516e283b2d682b365857b20faf861dec66663147298",
		"637d020b356c43acb68e9a5f0c170d2960be5ad50deb26c904c2bcf9bc85bbec",
	},
	"ablation-reinject": {
		"d0943be663eb2e39131eb4daf34affd2d69e1a1ce3e81596372df408957069c3",
		"762c1f6bd06706008ea88a6592ee8704a66203887a5c543451a1b14283c9dd26",
	},
}

// paperFabricsGolden holds the digests at paperFabricsConfig.
var paperFabricsGolden = map[string]string{
	"table-fattree": "8b86a595e6affbc662873679be3bb3101d7ff2f2b7fcd9fc015123890ca3860f",
	"fig12-paths":   "cd4deda14bd121a601bb1dbd341852160a2cfbcaf7b6f9daee21f574b96f0a48",
	"table-bcube":   "11b7ad7cd68392e0b7779b65bdd2fe450f217d648e7104fefad7ffed6ea1535c",
}

// TestPaperFiguresGolden pins the complete output of the twenty
// experiments that reproduce the paper's own tables and figures, the
// way TestGridArtefactsGolden pins the five grids: the shape tests
// cover a handful of numbers each, so a refactor that reorders
// connection construction, moves an rng draw or changes a table cell in
// any other figure passes them. If an intentional change moves a
// digest, update the literal (the failure message prints the new one)
// and say why in the commit message. The full-size fabrics are compared
// only with -paper-fabrics:
//
//	go test ./internal/exp -run TestPaperFiguresGolden -paper-fabrics -timeout 30m
func TestPaperFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all twenty per-figure experiments twice")
	}
	for id, want := range paperGolden {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			for i, cfg := range paperConfigs {
				checkDigest(t, id, cfg, want[i])
			}
		})
	}
	if !*paperFabrics {
		return
	}
	for id, want := range paperFabricsGolden {
		t.Run(id+"/fabric", func(t *testing.T) {
			t.Parallel()
			checkDigest(t, id, paperFabricsConfig, want)
		})
	}
}

// checkDigest runs experiment id at cfg and compares its resultDigest
// with want.
func checkDigest(t *testing.T, id string, cfg Config, want string) {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	if got := resultDigest(e.Run(cfg)); got != want {
		t.Errorf("%s seed %d scale %g digest = %s, want %s", id, cfg.Seed, cfg.Scale, got, want)
	}
}

// pinnedRun is one experiment at one (seed, scale) point and the
// resultDigest it must produce.
type pinnedRun struct {
	id     string
	cfg    Config
	digest string
}

// checkPinned runs each pinned run as a subtest named after its
// experiment.
func checkPinned(t *testing.T, runs []pinnedRun) {
	if testing.Short() {
		t.Skip("full-experiment golden comparison")
	}
	for _, r := range runs {
		t.Run(r.id, func(t *testing.T) {
			t.Parallel()
			checkDigest(t, r.id, r.cfg, r.digest)
		})
	}
}

// TestEngineMetricsGolden pins the two runs the zero-allocation rewrite
// of internal/sim (typed events, rearm-in-place timers, freelists) was
// required to reproduce bit for bit. It once compared six metrics per
// run; the digest covers those and everything else the run reports.
func TestEngineMetricsGolden(t *testing.T) {
	checkPinned(t, []pinnedRun{
		{"fig8-torus", paperConfigs[1], paperGolden["fig8-torus"][1]},
		{"fig2-triangle", Config{Seed: 7, Scale: 0.1}, "97b63e3de99dad5ec659f743226e9b68f0d60d11e8d72fe42aea35fa73d2ff96"},
	})
}

// TestScenarioRewireGolden pins the three runs the rewire of the §5
// handover and the ablation path death onto internal/scenario was
// required to reproduce bit for bit: same schedule, same loss and
// retransmit pattern around the path death. The digest covers the
// phase rates and delivered-packet counts it once compared.
func TestScenarioRewireGolden(t *testing.T) {
	checkPinned(t, []pinnedRun{
		{"fig17-mobility", paperConfigs[1], paperGolden["fig17-mobility"][1]},
		{"fig17-mobility", Config{Seed: 7, Scale: 0.1}, "e62ce210328d5d351d7d8aaf423e22719b77ef79bc32bb5e29cc6b74ee332006"},
		{"ablation-reinject", Config{Seed: 42, Scale: 0.5}, "e6760420b19599b486f3f12ca633c787ba52464cbf870e40b08ac3e053595645"},
	})
}
