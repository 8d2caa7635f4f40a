package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"github.com/csalt-sim/csalt/internal/cache"
	"github.com/csalt-sim/csalt/internal/core"
	"github.com/csalt-sim/csalt/internal/introspect"
	"github.com/csalt-sim/csalt/internal/obs"
	"github.com/csalt-sim/csalt/internal/workload"
)

// Engine equivalence against pinned digests. Each shape below runs with a
// metrics registry attached and invariant checks armed — bare, and again
// with the attribution plane attached — and the sha256 of the final
// registry snapshot, of the JSON-encoded Results and of the JSON
// attribution report must equal the values recorded here. The values were
// recorded while two independent layouts of every TLB, POM-TLB and cache
// (packed words, and plain per-entry structs) still ran side by side and
// agreed on them byte for byte, so any behavioural change — a counter, a
// float, an eviction decision — fails here. Per-structure behaviour is
// additionally fuzzed against test-only models in internal/tlb and
// internal/cache.
//
// A deliberate model change re-records the table: run the tests, check
// the reported digests are the only difference, and paste them in.

// equivalenceMatrix is the tiny fig3/fig8-style configuration matrix: POM
// occupancy and walks-eliminated shapes plus the variants that exercise
// every datapath branch (each translation organisation, partitioning
// schemes with both profiler modes, the non-LRU policies that go through
// interface dispatch, native and huge-page translation, demand mapping
// with prewarm off). The snapshot suite sweeps it too.
func equivalenceMatrix() map[string]func(*Config) {
	return map[string]func(*Config){
		"fig3_pom_occupancy": nil, // tinyConfig default: POM, unpartitioned
		"fig8_walks_eliminated": func(c *Config) {
			c.Scale = 0.12
			c.MaxRefsPerCore = 30_000
			c.WarmupRefs = 6_000
			c.Mix = workload.Mix{ID: "gups", VM1: workload.GUPS, VM2: workload.GUPS}
		},
		"conventional": func(c *Config) { c.Org = OrgConventional },
		"tsb":          func(c *Config) { c.Org = OrgTSB },
		"csalt_cd": func(c *Config) {
			c.Scheme = core.CriticalityDynamic
			c.RecordHistory = true
		},
		"csalt_d_dip": func(c *Config) {
			c.Scheme = core.Dynamic
			c.DIP = true
		},
		"inline_btplru": func(c *Config) {
			c.Scheme = core.Dynamic
			c.InlineProfiler = true
			c.Policy = cache.PolicyBTPLRU
		},
		"nru": func(c *Config) { c.Policy = cache.PolicyNRU },
		"native_huge": func(c *Config) {
			c.Virtualized = false
			c.HugePages = true
		},
		"no_prewarm": func(c *Config) { c.NoPrewarm = true },
	}
}

// mixedShape is a short run over a random-looking corner of the
// configuration space: benchmark pair, contexts, cores, organisation,
// scheme, policy, DIP, paging mode, footprint (0.02x plus milli/1000) and
// seed.
func mixedShape(vm1, vm2 workload.Name, contexts, cores int, org TranslationOrg,
	scheme core.Scheme, policy cache.PolicyKind, dip, native bool, milli int, seed uint64) func(*Config) {
	return func(c *Config) {
		c.Mix = workload.Mix{ID: "fuzz", VM1: vm1, VM2: vm2}
		c.ContextsPerCore = contexts
		c.Cores = cores
		c.Org = org
		c.Scheme = scheme
		c.Policy = policy
		c.DIP = dip
		c.Virtualized = !native
		c.Seed = seed
		c.Scale = 0.02 + float64(milli)/1000
		c.MaxRefsPerCore = 6_000
		c.WarmupRefs = 1_000
	}
}

// fourContexts is the heaviest context-switching shape (4 VMs per core).
func fourContexts(c *Config) {
	c.ContextsPerCore = 4
	c.SwitchIntervalCycles = 10_000
}

// bareShapes is equivalenceMatrix plus three mixed corners of the
// configuration space.
func bareShapes() map[string]func(*Config) {
	m := equivalenceMatrix()
	m["fuzz_seed_0"] = mixedShape(workload.GUPS, workload.StreamCluster, 4, 2, OrgConventional,
		core.None, cache.PolicyLRU, false, false, 60, 1)
	m["fuzz_seed_1"] = mixedShape(workload.Canneal, workload.CComp, 2, 1, OrgPOM,
		core.Dynamic, cache.PolicyNRU, true, false, 120, 7)
	m["fuzz_seed_2"] = mixedShape(workload.Graph500, workload.PageRank, 2, 1, OrgTSB,
		core.CriticalityDynamic, cache.PolicyBTPLRU, false, true, 90, 42)
	return m
}

// pinned holds each shape's digests: registry snapshot, Results, registry
// snapshot with the attribution plane attached, attribution report.
var pinned = map[string][4]string{
	"fig3_pom_occupancy": {
		"749fceb2f8b2fe4feb2b2557c8beb60e3b3d2e2a034d82a428c2562cbb8cbc23",
		"01f9253ca0fca4e064ae0c674281806987ee1bbd1dc512d608c77f2334419d8b",
		"3f5ab8b9fa8c161105eb56594b608c68d223d612d7eb07b663c0c66c1342df60",
		"ccdb3de9deaa4bfe0d314f019090c0d81368356cff199b5b30f254f864dd022d",
	},
	"fig8_walks_eliminated": {
		"57d88b8d41f14207e903a2dc1ec90da2fc6720f624041b1ab60dfec5cb1f647a",
		"182b237c3c260908e496265adc3b8aa118d2a944a5e2d8e5c25c0c93a7406717",
		"0381c1ca463a15fc20a35f2a919b2f8f511b750e08a62b32cf48f6449f3e1033",
		"eae2e80e858076b8f615638e37b72eacd4f9691fe081d849692c2403666c783f",
	},
	"conventional": {
		"6bc2362930c1af255a5d85b34dd08da4ae7632f4d4f6f2397368c942c86efecb",
		"bf1ba02f7f75523e106b3509907cc07167059a71b53693b94e75d232d68354b4",
		"8e8af01f1e17198076cd94cb95e41e1e89d4fa9f10c9fabf2fc813cc2acca2b3",
		"0fded32e6b12e5f61f4b4544d552d63147f1d79737150a4b7cbc54edd7f81cf3",
	},
	"tsb": {
		"a712b114de0eeaa8afe98ad2498edf540d7ac5b51fafaae8f5988affd685264e",
		"c9231cce8c700495f5196eef3a1ba72af234e2d1b03ea27f594967f41dff8058",
		"497f709354e13aa5f33632827807d847add1ff485f9114b0854c2789dc08f08c",
		"d8e857a1ae65e537a967498b9b471eb86fa199cb33c1561f4afb10e3571c0cca",
	},
	"csalt_cd": {
		"86b4eaa43c38426eabc679a6bc3793af69ee28953bf62c1aa410dd2c11c0dff7",
		"022b2e639e94f0a1208ac1db39b9f555f8ba59901ea507d005d565260a959d2d",
		"5de5724ecfba09f82e13cc72c70b833a336dc36b899d3d0bb3a27c7f6e6446ae",
		"d634a1440f440516a5d56f58f0e1ee781fd6c55d79514a8a1fedfac923c60315",
	},
	"csalt_d_dip": {
		"a5d5b907370e0628fc6718b0049c490861095364a8a61cd96b41752964518de8",
		"9cc53ad1f6174d2ce9f2aceee842fba8d2944a506cc96e20e981425063a38f0c",
		"ee3ac8383f951885d4a58e9a21ccf7964b8797de5da447b16b441a599bae2f63",
		"6d4e08822e02802008a213a539261b27fb4cd0d3d75f53f662decd07fb5d58f6",
	},
	"inline_btplru": {
		"293b2885476ac80d33383554616a3431f6b52bb067ff2aa738b8e442072f39f7",
		"15334c68f39d4307b9c43120b1c6795a4d236cf87b213534ccf38fb884f8575d",
		"990f272d4a20f38c7963e4d8b546f075608f1b14aa11f82d51f75d5f49a3df19",
		"6327fee999c3d0a18351738a73d9807fe3979707528c77a6184cb520aea65982",
	},
	"nru": {
		"b729252cc07b97d00404c66c1322b616b1601903d77f59856ba9a95af1d15361",
		"343a2283b161f7f4db7ef8e1774177a0d8e90421c38a49f1a5f023fec99c4807",
		"f12664026f3e6278ab5f5c9a91f02b292d9fdcc86ae71c944da8b2d1f3247393",
		"d17af4533ca76dff8cfffdd6cd0d8a5524a6d42fa9aa37763a35440887916fa6",
	},
	"native_huge": {
		"bb459247287d3075c3b50a742a5e7b1ffca0c2f4cdda9bca1d1f7740e6933e55",
		"023175364cc602bae3290c3378773cf549aabb943aec081bf72ff200d9f159d8",
		"e12c49de6ff446282e990da331bfdc1cb235ddf4b7e3e72cba4329f33134bcc7",
		"45c977e48f7bd0e2411e0ec31eebe3c1f64fbe49677d7a80838dde6a9dc5024d",
	},
	"no_prewarm": {
		"25cd362c2ff1201bb7eeda77cb9085ed32fcabf398ad94251da0747de42bd7d7",
		"b39b0bbcb43ab00c0330fce0ec9fb630d67920f323c902dd2c802cd252692a32",
		"736f2a98e85556de6b4a2fb6f7ece797448a0d99ce0a5f58619bed33279eb772",
		"642636d6c7dcf447e2db8ab5113a4d95bcfcab7b8e9bc29f036c32842117c7ee",
	},
	"four_contexts": {
		"e9f2180f1221eb22a09b0631d521c75ce6641c5664caab09773b069566426315",
		"ef27ce1d7e3515c8702d456c50c8adfa67f3d6566cd661351e42166b7f611cfc",
		"8e86592b2c67dafff86bae8149a0155e1309a64ce4f26fb0132ce1adefcfcf73",
		"3ee5b1ecab5ec2cb6bab46a937c41f46a806335fa739768985c35de320cf16b8",
	},
	"fuzz_seed_0": {
		"f6285eac811624deba62f65f5cb3ae9317961e30a3ae430adcb6d84aed596dea",
		"6e580c1a1fef2d02bc528fa6fc3808aa8343927df739750bb59e580b3d8de8ab",
		"5e6c1ff93a06f1e8741b6505f98a374e324eaaeed4d2101b3d0ea1f3a15542ef",
		"3846b87740255f8b4f7ca6170c353288cbdf95d610ce63caa811f399083be61b",
	},
	"fuzz_seed_1": {
		"54cd1415e11010beeadf1d09036f6203c0efd30b90d2103663f096e646c5c4bc",
		"1caddaa89b319e2ae24a7d695b576bd590122893d179fedc07bc4352c9f26ea9",
		"e6b934ef16b2f63c0def5b17ba2d2434c31f656b7e65859527a72dfb3eb60a04",
		"ffb6ba07f295813286b2d104a89e960c75cdfcad227b4cc8082727b7affc2ce5",
	},
	"fuzz_seed_2": {
		"694fe37621ec2eb8ea378890cf43b7e2ee5c4f63cc20a3bccfff4e0353026681",
		"3872edeaa61acfa5bc14b2f8c76b66d5fb6bb2137c9febd07d6f584a7644aa67",
		"d35cfc4632cc1040bcdabb591496da10e105f5fdc77a3b802051165f15e64fc7",
		"688f3efd1cad3f8d8c1c043324e2af61b0aed401d9c16b100ec3ac586d69abdf",
	},
}

// observedRun plays cfg with a metrics registry attached and invariant
// checks armed, plus an attribution plane when attributed is set. It
// returns the sha256 of the final registry snapshot, the JSON-encoded
// Results and (attributed only) the JSON attribution report.
func observedRun(t *testing.T, cfg Config, attributed bool) (digest string, results, report []byte) {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sys.AttachObserver(&obs.Observer{Registry: reg})
	if attributed {
		sys.AttachIntrospection(introspect.NewPlane(introspect.Config{Cores: cfg.Cores}))
	}
	sys.EnableInvariantChecks(0)
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	digest, results = digestOf(t, reg, res)
	if attributed {
		if report, err = json.Marshal(sys.Introspection().Report()); err != nil {
			t.Fatal(err)
		}
	}
	return digest, results, report
}

// digestRun is observedRun without the attribution plane.
func digestRun(t *testing.T, cfg Config) (digest string, results []byte) {
	t.Helper()
	digest, results, _ = observedRun(t, cfg, false)
	return digest, results
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkPinned runs one shape, bare or attributed, against its pinned row.
func checkPinned(t *testing.T, name string, mutate func(*Config), attributed bool) {
	t.Helper()
	want, ok := pinned[name]
	if !ok {
		t.Fatalf("no pinned digests for %q", name)
	}
	cfg := tinyConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	digest, res, report := observedRun(t, cfg, attributed)
	check := func(what, got, pin string) {
		if got != pin {
			t.Errorf("%s changed:\n  got    %s\n  pinned %s", what, got, pin)
		}
	}
	check("Results sha256", sha256Hex(res), want[1])
	if attributed {
		check("attributed registry digest", digest, want[2])
		check("attribution report sha256", sha256Hex(report), want[3])
	} else {
		check("registry digest", digest, want[0])
	}
}

// TestEngineEquivalence holds every bare shape to its pinned registry
// digest and Results.
func TestEngineEquivalence(t *testing.T) {
	for name, mutate := range bareShapes() {
		t.Run(name, func(t *testing.T) { checkPinned(t, name, mutate, false) })
	}
}

// TestEngineEquivalenceFourContexts covers the heaviest context-switching
// shape separately so the main matrix stays fast.
func TestEngineEquivalenceFourContexts(t *testing.T) {
	checkPinned(t, "four_contexts", fourContexts, false)
}

// TestEngineAttributionEquivalence reruns every pinned shape with the
// attribution plane attached: the registry digest (now including live
// introspect.* counters) and the attribution report must match their pins,
// and Results must not move — with every attribution conservation law
// checked at end of run.
func TestEngineAttributionEquivalence(t *testing.T) {
	shapes := bareShapes()
	shapes["four_contexts"] = fourContexts
	if len(shapes) != len(pinned) {
		t.Fatalf("%d shapes but %d pinned digest rows", len(shapes), len(pinned))
	}
	for name, mutate := range shapes {
		t.Run(name, func(t *testing.T) { checkPinned(t, name, mutate, true) })
	}
}
