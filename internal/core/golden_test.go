package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"mloc/internal/datagen"
	"mloc/internal/pfs"
)

// goldenStoreDigests are the sha256 digests of the stores
// goldenStoreConfigs builds: first over every file but the meta, then
// over the meta alone. A build speed-up must leave every store byte as
// it was; a change that means to alter the on-disk format updates the
// digests it moves in the same commit and says why. A meta format
// change moves only the second digest of each pair.
var goldenStoreDigests = map[string][2]string{
	"col-vms":      {"e2b5b38f75d62b2daf41cff8a8c588b3bff664a56ad91fad1ee44d59e2177947", "a1b5b8f6f655382cfb0998a1f97814119a1fae17234e434a16495ebb6b113765"},
	"col-vms-hier": {"9d66aec2c48503ddfb9296ca444fe3b31a1dc070a293a68dcdd95ecbef6e54a9", "a1b5b8f6f655382cfb0998a1f97814119a1fae17234e434a16495ebb6b113765"},
	"col-vsm":      {"940c77bf1510c8da342a95a0c1d6df3614a73db6f32458a32074c6813641b7c7", "85e62c57f9cbd85da6ad9b4be4bce2473576105411afd8e60b1385a6e1325396"},
	"col-vsm-hier": {"bca72f5da79188afcd57bbc2ea69e22950403cfb938ab8420b598f1d39f2b4a2", "85e62c57f9cbd85da6ad9b4be4bce2473576105411afd8e60b1385a6e1325396"},
	"isa":          {"b56c4ad21fbcea12ec298cef953e3a81e20905a2b639832ec1cb10d1e614d3fc", "86b8f10a813c132af37092e9c8979258ed5e84cc8d3504af98843e9942d1a1cf"},
	"isa-hier":     {"e4c77ae3fffeb6e9d23b7aec91bb2342fed8eb24bd121d8e7489068c6cb7f79d", "86b8f10a813c132af37092e9c8979258ed5e84cc8d3504af98843e9942d1a1cf"},
	"iso":          {"a26d987722dc883df90a13c17e0d5207ebfb5cfff33a48f72a9846d37708d13b", "55b93c9fb59721500f27837ccfdd3559f4bbb145058d12cf5b37a0eae3dfd994"},
	"iso-hier":     {"e94a3895a4b3ea689d11972b2cc785db37d393dd9022bd123090abd0c1790aa6", "55b93c9fb59721500f27837ccfdd3559f4bbb145058d12cf5b37a0eae3dfd994"},
}

// goldenStoreConfigs is the golden matrix: COL in both level orders and
// every float codec, each with the hierarchical index off and on. The
// 16×16 chunks over 16 bins leave about sixteen values per (bin, chunk)
// unit, with the spread of sizes the equal-frequency bins give, so both
// the small-piece and the larger-piece codec paths are exercised.
func goldenStoreConfigs() map[string]Config {
	colVSM := DefaultConfig([]int{16, 16})
	colVSM.Order = OrderVSM
	base := map[string]Config{
		"col-vms": DefaultConfig([]int{16, 16}),
		"col-vsm": colVSM,
		"iso":     ISOConfig([]int{16, 16}),
		"isa":     ISAConfig([]int{16, 16}),
	}
	out := make(map[string]Config, 2*len(base))
	for name, cfg := range base {
		cfg.NumBins = 16
		cfg.SampleSize = 4096
		out[name] = cfg
		cfg.HierarchicalIndex = true
		out[name+"-hier"] = cfg
	}
	return out
}

// storeDigests hashes the files under prefix in path order, each as
// its path, its length and its bytes, so a renamed, resized or
// rewritten file all change a digest. The meta goes into the second
// digest and every other file into the first.
func storeDigests(t *testing.T, fs *pfs.Sim, prefix string) [2]string {
	t.Helper()
	hs := [2]hash.Hash{sha256.New(), sha256.New()}
	for _, path := range fs.List(prefix) {
		size, err := fs.Size(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := fs.Peek(path, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		h := hs[0]
		if path == metaPath(prefix) {
			h = hs[1]
		}
		h.Write([]byte(path))
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(data))))
		h.Write(data)
	}
	return [2]string{hex.EncodeToString(hs[0].Sum(nil)), hex.EncodeToString(hs[1].Sum(nil))}
}

// TestStoreBytesGolden builds a 128² GTS-like field (seed 1) under every
// golden configuration and checks the store's digests against the ones
// recorded, making "every store byte is identical" a gate for build
// changes. TestBuildWorkersDeterministic checks identity across worker
// counts only; this checks it across code versions.
func TestStoreBytesGolden(t *testing.T) {
	d := datagen.GTSLike(128, 128, 1)
	phi, err := d.Var("phi")
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range goldenStoreConfigs() {
		t.Run(name, func(t *testing.T) {
			fs := pfs.New(pfs.DefaultConfig())
			if _, err := Build(fs, fs.NewClock(), "golden/phi", d.Shape, phi.Data, cfg); err != nil {
				t.Fatal(err)
			}
			got := storeDigests(t, fs, "golden/phi")
			if want := goldenStoreDigests[name]; got != want {
				t.Errorf("store digests %s (non-meta), %s (meta), want %s, %s\n\t%q: {%q, %q},",
					got[0], got[1], want[0], want[1], name, got[0], got[1])
			}
		})
	}
}
