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
// goldenStoreConfigs builds, one per part: the bin files, the vindex
// and the meta. A build speed-up must leave every store byte as it was;
// a change that means to alter the on-disk format updates the digests
// it moves in the same commit and says why. A meta format change moves
// only the meta digest, a vindex format change only the vindex digest
// of the -hier configs (a flat store has no vindex: its digest is that
// of no bytes).
var goldenStoreDigests = map[string][3]string{
	"col-vms":      {"e2b5b38f75d62b2daf41cff8a8c588b3bff664a56ad91fad1ee44d59e2177947", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "a1b5b8f6f655382cfb0998a1f97814119a1fae17234e434a16495ebb6b113765"},
	"col-vms-hier": {"e2b5b38f75d62b2daf41cff8a8c588b3bff664a56ad91fad1ee44d59e2177947", "d127d48d0bce0d48710984f22d39f1a44165b904dec71e8ba11c122fb568e1d2", "a1b5b8f6f655382cfb0998a1f97814119a1fae17234e434a16495ebb6b113765"},
	"col-vsm":      {"940c77bf1510c8da342a95a0c1d6df3614a73db6f32458a32074c6813641b7c7", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "85e62c57f9cbd85da6ad9b4be4bce2473576105411afd8e60b1385a6e1325396"},
	"col-vsm-hier": {"940c77bf1510c8da342a95a0c1d6df3614a73db6f32458a32074c6813641b7c7", "d127d48d0bce0d48710984f22d39f1a44165b904dec71e8ba11c122fb568e1d2", "85e62c57f9cbd85da6ad9b4be4bce2473576105411afd8e60b1385a6e1325396"},
	"isa":          {"b56c4ad21fbcea12ec298cef953e3a81e20905a2b639832ec1cb10d1e614d3fc", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "86b8f10a813c132af37092e9c8979258ed5e84cc8d3504af98843e9942d1a1cf"},
	"isa-hier":     {"b56c4ad21fbcea12ec298cef953e3a81e20905a2b639832ec1cb10d1e614d3fc", "d127d48d0bce0d48710984f22d39f1a44165b904dec71e8ba11c122fb568e1d2", "86b8f10a813c132af37092e9c8979258ed5e84cc8d3504af98843e9942d1a1cf"},
	"iso":          {"a26d987722dc883df90a13c17e0d5207ebfb5cfff33a48f72a9846d37708d13b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "55b93c9fb59721500f27837ccfdd3559f4bbb145058d12cf5b37a0eae3dfd994"},
	"iso-hier":     {"a26d987722dc883df90a13c17e0d5207ebfb5cfff33a48f72a9846d37708d13b", "d127d48d0bce0d48710984f22d39f1a44165b904dec71e8ba11c122fb568e1d2", "55b93c9fb59721500f27837ccfdd3559f4bbb145058d12cf5b37a0eae3dfd994"},
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
// rewritten file all change a digest. The bin files go into the first
// digest, the vindex into the second and the meta into the third.
func storeDigests(t *testing.T, fs *pfs.Sim, prefix string) [3]string {
	t.Helper()
	hs := [3]hash.Hash{sha256.New(), sha256.New(), sha256.New()}
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
		switch path {
		case vindexPath(prefix):
			h = hs[1]
		case metaPath(prefix):
			h = hs[2]
		}
		h.Write([]byte(path))
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(data))))
		h.Write(data)
	}
	var out [3]string
	for i, h := range hs {
		out[i] = hex.EncodeToString(h.Sum(nil))
	}
	return out
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
				t.Errorf("store digests %s (bins), %s (vindex), %s (meta), want %s, %s, %s\n\t%q: {%q, %q, %q},",
					got[0], got[1], got[2], want[0], want[1], want[2], name, got[0], got[1], got[2])
			}
		})
	}
}
