package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"mloc/internal/compress"
	"mloc/internal/datagen"
	"mloc/internal/pfs"
)

// goldenStoreDigests are the sha256 digests over every file of the
// stores goldenStoreConfigs builds. A build speed-up must leave every
// store byte as it was; a change that means to alter the on-disk format
// updates these digests in the same commit and says why.
var goldenStoreDigests = map[string]string{
	"col-vms":      "90e6fce3388b0697fb5575f17218673fdb45bc38583b4958d25d04d4debbdecd",
	"col-vms-hier": "8ee1c80b9165293d8553c4791725aba64baca99b30012bbe9fd34bd7ad94ad81",
	"col-vsm":      "7d77db92b0ca617e0863fe12079135cd6416b8a41f28d6da7b5e4cb6849c6c6e",
	"col-vsm-hier": "f96f5e98ec6a2fccc7861105259d7d776ef6d52871a4e5bf6ede15b3088f8c3e",
	"fpc":          "0265cb9732e860319b721bfbf6cedda971df1e5e31eb26976c9f45e41baafa87",
	"fpc-hier":     "180719f28d3817bd453acc86bf2cf62913c2e083012aad6688c9245e5cb07a02",
	"isa":          "d83bf806745ca0ff17889fd9a023f93eb882b999971da6d894aff9b94c32edbd",
	"isa-hier":     "d2b6d5d250c12905888eadc09460060324011fdef959583c752f6971c6476b20",
	"iso":          "88298b655910bba049f7f602eb0060e38bd65344dbe7e8895b3f4f2f90dec92b",
	"iso-hier":     "6c503c053b3e9c44aa96ec07e56e46a0848d5e939f36c31bd720eb1578b863d1",
}

// goldenStoreConfigs is the golden matrix: COL in both level orders and
// every float codec, each with the hierarchical index off and on. The
// 16×16 chunks over 16 bins leave about sixteen values per (bin, chunk)
// unit, with the spread of sizes the equal-frequency bins give, so both
// the small-piece and the larger-piece codec paths are exercised.
func goldenStoreConfigs() map[string]Config {
	colVSM := DefaultConfig([]int{16, 16})
	colVSM.Order = OrderVSM
	fpc := DefaultConfig([]int{16, 16})
	fpc.Mode = ModeFloats
	fpc.FloatCodec = compress.NewFPC()
	base := map[string]Config{
		"col-vms": DefaultConfig([]int{16, 16}),
		"col-vsm": colVSM,
		"iso":     ISOConfig([]int{16, 16}),
		"isa":     ISAConfig([]int{16, 16}),
		"fpc":     fpc,
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

// storeDigest hashes every file under prefix in path order, each as its
// path, its length and its bytes, so a renamed, resized or rewritten
// file all change the digest.
func storeDigest(t *testing.T, fs *pfs.Sim, prefix string) string {
	t.Helper()
	h := sha256.New()
	for _, path := range fs.List(prefix) {
		size, err := fs.Size(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := fs.Peek(path, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(path))
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(data))))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStoreBytesGolden builds a 128² GTS-like field (seed 1) under every
// golden configuration and checks the store's digest against the one
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
			got := storeDigest(t, fs, "golden/phi")
			if want := goldenStoreDigests[name]; got != want {
				t.Errorf("store digest %s, want %s\n\t%q: %q,", got, want, name, got)
			}
		})
	}
}
