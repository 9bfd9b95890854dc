package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// figureDigests pins every Quick figure byte for byte: the sha256 of
// FigX(Quick).CSV(), of Fig11(Quick) for the bspmm table. The simulator is
// deterministic — the same bytes at any GOMAXPROCS and on every run — so a
// change that moves a figure on purpose updates its digest here and says
// why; any other change must leave the table alone. `ttg-bench -quick -csv
// X | sha256sum` prints the same digest. env is left out: it prints the
// host's GOMAXPROCS and kernel tier.
var figureDigests = map[string]struct {
	fig    func() string
	sha256 string
}{
	"fig5":   {func() string { return Fig5(Quick).CSV() }, "ee2c2b12afcc7461e502e4824691a822e8a62f60e7e77c9237494ba51a99e8ec"},
	"fig6":   {func() string { return Fig6(Quick).CSV() }, "01243230e00b421475ece6815613925e86281929c3e4b467cc4b9d0875b006ea"},
	"fig8":   {func() string { return Fig8(Quick).CSV() }, "8afc0977c4124de1ed7861f9d0c986f475fccdc3bfc14834bfa9a17e5c4658fb"},
	"fig9":   {func() string { return Fig9(Quick).CSV() }, "07ed75f51ba08593a72492d825c1c23badbd0920209415a4452f1dfcf5574783"},
	"fig11":  {func() string { return Fig11(Quick) }, "15e5d8f9922c69fef79ac0cbdef4f7eec183262c387024e1bf89e78a4ec177b5"},
	"fig12":  {func() string { return Fig12(Quick).CSV() }, "981a9c4798f97bbc9ee5ec8625bbeaabc328cbe968dd454f320966ae0541c98d"},
	"fig13a": {func() string { return Fig13a(Quick).CSV() }, "f385f2b5c268df819d980e0170d6a9809c6a78818873f87615c68052ab5d0d13"},
	"fig13b": {func() string { return Fig13b(Quick).CSV() }, "4fe3775cf0c6fb5d2ca7769f451f58d8ae0697dfb575f1303c13c00d7d89c1aa"},
}

// TestFigureDigests regenerates every Quick figure and compares its digest
// with the pinned one. The digests hold on amd64 only: another
// architecture's compiler may fuse the cost models' multiply-adds, which
// moves the last bits of the virtual clock.
func TestFigureDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("figure digests are pinned on amd64; %s may fuse multiply-adds in the cost models", runtime.GOARCH)
	}
	for name, d := range figureDigests {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out := d.fig()
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != d.sha256 {
				t.Errorf("%s digest %s, pinned %s; the figure moved:\n%s", name, got, d.sha256, out)
			}
		})
	}
}
