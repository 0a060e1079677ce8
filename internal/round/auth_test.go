package round

import (
	"encoding/hex"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"clocksync/internal/model"
	"clocksync/internal/trace"
)

// pinnedReport is a fixed report whose MAC and derived key were recorded
// from the simulated transport's signing code before it moved here.
var pinnedReport = struct {
	key   []byte
	links []DirReport
}{
	key: []byte("clocksync-pinned-report-key"),
	links: []DirReport{
		{From: 0, To: 3, Stats: trace.DirStats{Count: 4, Min: 0.0125, Max: 0.25}},
		{From: 5, To: 3, Stats: trace.DirStats{Count: 1, Min: -1.5, Max: -1.5}},
	},
}

// TestReportMACPinned: the report layout, the MAC and the key derivation
// are byte for byte what signed reports have always carried, so recorded
// digests and goldens of keyed runs stay valid.
func TestReportMACPinned(t *testing.T) {
	r := pinnedReport
	got := hex.EncodeToString(Sign(r.key, AppendReport(nil, 3, r.links)))
	if want := "526d21c9bc3133b0987bf556e2c1d15a6acee6abda809704a51dcffb8c3741f0"; got != want {
		t.Errorf("report MAC %s, want %s", got, want)
	}
	if got, want := hex.EncodeToString(DeriveKeys(3, 42)[2]), "13ad62e1465ab8b6e45701e33b74d862525c12f553f29a990e882102851011af"; got != want {
		t.Errorf("derived key %s, want %s", got, want)
	}
}

// TestVerifier: a MAC verifies under its origin's key only, repeatedly
// (the per-origin HMAC is reused), and an origin outside the keyring or
// holding an empty key never verifies — not even a MAC computed under
// the empty key, which anyone can compute.
func TestVerifier(t *testing.T) {
	keys := DeriveKeys(3, 7)
	msg := AppendReport(nil, 1, pinnedReport.links)
	mac := Sign(keys[1], msg)
	v := NewVerifier(keys)
	for i := 0; i < 2; i++ {
		if !v.Verify(1, msg, mac) || !v.VerifyReport(1, pinnedReport.links, mac) {
			t.Fatalf("check %d: genuine MAC rejected", i)
		}
	}
	if v.Verify(2, msg, mac) {
		t.Error("MAC verified under another origin's key")
	}
	if v.Verify(1, msg[1:], mac) {
		t.Error("MAC verified over altered content")
	}
	for _, o := range []int{-1, 3} {
		if v.Verify(model.ProcID(o), msg, mac) {
			t.Errorf("origin %d outside the keyring verified", o)
		}
	}
	holed := Keyring{keys[0], nil}
	if NewVerifier(holed).Verify(1, msg, Sign(nil, msg)) {
		t.Error("empty-key MAC verified under an empty key")
	}
}

// TestKeyringValidate: exactly n non-empty keys.
func TestKeyringValidate(t *testing.T) {
	k := []byte("k")
	if err := (Keyring{k, k}).Validate(2); err != nil {
		t.Errorf("complete keyring rejected: %v", err)
	}
	for name, kr := range map[string]Keyring{
		"short":     {k},
		"long":      {k, k, k},
		"nil key":   {k, nil},
		"empty key": {{}, k},
	} {
		if err := kr.Validate(2); err == nil {
			t.Errorf("%s keyring accepted", name)
		}
	}
}

// TestVerifierAllocs: a warm verifier checks a report without allocating.
func TestVerifierAllocs(t *testing.T) {
	keys := DeriveKeys(4, 1)
	links := pinnedReport.links
	mac := Sign(keys[3], AppendReport(nil, 3, links))
	v := NewVerifier(keys)
	v.VerifyReport(3, links, mac)
	if a := testing.AllocsPerRun(100, func() {
		if !v.VerifyReport(3, links, mac) {
			t.Fatal("genuine report rejected")
		}
	}); a != 0 {
		t.Errorf("warm VerifyReport allocates %v times per report, want 0", a)
	}
}

// TestOnlyRoundImportsHMAC: report authentication is one piece of code.
// No other package of the module may import crypto/hmac in non-test
// code.
func TestOnlyRoundImportsHMAC(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if p == "crypto/hmac" && filepath.Dir(path) != filepath.Join(root, "internal", "round") {
				t.Errorf("%s imports crypto/hmac; sign and verify through internal/round", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("scanned only %d files: the module root was not found", files)
	}
}
