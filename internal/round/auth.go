package round

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	"clocksync/internal/model"
)

// Report authentication, shared by every transport. SHIFTS is optimal on
// the views it is given (Theorem 4.6), and those reduce to per-link
// reports (Lemma 6.1), so a report forged in another processor's name
// breaks it. Each processor signs with its own HMAC-SHA256 key; a liar can
// still sign lies about its own measurements, but it cannot impersonate.
// What is signed is the transport's choice: dist signs AppendReport's
// content, round excluded, so re-floods verify; netsync signs whole frames.

// Keyring is a cluster's per-processor HMAC-SHA256 keys, indexed by
// processor id. Real deployments provision keys out of band.
type Keyring [][]byte

// DeriveKeys returns a deterministic keyring for simulated runs, tests
// and demos: key p is SHA-256 of the seed and the processor id. Only
// distinctness per processor and reproducibility per seed matter.
func DeriveKeys(n int, seed int64) Keyring {
	keys := make(Keyring, n)
	for p := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprintf("clocksync-dist-key:%d:%d", seed, p)))
		keys[p] = sum[:]
	}
	return keys
}

// Validate checks that the keyring holds exactly one non-empty key for
// each of n processors: an empty key is one anyone can sign with.
func (k Keyring) Validate(n int) error {
	if len(k) != n {
		return fmt.Errorf("keyring holds %d keys for %d processors", len(k), n)
	}
	for p, key := range k {
		if len(key) == 0 {
			return fmt.Errorf("keyring: empty key for p%d", p)
		}
	}
	return nil
}

// AppendReport appends a report's signed content to b: the origin, then
// every link's endpoints and statistics in the report's order, as
// big-endian 64-bit words.
func AppendReport(b []byte, origin model.ProcID, links []DirReport) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(int64(origin)))
	for _, dr := range links {
		b = binary.BigEndian.AppendUint64(b, uint64(int64(dr.From)))
		b = binary.BigEndian.AppendUint64(b, uint64(int64(dr.To)))
		b = binary.BigEndian.AppendUint64(b, uint64(int64(dr.Stats.Count)))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(dr.Stats.Min))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(dr.Stats.Max))
	}
	return b
}

// Sign returns the HMAC-SHA256 of msg under key.
func Sign(key, msg []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(msg)
	return mac.Sum(nil)
}

// Verifier checks MACs under a keyring. It keeps one keyed HMAC per
// origin, built on first use and Reset between checks, which yields the
// same MAC as a fresh hmac.New without rekeying every time. It is not
// safe for concurrent use.
type Verifier struct {
	keys Keyring
	macs []hash.Hash // by origin; nil until the origin's first check
	buf  []byte      // the report content being verified
	sum  [sha256.Size]byte
}

// NewVerifier returns a verifier for the keyring.
func NewVerifier(keys Keyring) *Verifier {
	return &Verifier{keys: keys, macs: make([]hash.Hash, len(keys))}
}

// Verify checks msg's MAC under the claimed origin's key in constant
// time. An origin outside the keyring or with an empty key never
// verifies.
func (v *Verifier) Verify(origin model.ProcID, msg, mac []byte) bool {
	o := int(origin)
	if o < 0 || o >= len(v.keys) || len(v.keys[o]) == 0 {
		return false
	}
	h := v.macs[o]
	if h == nil {
		h = hmac.New(sha256.New, v.keys[o])
		v.macs[o] = h
	} else {
		h.Reset()
	}
	h.Write(msg)
	return hmac.Equal(h.Sum(v.sum[:0]), mac)
}

// VerifyReport checks a report's MAC over its AppendReport content.
func (v *Verifier) VerifyReport(origin model.ProcID, links []DirReport, mac []byte) bool {
	v.buf = AppendReport(v.buf[:0], origin, links)
	return v.Verify(origin, v.buf, mac)
}
