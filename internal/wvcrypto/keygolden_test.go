package wvcrypto_test

import (
	"context"
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/wideleak"
	"repro/internal/wvcrypto"
)

// pinnedKey is one Device RSA key the identity golden pins, with the
// label of the stream it was minted from.
type pinnedKey struct {
	label string
	key   *rsa.PrivateKey
}

var pinned struct {
	once sync.Once
	keys []pinnedKey
	err  error
}

// pinnedKeys mints, once per test binary, the two test-reader keys and
// the default seed's 32 pool keys (the ones every default world uses).
func pinnedKeys(t *testing.T) []pinnedKey {
	t.Helper()
	pinned.once.Do(func() {
		for _, seed := range []string{"wvcrypto-test-rsa", "oemcrypto-test-rsa"} {
			key, err := wvcrypto.GenerateRSAKey(wvcrypto.NewDeterministicReader(seed))
			if err != nil {
				pinned.err = err
				return
			}
			pinned.keys = append(pinned.keys, pinnedKey{"reader " + seed, key})
		}
		pool := wideleak.NewKeyPool("default")
		ids := wideleak.DeviceStableIDs(nil)
		if err := pool.Prewarm(context.Background(), ids, runtime.GOMAXPROCS(0)); err != nil {
			pinned.err = err
			return
		}
		for _, id := range ids {
			key, err := pool.Key(id)
			if err != nil {
				pinned.err = err
				return
			}
			pinned.keys = append(pinned.keys, pinnedKey{"pool default " + id, key})
		}
	})
	if pinned.err != nil {
		t.Fatalf("mint pinned keys: %v", pinned.err)
	}
	return pinned.keys
}

// TestDeviceRSAKeys_Pinned compares the SHA-256 of each pinned key's
// PKCS#1 DER with the committed list. Every license the study observes
// is rooted in these keys, so a change to prime generation (its sieve,
// its candidate stream or its primality test) must leave them
// byte-identical. The file is compare-only: it has no update mode.
func TestDeviceRSAKeys_Pinned(t *testing.T) {
	var sb strings.Builder
	for _, pk := range pinnedKeys(t) {
		fmt.Fprintf(&sb, "%s %x\n", pk.label, sha256.Sum256(wvcrypto.MarshalRSAPrivateKey(pk.key)))
	}
	got := sb.String()

	path := filepath.Join("testdata", "device_rsa_keys.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("Device RSA keys drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// The sieve must never turn away a prime the system actually mints.
func TestSieve_KeepsPinnedPrimes(t *testing.T) {
	for _, pk := range pinnedKeys(t) {
		for i, p := range pk.key.Primes {
			if wvcrypto.HasSmallFactor(p) {
				t.Errorf("%s: sieve rejects prime %d", pk.label, i)
			}
		}
	}
}
