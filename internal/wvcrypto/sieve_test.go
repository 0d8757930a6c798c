package wvcrypto

import (
	"math/big"
	"math/bits"
	"testing"
)

// oddPrimesBelow lists the odd primes below n by trial division, as an
// oracle that shares no code with the sieve's table.
func oddPrimesBelow(n uint64) []uint64 {
	var primes []uint64
	for c := uint64(3); c < n; c += 2 {
		prime := true
		for _, p := range primes {
			if p*p > c {
				break
			}
			if c%p == 0 {
				prime = false
				break
			}
		}
		if prime {
			primes = append(primes, c)
		}
	}
	return primes
}

// The table must hold every odd prime below sieveBound exactly once, in
// order, each word the product of its primes and as full as a uint64
// allows: one more prime would overflow it.
func TestSieveWords_CoverOddPrimesBelowBound(t *testing.T) {
	want := oddPrimesBelow(sieveBound)
	var got []uint64
	for i, w := range sieveWords {
		product := uint64(1)
		for _, p := range w.primes {
			product *= p
		}
		if product != w.product {
			t.Fatalf("word %d: product %d, want %d", i, w.product, product)
		}
		if i+1 < len(sieveWords) {
			if hi, _ := bits.Mul64(w.product, sieveWords[i+1].primes[0]); hi == 0 {
				t.Errorf("word %d has room for %d", i, sieveWords[i+1].primes[0])
			}
		}
		got = append(got, w.primes...)
	}
	if len(got) != len(want) {
		t.Fatalf("table holds %d primes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prime %d is %d, want %d", i, got[i], want[i])
		}
	}
}

// FuzzSmallFactorSieve checks the sieve's verdict against big.Int.Mod by
// every odd prime below sieveBound, for an integer above all of them:
// the fuzzed bytes plus sieveBound.
func FuzzSmallFactorSieve(f *testing.F) {
	primes := oddPrimesBelow(sieveBound)
	f.Add([]byte{})
	// Seeds are n − sieveBound for n = 32749 (prime), 16381² (the
	// largest sieve prime squared), 2^127 − 1 (prime) and 16381 · 2^1000.
	seeds := []*big.Int{
		big.NewInt(32749),
		big.NewInt(16381 * 16381),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 127), big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(16381), 1000),
	}
	for _, n := range seeds {
		f.Add(n.Sub(n, big.NewInt(sieveBound)).Bytes())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		n := new(big.Int).SetBytes(b)
		n.Add(n, big.NewInt(sieveBound))
		want := false
		var mod big.Int
		for _, p := range primes {
			if mod.Mod(n, new(big.Int).SetUint64(p)).Sign() == 0 {
				want = true
				break
			}
		}
		if got := hasSmallFactor(n); got != want {
			t.Fatalf("hasSmallFactor(%v) = %v, want %v", n, got, want)
		}
	})
}
