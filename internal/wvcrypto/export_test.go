package wvcrypto

// HasSmallFactor exposes the prime sieve to the external test package,
// which checks it against keys minted through the whole system.
var HasSmallFactor = hasSmallFactor
