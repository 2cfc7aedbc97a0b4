package serve

// jumpHash is the Lamping–Veach jump consistent hash: it maps key to a
// bucket in [0, n) such that growing n from k to k+1 moves only 1/(k+1)
// of the keyspace — replicas can be added without reshuffling every job's
// affinity.
func jumpHash(key uint64, n int) int {
	var b, j int64 = -1, 0
	for j < int64(n) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// mix64 is the splitmix64 finalizer: a cheap bijective scramble that
// turns sequential IDs into well-distributed hash keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// KeyForJob returns the consistent-hash key for a job's serving affinity.
func KeyForJob(jobID int64) uint64 { return mix64(uint64(jobID)) }
