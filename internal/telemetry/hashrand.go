package telemetry

import "math"

// Deterministic value noise.
//
// Window extraction must be a pure function of (job, gpu, time): two windows
// that overlap in absolute job time have to agree on the overlap, or the
// start/middle/random datasets would disagree about the same underlying
// telemetry. A stateful PRNG cannot provide that, so all per-sample noise is
// derived from a splitmix64 hash of (stream seed, sample index).

// splitmix64 is the SplitMix64 finalizer, a high-quality 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a 64-bit hash to a uniform value in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// hashUniform returns a deterministic uniform value in [0, 1) for the given
// stream and index.
func hashUniform(stream uint64, idx int64) float64 {
	return unit(splitmix64(stream ^ splitmix64(uint64(idx))))
}

// normalKey holds the two index hashes every stream's normal at one sample
// index mixes in, splitmix64(2·idx) and splitmix64(2·idx+1), so a sample
// that draws several normals hashes its index once.
type normalKey struct{ even, odd uint64 }

func newNormalKey(idx int64) normalKey {
	return normalKey{splitmix64(uint64(2 * idx)), splitmix64(uint64(2*idx + 1))}
}

// normal returns the stream's deterministic standard-normal value at the
// key's index, via Box-Muller on two hashed uniforms.
func (k normalKey) normal(stream uint64) float64 {
	u1 := unit(splitmix64(stream ^ k.even))
	u2 := unit(splitmix64(stream ^ 0xabcdef1234567890 ^ k.odd))
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// hashNormal returns a deterministic standard-normal value for the given
// stream and index.
func hashNormal(stream uint64, idx int64) float64 { return newNormalKey(idx).normal(stream) }

// streamSeed derives a per-(job, gpu, sensor-channel) noise stream from the
// job seed.
func streamSeed(jobSeed int64, gpu, channel int) uint64 {
	return splitmix64(uint64(jobSeed)) ^ splitmix64(uint64(gpu)*0x1000193+uint64(channel)*0x9e37)
}
