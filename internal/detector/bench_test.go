package detector

import (
	"math/rand"
	"testing"
)

// BenchmarkDetectorTrain trains the default 7-layer VAE on 240 encodings
// of the imdb width (127), the detector the attack fits before its
// confrontation; one op is five epochs.
func BenchmarkDetectorTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const dim = 127
	history := clusteredEncodings(240, dim, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(dim, Config{Epochs: 5}, rand.New(rand.NewSource(2)))
		d.Train(history)
	}
}
