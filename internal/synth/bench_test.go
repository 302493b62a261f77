package synth

import "testing"

func BenchmarkGenerateSmall(b *testing.B) {
	cfg := SmallConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventStream unrolls SmallConfig over the default six days, and
// DefaultConfig over a 200-day window with the attack from day 100, the
// stream the market_stream benchmark workload replays.
func BenchmarkEventStream(b *testing.B) {
	for _, c := range []struct {
		name string
		ds   *Dataset
		cfg  EventStreamConfig
	}{
		{"small", MustGenerate(SmallConfig()), DefaultEventStreamConfig()},
		{"market", MustGenerate(DefaultConfig()), EventStreamConfig{Days: 200, AttackStartDay: 100, Seed: 99}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EventStream(c.ds, c.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
