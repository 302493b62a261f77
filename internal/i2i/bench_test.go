package i2i

import (
	"testing"

	"repro/internal/synth"
)

func BenchmarkScores(b *testing.B) {
	ds := synth.MustGenerate(synth.SmallConfig())
	anchors := HotAnchors(ds.Graph, 300)
	if len(anchors) == 0 {
		b.Fatal("no anchors")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Scores(ds.Graph, anchors[i%len(anchors)])
	}
}

func BenchmarkSimulateCampaign(b *testing.B) {
	cfg := DefaultCampaignConfig()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateCampaign(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
